"""Slow decay branch of the kinetic relaxation model.

The model is the linear kinetic equation

    df/dt + v df/dx = (rho[f] M - f) / tau,

where M is the unit Gaussian in velocity and rho[f] the velocity
average.  For a spatial Fourier mode with wave number k > 0, the slowest
decay rate lambda_d(k, tau) is real and solves

    phi(y) = tau k,    lambda_d = k y - 1 / tau,

with y = (tau lambda_d + 1) / (tau k) > 0 and phi the strictly
decreasing profile from :mod:`slowmode.special`.  Because phi(0) =
sqrt(pi/2), the isolated mode exists exactly for tau k < sqrt(pi/2); at
larger wave numbers it merges into the continuum of rates at
Re = -1/tau and the relation has no root.

The branch obeys the scaling law  tau lambda_d(k, tau) = F(tau k)  for a
single universal function F, exposed here as :func:`scaled_eigenvalue`.

:func:`branch_point` is the one branch solve, which every other entry
point calls, :func:`sample_branch` through this module's attribute: it
validates k and tau, decides the domain (origin, subnormal,
supercritical x), takes y from the Halley loop of
:func:`slowmode.special.solve_phi` inside the closed-form bracket
1/x - x < y < (3 - sqrt(1 + 4x^2))/(2x), and self-checks the residual
|phi(y) - tau k|, reusing the solver's phi(y) when the loop already
evaluated it.

On the branch, Laplace's continued fraction phi(y) = 1/(y + 1/a_1(y))
turns F = x y - 1, which cancels as y -> 1/x, into F = -x/a_1(y), and
so lambda_d = -k/a_1(y), with nothing subtracted and no x^2 to
underflow at tiny tau.  :func:`branch_point` takes that route for
y >= 3 (x <= phi(3) ~ 0.3046), and x y - 1 above it, where the
cancellation costs at most a few roundings.  Both routes are
evaluated at the switch itself once, at import, and a point that
takes the fraction route raises SelfCheckError if they disagree.
"""

import sys
from typing import NamedTuple

from .errors import SelfCheckError, _validate_nonnegative, _validate_tau
from .special import laplace_tail, phi, solve_phi, tail_depth

__all__ = [
    "CRITICAL_COUPLING",
    "BranchPoint",
    "BranchTable",
    "branch_point",
    "critical_wave_number",
    "sample_branch",
    "scaled_eigenvalue",
    "solve_diffusion_mode",
]

#: Critical value of the scaled wave number x = tau k: the slow mode
#: exists iff x < CRITICAL_COUPLING = phi(0) = sqrt(pi/2).
CRITICAL_COUPLING = phi(0.0)

#: Points with CRITICAL_COUPLING - tau k within this window are flagged
#: near-critical: still resolvable, but y -> 0 and the mode is about to
#: merge with the continuum.
NEAR_CRITICAL_WINDOW = 1e-8

#: Residual bound the solver must meet; exceeding it is a defect.
_RESIDUAL_LIMIT = 1e-8

#: Roots y >= this take lambda_d = -k/a_1(y) from Laplace's fraction.
_FRACTION_FROM = 3.0

#: Relative gap the two routes to F may show at the switch: x y - 1
#: errs there by a few roundings, the fraction by about one.
_SWITCH_TOLERANCE = 1e-13


class BranchPoint(NamedTuple):
    """One solved point of the slow decay branch."""

    k: float
    tau: float
    eigenvalue: float
    #: |phi(y) - tau k| at y = (tau lambda + 1)/(tau k), the
    #: dispersion-relation defect of the returned eigenvalue (0.0 by
    #: convention at k = 0).
    residual: float
    near_critical: bool
    #: Width of the final certified Halley bracket (solver detail).
    bracket_width: float
    #: Passes of the Halley loop, one phi evaluation each (solver detail).
    iterations: int


class BranchTable(NamedTuple):
    """Slow branch sampled over a wave-number grid.

    ``excluded`` lists the supercritical grid points (tau k >= sqrt(pi/2))
    for which no isolated mode exists.
    """

    tau: float
    critical_k: float
    points: list[BranchPoint]
    excluded: list[float]


def critical_wave_number(tau: float) -> float:
    """Largest wave number carrying an isolated slow mode: sqrt(pi/2)/tau."""
    tau = _validate_tau(tau)
    return CRITICAL_COUPLING / tau


def scaled_eigenvalue(x: float) -> float:
    """Universal scaled branch F(x) = tau lambda_d at scaled wave number x = tau k.

    Defined for 0 <= x < sqrt(pi/2) with F(0) = 0 and F -> -1 as
    x -> sqrt(pi/2); raises ValueError for supercritical x where no
    isolated mode exists.
    """
    x = _validate_nonnegative(x, "scaled wave number")
    point = branch_point(x)
    if point is None:
        raise ValueError(
            f"supercritical scaled wave number {x!r}: no isolated slow mode "
            f"for tau*k >= sqrt(pi/2) = {CRITICAL_COUPLING!r}"
        )
    return point.eigenvalue


def solve_diffusion_mode(k: float, tau: float = 1.0) -> float | None:
    """Slow decay rate lambda_d(k, tau), or None when supercritical.

    Returns 0.0 at k = 0 (mass conservation), a value in (-1/tau, 0) for
    0 < tau k < sqrt(pi/2), and None for tau k >= sqrt(pi/2).
    """
    point = branch_point(k, tau)
    return None if point is None else point.eigenvalue


def branch_point(k: float, tau: float = 1.0) -> BranchPoint | None:
    """Solve one branch point with solver diagnostics, or None if supercritical.

    ValueError for a subnormal tau*k, where the bracket 1/x - x of
    :func:`solve_phi` overflows; SelfCheckError when the residual
    exceeds its bound, or when the root takes the continued-fraction
    route while the two routes to F disagree at the switch.
    """
    k = _validate_nonnegative(k, "wave number k")
    tau = _validate_tau(tau)
    x = tau * k
    if x == 0.0:  # k = 0, or tau*k underflowed: F(x) = -x^2 + ... rounds to 0
        return BranchPoint(k, tau, 0.0, 0.0, False, 0.0, 0)
    if x < sys.float_info.min:
        raise ValueError(
            f"scaled wave number tau*k = {x!r} is subnormal (below "
            f"{sys.float_info.min!r}); increase k or tau"
        )
    if x >= CRITICAL_COUPLING:
        return None
    y, width, iterations, phi_y = solve_phi(x)
    residual = abs((phi(y) if phi_y is None else phi_y) - x)
    if residual > _RESIDUAL_LIMIT:
        raise SelfCheckError(
            f"dispersion solve at k={k!r}, tau={tau!r} left residual "
            f"{residual!r} > {_RESIDUAL_LIMIT!r}"
        )
    if y >= _FRACTION_FROM:
        if not _SWITCH_GAP <= _SWITCH_TOLERANCE:
            raise SelfCheckError(
                f"the two routes to F disagree at y = {_FRACTION_FROM!r}: "
                f"x y - 1 and -x/a_1(y) differ by {_SWITCH_GAP!r} relative"
            )
        eigenvalue = -k / laplace_tail(y, tail_depth(y))
    else:
        eigenvalue = (x * y - 1.0) / tau
    # Positional: the fields are k, tau, eigenvalue, residual,
    # near_critical, bracket_width, iterations.
    return BranchPoint(
        k,
        tau,
        eigenvalue,
        residual,
        CRITICAL_COUPLING - x <= NEAR_CRITICAL_WINDOW,
        width,
        iterations,
    )


def _switch_gap() -> float:
    """Relative gap between F = x y - 1 and F = -x/a_1(y) at the
    switch y = 3, x = phi(3), where both routes hold."""
    y = _FRACTION_FROM
    x = phi(y)
    fraction = -x / laplace_tail(y, tail_depth(y))
    return abs((x * y - 1.0) - fraction) / -fraction


#: The two routes compared once, at import; a fraction route taken
#: while they disagree is a defect.
_SWITCH_GAP = _switch_gap()


def sample_branch(tau, k_values) -> BranchTable:
    """Sample the slow branch over ``k_values`` (in the given order).

    Supercritical wave numbers are collected in ``excluded`` instead of
    producing table points.
    """
    tau = _validate_tau(tau)
    points: list[BranchPoint] = []
    excluded: list[float] = []
    for k in k_values:
        point = branch_point(k, tau)
        if point is None:
            excluded.append(float(k))
        else:
            points.append(point)
    return BranchTable(
        tau=tau,
        critical_k=critical_wave_number(tau),
        points=points,
        excluded=excluded,
    )
