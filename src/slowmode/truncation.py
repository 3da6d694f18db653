"""Finite truncations of the slow-branch expansion and their stability.

The degree-2N truncation T_N(x) = sum_{n=1}^{N} c_n x^(2n) is the decay
rate a closure retaining N expansion orders would predict at scaled wave
number x.  A truncation is *stable* when T_N(x) < 0 strictly for all
x > 0; otherwise the first sign change marks the wave number beyond
which the closure predicts growth instead of decay.

Substituting t = x^2 gives T_N(x) = t U(t) with the ordinary polynomial
U(t) = sum_n c_n t^(n-1), so positivity questions reduce to the real
roots of U on t > 0.

Parity rule: T_N is stable iff N is odd, and for even N, U has exactly
one positive root.  The coefficients alternate in sign from c_1 = -1;
write mu_n = |c_{n+1}|, so that U(t) = -S_N(t) with
S_N(t) = sum_{n<N} mu_n (-t)^n.  The series is a Stieltjes series: the
mu_n are moments of a positive measure sigma on [0, inf) (its S-fraction
coefficients are positive, which the tests check through order 200).
Summing the geometric series under the integral,

    S_N(t) = int (1 - (-ut)^N) / (1 + ut) dsigma(u) = h(t) - (-t)^N k_N(t),

where h(t) = int dsigma / (1 + ut) is strictly decreasing and
t^N k_N(t) = int (ut)^N / (1 + ut) dsigma is strictly increasing.  For
odd N, S_N = h + t^N k_N > 0, so T_N < 0 for every x > 0.  For even N,
S_N = h - t^N k_N is strictly decreasing from S_N(0) = 1, so it has at
most one positive root.  Because the coefficient magnitudes are strictly
increasing (|c_{n-1}| < |c_n| for n >= 3), the Cauchy bound puts every
root of U at |t| < 1 + max_{n<N} |c_n / c_N| <= 2: the root lies in
(0, 2), and U(2) has the sign of c_N.  So the sign of c_N decides
stability, and one bisection of U on [0, 2] finds the one root.

:func:`compare_to_exact` tabulates the truncations against the exact
scaled branch across the subcritical range, where the divergent
character shows concretely: adding orders improves the fit near x = 0
and worsens it near the critical point.
"""

import math
import sys
from typing import NamedTuple

from .ceseries import CeSeries
from .dispersion import CRITICAL_COUPLING, sample_branch
from .errors import SelfCheckError, _validate_count

__all__ = [
    "TruncationComparison",
    "TruncationReport",
    "classify_stability",
    "compare_to_exact",
    "eval_truncation",
]

#: The Cauchy bound of the module docstring, in t = x^2: every root of
#: U lies below it, so it closes the bisection bracket.
_CAUCHY_BOUND = 2.0


class TruncationReport(NamedTuple):
    """Stability classification of one truncation order."""

    order: int
    stable: bool
    #: Smallest x > 0 with T_N(x) = 0, when unstable; None when stable.
    sign_change_x: float | None
    #: For unstable orders, whether the sign change lies below the
    #: critical point sqrt(pi/2) (the closure loses validity before the
    #: exact branch terminates); None when stable.
    precedes_criticality: bool | None


class TruncationComparison(NamedTuple):
    """Exact branch versus truncations on a subcritical grid."""

    x: tuple[float, ...]
    orders: tuple[int, ...]
    exact: tuple[float, ...]
    truncations: dict[int, tuple[float, ...]]
    #: Sup errors |T_N - F| over grid points with x <= 0.5.
    sup_error_origin: dict[int, float | None]
    #: Sup errors over grid points with x >= 0.9 * sqrt(pi/2).
    sup_error_critical: dict[int, float | None]
    #: Supercritical inputs dropped from the grid.
    excluded: tuple[float, ...]


def _float_coefficients(series: CeSeries, order: int) -> tuple[float, ...]:
    """c_1..c_order as floats, converted once per order after checking it."""
    order = _validate_count(order, "truncation order", 1, series.order)
    try:
        return tuple(float(c) for c in series.coefficients[:order])
    except OverflowError:
        # The magnitudes increase with n, so c_order is the one too large.
        raise ValueError(
            f"truncation order {order} is out of range: c_{order} exceeds "
            f"the double range (|c| <= {sys.float_info.max:.4g})"
        ) from None


def eval_truncation(series: CeSeries, order: int, x: float) -> float:
    """T_order(x) = sum_{n<=order} c_n x^(2n), by Horner in x^2.

    Raises ValueError when the value leaves the double range.
    """
    coefficients = _float_coefficients(series, order)
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"evaluation point must be finite, got {x!r}")
    return _truncation_column(coefficients, [x])[0]


def _truncation_column(coefficients: tuple[float, ...], xs: list[float]) -> tuple[float, ...]:
    """T(x) = x^2 U(x^2) at each finite x of ``xs``, one :func:`_poly_u`
    call per point.  Raises ValueError at the first x whose value leaves
    the double range."""
    squares = [x * x for x in xs]
    values = tuple([_poly_u(coefficients, t) * t + 0.0 for t in squares])  # + 0.0 normalizes -0.0
    if not all(map(math.isfinite, values)):
        x = next(x for x, value in zip(xs, values) if not math.isfinite(value))
        raise ValueError(
            f"truncation order {len(coefficients)} overflows the double "
            f"range at x = {x!r}"
        )
    return values


def _poly_u(coefficients: tuple[float, ...], t: float) -> float:
    """U(t) = sum_{n<=order} c_n t^(n-1), so T(x) = x^2 U(x^2)."""
    acc = 0.0
    for c in reversed(coefficients):
        acc = acc * t + c
    return acc


def classify_stability(series: CeSeries, order: int) -> TruncationReport:
    """Decide whether T_order is strictly negative for all x > 0.

    The sign of c_order decides (the parity rule of the module
    docstring).  An unstable order's one root is bisected on U over
    t in [0, 2], from U(0+) = c_1 = -1, until the midpoint equals one of
    the two ends; an exact zero at a midpoint is the root.  Raises
    SelfCheckError when U(2) does not have the sign of c_order, the
    bracket the bisection relies on.
    """
    coefficients = _float_coefficients(series, order)
    order = len(coefficients)
    stable = coefficients[-1] < 0.0
    u_top = _poly_u(coefficients, _CAUCHY_BOUND)
    if not (u_top < 0.0 if stable else u_top > 0.0):
        raise SelfCheckError(
            f"truncation order {order}: U(2) = {u_top!r} does not have the sign of "
            f"c_{order}, so the Cauchy bound t < 2 does not bracket the roots of U"
        )
    if stable:
        return TruncationReport(order, True, None, None)
    lo, hi = 0.0, _CAUCHY_BOUND
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        u = _poly_u(coefficients, mid)
        if u == 0.0:
            break
        if u < 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    x_root = math.sqrt(mid)
    return TruncationReport(
        order=order,
        stable=False,
        sign_change_x=x_root,
        precedes_criticality=x_root < CRITICAL_COUPLING,
    )


def compare_to_exact(x_values, orders, series: CeSeries) -> TruncationComparison:
    """Tabulate the truncations of ``series`` against the exact scaled branch.

    ``orders`` are validated, deduplicated and sorted here.  The x values
    are solved as wave numbers at tau = 1 by
    :func:`slowmode.dispersion.sample_branch`, whose branch solve
    validates each one and which sets the points where the exact branch
    does not exist (supercritical, x >= sqrt(pi/2)) aside as
    ``excluded``.  Each order's column is evaluated in one pass over the
    kept x values.
    """
    counts = {_validate_count(n, "truncation order", 1, series.order) for n in orders}
    orders = tuple(sorted(counts))
    if not orders:
        raise ValueError("at least one truncation order is required")
    coefficients = {order: _float_coefficients(series, order) for order in orders}
    table = sample_branch(1.0, x_values)
    kept = [point.k for point in table.points]
    exact = [point.eigenvalue for point in table.points]
    truncations = {order: _truncation_column(coefficients[order], kept) for order in orders}

    def window_sup(order: int, lo: float, hi: float) -> float | None:
        errors = [
            abs(truncations[order][i] - exact[i])
            for i, x in enumerate(kept)
            if lo <= x <= hi
        ]
        return max(errors) if errors else None

    near_critical_lo = 0.9 * CRITICAL_COUPLING
    return TruncationComparison(
        x=tuple(kept),
        orders=orders,
        exact=tuple(exact),
        truncations=truncations,
        sup_error_origin={n: window_sup(n, 0.0, 0.5) for n in orders},
        sup_error_critical={
            n: window_sup(n, near_critical_lo, CRITICAL_COUPLING) for n in orders
        },
        excluded=tuple(table.excluded),
    )
