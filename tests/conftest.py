"""Shared fixtures and independent numerical oracles.

The oracles deliberately avoid the package's own algorithms: the erfcx
reference integrates the defining integral with adaptive quadrature,
the profile root is re-solved by the Newton--chord loop the package
used before its Halley loop (and the Halley loop itself is kept in the
form it had before it evaluated phi at one site, as the bit-for-bit
reference of that rewrite),
the expansion coefficients are recomputed by series reversion of the
moment series instead of the profile ODE (and by the two recurrences the
package ran before its halved symmetric sum: the ODE-weight recurrence
and the full A000699 sum of the magnitudes), the stability of each
truncation is re-decided by the 1,250-step root scan and bisection the
package ran before the sign of c_N decided it, and
the kinetic generator is rebuilt on a Gauss-Hermite velocity grid (the
node form the package used before its tridiagonal moment form) from the
operator's k, tau and size alone; the RK4 density trace is recomputed
stage by stage on that complex generator instead of through the
precomputed step matrix of the moment form, and step by step in
extended precision instead of through the split step index, and the
expm trace from a Taylor-series propagator, summed to extended
precision on the node grid or on the moment form and applied step by
step instead of scaled and squared, and from the eigensolver the
package used before, so agreement is evidence, not circularity.  The
split RK4 loop is also kept as it ran before its squarings dropped
negligible entries, as the bit-for-bit reference of that drop, and the
whole trace as it ran while each Horner step of the Taylor polynomial
was a dense matrix product, which also steps the dense node form.

``plasma_z``, the plasma dispersion function on the imaginary axis that
the package no longer exports, is kept here on the package's phi: the
tests check it against mpmath on both halves of the axis, its
continuation to y < 0 included.
"""

import functools
import math
import os
import pathlib
import subprocess
import sys
import warnings
from typing import NamedTuple

import mpmath
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

import slowmode
from slowmode import kinetic
from slowmode.truncation import TruncationReport, _float_coefficients, _poly_u


def erfcx_quadrature(y: float) -> float:
    """erfcx(y) = (2/sqrt(pi)) * integral exp(-s^2 - 2 s y) ds over s > 0.

    The shifted form never overflows, unlike exp(y^2) erfc(y).
    """
    if y < 0.0:
        raise ValueError("quadrature oracle requires y >= 0")
    upper = min(40.0, 40.0 / max(1.0, y))
    with warnings.catch_warnings():
        # epsabs is set far below the roundoff floor on purpose (the
        # integral spans ~300 orders of magnitude over y); quad warning
        # about hitting that floor is the expected outcome.
        warnings.simplefilter("ignore", IntegrationWarning)
        value, _ = quad(
            lambda s: math.exp(-s * s - 2.0 * s * y),
            0.0,
            upper,
            limit=400,
            epsabs=1e-300,
            epsrel=1e-14,
        )
    return 2.0 / math.sqrt(math.pi) * value


def phi_mp(y):
    """phi(y) = sqrt(pi/2) exp(y^2/2) erfc(y/sqrt(2)) at the current mpmath precision."""
    return mpmath.sqrt(mpmath.pi / 2) * mpmath.exp(y * y / 2) * mpmath.erfc(y / mpmath.sqrt(2))


def phi_root_mp(c: float, start: float, dps: int = 50):
    """Root of phi(y) = c to ``dps`` digits, by mpmath's secant search from ``start``."""
    with mpmath.workdps(dps):
        return mpmath.findroot(lambda y: phi_mp(y) - c, mpmath.mpf(start))


# ln(largest double); 2 exp(u) with u above this overflows.
EXP_LIMIT = 709.0


def plasma_z(zeta: complex) -> complex:
    """Plasma dispersion function Z(zeta) on the imaginary axis.

    Z(zeta) is the resolvent integral (1/sqrt(2 pi)) * integral of
    exp(-v^2/2) / (v - zeta) dv for Im zeta > 0, continued to an entire
    function.  Only arguments zeta = iy are accepted; Z is computed
    through erfcx, so its real part is exactly zero:
    Z(iy) = i phi(y) for y >= 0 and
    Z(iy) = i [2 sqrt(pi/2) exp(y^2/2) - phi(-y)] for y < 0.

    Raises :class:`ValueError` for a non-finite argument or one off the
    imaginary axis, and :class:`OverflowError` once exp(y^2/2) leaves
    double range.
    """
    zeta = complex(zeta)
    if not (math.isfinite(zeta.real) and math.isfinite(zeta.imag)):
        raise ValueError(f"plasma_z argument must be finite, got {zeta!r}")
    if zeta.real != 0.0:
        raise ValueError(
            f"plasma_z argument must lie on the imaginary axis, got {zeta!r}"
        )
    y = zeta.imag
    if y >= 0.0:
        return complex(0.0, slowmode.phi(y))
    if 0.5 * y * y > EXP_LIMIT:
        raise OverflowError(
            f"plasma_z({zeta!r}) exceeds double precision range"
        )
    return complex(
        0.0,
        2.0 * math.sqrt(0.5 * math.pi) * math.exp(0.5 * y * y) - slowmode.phi(-y),
    )


def solve_phi_newton_chord(c: float) -> tuple[float, float, int]:
    """Root of phi(y) = c by the Newton--chord loop ``special.solve_phi``
    ran before its Halley loop: ``(y, bracket_width, loop_passes)``.

    Same closed-form bracket and stopping width; each pass takes a Newton
    step from a (slope a phi(a) - 1) and the chord through (a, b), each
    replacing the end its sign picks, and y is a final Newton step from a.
    """
    phi = slowmode.phi
    a = max(0.0, 1.0 / c - c)
    b = max(a, (3.0 - math.sqrt(1.0 + 4.0 * c * c)) / (2.0 * c))
    pa, pb = phi(a), phi(b)
    passes = 0
    while b - a > 4.4e-16 * max(b, 1.0) and pa != pb:
        passes += 1
        width = b - a
        step = 2.2e-16 * max(b, 1.0)
        for z in (a + (pa - c) / (1.0 - a * pa), b - (pb - c) * width / (pb - pa)):
            z = min(max(z, a + step), b - step)
            if a < z < b:
                pz = phi(z)
                if pz > c:
                    a, pa = z, pz
                else:
                    b, pb = z, pz
        if b - a == width:
            break
    slope = 1.0 - a * pa
    y = a + (pa - c) / slope if slope > 0.0 else a
    return min(max(y, a), b), b - a, passes


def phi_two_call(y: float) -> float:
    """phi(y) = sqrt(pi/2) erfcx(y / sqrt(2)) through the kernel call
    ``special.phi`` makes, one layer above ``special._erfcx``."""
    return math.sqrt(0.5 * math.pi) * slowmode.special._erfcx(y * math.sqrt(0.5))


def solve_phi_two_call(c: float) -> tuple[float, float, int, float | None]:
    """``special.solve_phi`` as it was before its loop evaluated phi at
    one site: the same Halley loop, with one ``phi_two_call`` at a before
    the loop and one at the end of each pass.  Its 4-tuple is the
    bit-for-bit reference."""
    a = 1.0 / c - c
    if a < 0.0:
        a = 0.0
    b = (3.0 - math.sqrt(1.0 + 4.0 * c * c)) / (2.0 * c)
    if b < a:
        b = a
    pa = phi_two_call(a)
    pb = None
    passes = 0
    while True:
        scale = b if b > 1.0 else 1.0
        if b - a <= 4.4e-16 * scale:
            break
        passes += 1
        if pb is None or pa - c <= c - pb:
            y, p = a, pa
        else:
            y, p = b, pb
        f = p - c
        d1 = y * p - 1.0
        z = y - 2.0 * f * d1 / (2.0 * d1 * d1 - f * (p + y * d1))
        step = 2.2e-16 * scale
        if z < a + step:
            z = a + step
        elif z > b - step:
            z = b - step
        if not a < z < b:
            break
        pz = phi_two_call(z)
        if pz > c:
            a, pa = z, pz
        else:
            b, pb = z, pz
    slope = 1.0 - a * pa
    y = a + (pa - c) / slope if slope > 0.0 else a
    if y <= a:
        return a, b - a, passes, pa
    if y >= b:
        return b, b - a, passes, pb
    return y, b - a, passes, None


# ---------------------------------------------------------------------------
# Truncated power series over plain int.  A series is a list of
# coefficients [f_0, f_1, ..., f_L] for f_0 + f_1 x + ... + f_L x^L.
# ---------------------------------------------------------------------------


def series_mul(a: list[int], b: list[int], L: int) -> list[int]:
    """Product of two series truncated at degree L."""
    out = [0] * (L + 1)
    for i, ai in enumerate(a[: L + 1]):
        if ai:
            for j, bj in enumerate(b[: L + 1 - i]):
                out[i + j] += ai * bj
    return out


def series_reciprocal(a: list[int], L: int) -> list[int]:
    """1 / a truncated at degree L, for a unit constant term a[0] = +-1.

    The unit constant term keeps every coefficient an integer: dividing
    by a[0] is multiplying by it.
    """
    if a[0] not in (1, -1):
        raise ValueError(f"series reciprocal needs a[0] = +-1, got {a[0]!r}")
    out = [0] * (L + 1)
    out[0] = a[0]
    for m in range(1, L + 1):
        acc = sum(a[j] * out[m - j] for j in range(1, min(m, len(a) - 1) + 1))
        out[m] = -a[0] * acc
    return out


def series_in_square(coeffs: list[int], w: list[int], L: int) -> list[int]:
    """sum_m coeffs[m] w^(2m) truncated at degree L, by Horner in w^2.

    ``w`` must have zero constant term, so only the terms with 2m <= L
    contribute.
    """
    w2 = series_mul(w, w, L)
    coeffs = coeffs[: L // 2 + 1]
    acc = [coeffs[-1]] + [0] * L
    for c in reversed(coeffs[:-1]):
        acc = series_mul(acc, w2, L)
        acc[0] += c
    return acc


def moment_series(order: int) -> list[int]:
    """Coefficients [S_0, ..., S_(2 order + 1)] of the odd moment series
    S(u) = sum_m (-1)^m (2m-1)!! u^(2m+1), the large-y expansion of the
    profile phi in u = 1/y.  The moments (2m-1)!! come from
    gaussian_moment_series, which the tests check against quadrature."""
    s = [0] * (2 * order + 2)
    for m, moment in enumerate(slowmode.gaussian_moment_series(order)):
        s[2 * m + 1] = (-1) ** m * moment
    return s


def branch_series_by_newton(order: int) -> list[int]:
    """Coefficients [F_0, ..., F_(2 order)] of the scaled branch by
    Newton reversion of the moment series.

    With S(u) = x for u = 1/y, the reverse series w = S^{-1}(x) gives
    F(x) = x / w(x) - 1.  Newton's step w <- w - (S(w) - x) / S'(w)
    doubles the correct degree each pass.  S'(w) and w / x both have
    constant term 1, so every division is exact over int.
    """
    L = 2 * order + 1
    s_odd = moment_series(order)[1::2]
    sp_even = [(2 * m + 1) * c for m, c in enumerate(s_odd)]
    w = [0] * (L + 1)
    w[1] = 1
    prec = 1
    while prec < L:
        prec = min(2 * prec, L)
        residual = series_mul(series_in_square(s_odd, w, prec), w, prec)
        residual[1] -= 1
        slope = series_in_square(sp_even, w, prec)
        step = series_mul(residual, series_reciprocal(slope, prec), prec)
        for i in range(prec + 1):
            w[i] -= step[i]
    lam = series_reciprocal(w[1:], 2 * order)
    lam[0] -= 1
    return lam


@functools.cache
def newton_oracle(order: int) -> tuple[int, ...]:
    """Expansion coefficients c_1..c_order by Newton series reversion.

    Asserts the structure the reversion does not impose by itself: the
    branch series is even with F(0) = 0.
    """
    lam = branch_series_by_newton(order)
    assert lam[0] == 0
    assert all(lam[m] == 0 for m in range(1, 2 * order + 1, 2))
    return tuple(lam[2 * n] for n in range(1, order + 1))


@functools.cache
def ode_weight_coefficients(order: int) -> tuple[int, ...]:
    """Expansion coefficients c_1..c_order by the profile-ODE recurrence
    with its weights, c_1 = -1, c_m = sum_{j<m} (2(m-j) - 1) c_j c_{m-j}:
    m - 1 products per order, and no sign is imposed."""
    coeffs = [-1]
    for m in range(2, order + 1):
        coeffs.append(
            sum((2 * (m - j) - 1) * coeffs[j - 1] * coeffs[m - j - 1] for j in range(1, m))
        )
    return tuple(coeffs)


def a000699(n: int) -> list[int]:
    """First n terms of OEIS A000699, a_1 = 1,
    a_n = (n-1) * sum_{j=1}^{n-1} a_j a_{n-j}: the magnitudes |c_n| by
    the symmetric sum over every pair, not only j < n - j."""
    seq = [1]
    for m in range(2, n + 1):
        seq.append((m - 1) * sum(seq[j] * seq[m - 2 - j] for j in range(m - 1)))
    return seq


#: Grid of the stability scan oracle: (0, 2] in t = x^2, 1,250 steps.
SCAN_UPPER = 2.0
SCAN_STEPS = 1_250


def scan_classify_stability(series: slowmode.CeSeries, order: int) -> TruncationReport:
    """``classify_stability`` as the package ran it before the parity rule
    decided it: scan U(t) on the exhaustive window t in (0, 2] with 1250
    subintervals, then bisect the first bracketed sign change down to
    floating-point resolution.  An exact zero hit on the grid is itself
    a sign change (negativity fails there)."""
    coefficients = _float_coefficients(series, order)
    order = len(coefficients)
    prev_t = 0.0
    prev_u = coefficients[0]  # U(0+) = c_1 = -1 < 0
    root_t = None
    for i in range(1, SCAN_STEPS + 1):
        # Form the node as 2 i / 1250 so that representable rationals
        # (such as t = 1) are hit exactly rather than approached.
        t = SCAN_UPPER * i / SCAN_STEPS
        u = _poly_u(coefficients, t)
        if u == 0.0:
            root_t = t
            break
        if (u > 0.0) != (prev_u > 0.0):
            # Bisect the bracket [prev_t, t] on U.
            lo, hi = prev_t, t
            u_lo = prev_u
            while hi - lo > 1e-16 * hi:
                mid = 0.5 * (lo + hi)
                if mid <= lo or mid >= hi:
                    break
                u_mid = _poly_u(coefficients, mid)
                if u_mid == 0.0:
                    lo = hi = mid
                    break
                if (u_mid > 0.0) == (u_lo > 0.0):
                    lo, u_lo = mid, u_mid
                else:
                    hi = mid
            root_t = 0.5 * (lo + hi)
            break
        prev_t, prev_u = t, u
    if root_t is None:
        if coefficients[-1] > 0:
            raise slowmode.SelfCheckError(
                f"truncation order {order} has c_N > 0 but the root scan found no sign "
                "change: T_N is stable iff N is odd, as F - T_N has the sign of c_(N+1)"
            )
        return TruncationReport(
            order=order,
            stable=True,
            sign_change_x=None,
            precedes_criticality=None,
        )
    x_root = math.sqrt(root_t)
    return TruncationReport(
        order=order,
        stable=False,
        sign_change_x=x_root,
        precedes_criticality=x_root < slowmode.CRITICAL_COUPLING,
    )


class VelocityGrid(NamedTuple):
    """Gauss-Hermite velocity nodes and unit-Gaussian weights."""

    nodes: np.ndarray
    weights: np.ndarray


def gauss_hermite_grid(q: int) -> VelocityGrid:
    """Gauss-Hermite grid with q nodes, exact for unit-Gaussian moments
    of degree < 2q, as ``slowmode`` built it before the moment form.

    Nodes and weights come from numpy's physicists' Hermite rule rescaled
    to the weight exp(-v^2/2) / sqrt(2 pi): v = sqrt(2) x, omega = w / sqrt(pi).
    """
    x, w = np.polynomial.hermite.hermgauss(q)
    return VelocityGrid(nodes=x * math.sqrt(2.0), weights=w / math.sqrt(math.pi))


def complex_generator(k: float, tau: float, q: int) -> np.ndarray:
    """The complex generator A = -i k diag(v) - (1/tau)(I - s s^T) on the
    q-node grid, s = sqrt(omega); the moment form T is similar to it."""
    grid = gauss_hermite_grid(q)
    s = np.sqrt(grid.weights)
    a = np.outer(s, s).astype(complex) / tau
    a -= np.diag(1.0 / tau + 1j * k * grid.nodes)
    return a


def node_form(k: float, tau: float, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The real node form (B, s') of A, as ``build_operator`` assembled it
    before it built the moment form T.

    The nodes pair as +-v_p with equal weights, so in the orthonormal
    basis of even and odd pair vectors, with the odd half scaled by i and
    W = diag(v_p) over the positive nodes,
    B = [[(s' s'^T - I)/tau, k W^T], [-k W, -I/tau]] with
    s'_p = sqrt(2 omega_p) on the even half (an odd grid adds
    s'_0 = sqrt(omega_0) for its zero node), and
    rho(t) = s'^T exp(t B) s'.
    """
    nodes, weights = gauss_hermite_grid(q)
    n = q - q // 2
    s = np.zeros(q)
    s[:n] = np.sqrt(2.0 * weights[q // 2 :])
    if q % 2:
        s[0] = np.sqrt(weights[q // 2])
    b = np.zeros((q, q))
    b[:n, :n] = np.outer(s[:n], s[:n]) / tau
    b[np.diag_indices(q)] -= 1.0 / tau
    even, odd = np.arange(q % 2, n), np.arange(n, q)
    b[even, odd] = k * nodes[n:]
    b[odd, even] = -b[even, odd]
    return b, s


def _size(op: slowmode.DiscreteOperator) -> int:
    return op.density_vector.size


def stagewise_rk4(op: slowmode.DiscreteOperator, dt: float, steps: int) -> np.ndarray:
    """Reference density trace s^T g(n dt), n = 0..steps, from g(0) = s:
    classical RK4 on the complex node-form generator with the operator's
    k, tau and size, as four matvec stages per step, with a per-step
    watch that rejects dt once the solution norm grows.
    ``simulate_density`` applies the same step to the moment form as
    one precomputed matrix."""
    q = _size(op)
    s = np.sqrt(gauss_hermite_grid(q).weights).astype(complex)
    a = complex_generator(op.k, op.tau, q)
    g = s.copy()
    density = np.empty(steps + 1, dtype=complex)
    density[0] = s @ g
    norm = float(np.linalg.norm(g))
    for n in range(1, steps + 1):
        k1 = a @ g
        k2 = a @ (g + 0.5 * dt * k1)
        k3 = a @ (g + 0.5 * dt * k2)
        k4 = a @ (g + dt * k3)
        g = g + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        new_norm = float(np.linalg.norm(g))
        if new_norm > norm * (1.0 + 1e-9):
            raise ValueError(
                f"norm grew from {norm!r} to {new_norm!r} at t = {n * dt!r}: "
                "the integration is unstable, reduce dt"
            )
        norm = new_norm
        density[n] = s @ g
    return density


def sequential_rk4_longdouble(op: slowmode.DiscreteOperator, dt: float, steps: int) -> np.ndarray:
    """Reference density trace e^T P^n e, n = 0..steps: the RK4 step
    matrix P of the operator's matrix T, built in Horner form with the
    identity and applied once per step in ``np.longdouble``, so its
    rounding sits far below double's."""
    b = op.matrix.astype(np.longdouble)
    eye = np.eye(_size(op), dtype=np.longdouble)
    h = np.longdouble(dt)
    p = eye + (h / 4) * b
    for j in (3, 2, 1):
        p = eye + ((h / j) * b) @ p
    s = op.density_vector.astype(np.longdouble)
    g = s.copy()
    density = np.empty(steps + 1, dtype=np.longdouble)
    density[0] = s @ g
    for n in range(1, steps + 1):
        g = p @ g
        density[n] = s @ g
    return density


def dense_horner_trace(
    op: slowmode.DiscreteOperator, dt: float, steps: int, method: str
) -> np.ndarray:
    """``simulate_density(op, dt=dt, method=method)`` as it ran while its
    Horner steps Y <- C + C Y, C = (h/j) T, were dense q x q products:
    the density trace over ``steps`` steps, by the same degree and
    scaling rule, the same split n = a + m b, squarings written as
    2.0 * y + y @ y with the drop of entries below 2^-500 max|Y|, and
    the stop of the scaling squarings at a fixed point.  No band is
    assumed, so it also steps a dense generator such as ``node_form``'s B
    from its s'."""
    matrix, s = op.matrix, op.density_vector
    degree, squarings = 4, 0
    if method == "expm":
        quarter = float(abs(0.25 * matrix).sum(axis=0).max())
        squarings = max(0, math.frexp(dt)[1] + math.frexp(quarter)[1] + 3)
        theta = 4.0 * quarter * math.ldexp(dt, -squarings)
        degree = next(n for n in range(2, 64) if theta**n < math.ldexp(math.factorial(n), -54)) - 1
    h = math.ldexp(dt, -squarings)
    y = (h / degree) * matrix
    for j in range(degree - 1, 0, -1):
        c = (h / j) * matrix
        y = c + c @ y

    def square(y):
        y = 2.0 * y + y @ y
        y[abs(y) < math.ldexp(float(abs(y).max()), -500)] = 0.0
        return y

    for _ in range(squarings):
        y, previous = square(y), y
        if np.array_equal(y, previous):
            break
    m = 2
    while m * m < steps + 1:
        m *= 2
    head = np.empty((m, s.size))
    head[0] = s
    for a in range(1, m):
        head[a] = head[a - 1] + head[a - 1] @ y
    for _ in range(m.bit_length() - 1):
        y = square(y)
    tail = np.empty((math.ceil((steps + 1) / m), s.size))
    tail[0] = s
    for b in range(1, tail.shape[0]):
        tail[b] = tail[b - 1] + y @ tail[b - 1]
    return (tail @ head.T).reshape(-1)[: steps + 1]


def split_rk4_unflushed(
    op: slowmode.DiscreteOperator, dt: float, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """``simulate_density(op, dt=dt, method="rk4")`` as it was before its
    squarings dropped entries below 2^-500 max|Y|, with its Horner build
    on T's three diagonals: the density trace, and the last squared Y,
    whose tiny entries the drop would have cut."""
    q = _size(op)
    y = kinetic._taylor_part(kinetic._three_diagonals(op.matrix), dt, 4)
    m = 2
    while m * m < steps + 1:
        m *= 2
    s = op.density_vector
    head = np.empty((m, q))
    head[0] = s
    for a in range(1, m):
        head[a] = head[a - 1] + head[a - 1] @ y
    for _ in range(m.bit_length() - 1):
        y = 2.0 * y + y @ y
    tail = np.empty((math.ceil((steps + 1) / m), q))
    tail[0] = s
    for b in range(1, tail.shape[0]):
        tail[b] = tail[b - 1] + y @ tail[b - 1]
    return (tail @ head.T).reshape(-1)[: steps + 1], y


def taylor_expm_moment_longdouble(
    op: slowmode.DiscreteOperator, dt: float, steps: int
) -> np.ndarray:
    """Reference density trace e^T exp(n dt T) e, n = 0..steps, on the
    operator's moment form T in ``np.longdouble``: the propagator
    exp(dt T) is summed from its Taylor series, each term one
    tridiagonal product of the last, until the terms fall below long
    double's rounding, and it is applied once per step.  No scaling:
    ``||dt T||_1`` must stay near 1, as at the default step."""
    t = op.matrix.astype(np.longdouble) * np.longdouble(dt)
    assert float(np.abs(t).sum(axis=0).max()) <= 2.0
    lower, diagonal, upper = (np.diag(t, band)[:, None] for band in (-1, 0, 1))
    propagator = np.eye(_size(op), dtype=np.longdouble)
    term = propagator.copy()
    j = 0
    while np.max(np.abs(term)) > np.finfo(np.longdouble).eps / 16:
        j += 1
        product = diagonal * term
        product[1:] += lower * term[:-1]
        product[:-1] += upper * term[1:]
        term = product / j
        propagator += term
    s = op.density_vector.astype(np.longdouble)
    g = s.copy()
    density = np.empty(steps + 1, dtype=np.longdouble)
    density[0] = s @ g
    for n in range(1, steps + 1):
        g = propagator @ g
        density[n] = s @ g
    return density


def _eigen_trace(matrix: np.ndarray, s: np.ndarray, times: np.ndarray) -> np.ndarray:
    """s^T exp(M t) s at every time, from the full table exp(lam t) over
    eigenvalues x times."""
    lam, vectors = np.linalg.eig(matrix)
    amplitudes = np.linalg.solve(vectors, s)
    weights = vectors.T @ s
    return (weights * amplitudes) @ np.exp(np.outer(lam, times))


def dense_expm(op: slowmode.DiscreteOperator, times: np.ndarray) -> np.ndarray:
    """Reference density trace e^T exp(T t) e on the operator's matrix,
    from the full table over eigenvalues x times (the eigensolver route
    ``simulate_density(method="expm")`` took before it scaled and
    squared a Taylor polynomial)."""
    return _eigen_trace(op.matrix, op.density_vector, times)


def dense_expm_complex(op: slowmode.DiscreteOperator, times: np.ndarray) -> np.ndarray:
    """Reference density trace s^T exp(A t) s from the complex node-form
    generator with the operator's k, tau and size; a cross-check of the
    similarity of A and T."""
    q = _size(op)
    s = np.sqrt(gauss_hermite_grid(q).weights).astype(complex)
    return _eigen_trace(complex_generator(op.k, op.tau, q), s, times)


def taylor_expm_longdouble(op: slowmode.DiscreteOperator, dt: float, steps: int) -> np.ndarray:
    """Reference density trace s^T exp(n dt A) s, n = 0..steps, with no
    eigensolver: A is assembled on the node grid with the operator's k,
    tau and size in ``np.clongdouble``, the one-step propagator
    exp(dt A) is summed from its Taylor series until the terms fall
    below long double's rounding, and it is applied once per step."""
    q = _size(op)
    grid = gauss_hermite_grid(q)
    nodes = grid.nodes.astype(np.longdouble)
    s = np.sqrt(grid.weights.astype(np.longdouble))
    tau = np.longdouble(op.tau)
    a = np.outer(s, s).astype(np.clongdouble) / tau
    a -= np.diag(1 / tau + 1j * np.longdouble(op.k) * nodes)
    a *= np.longdouble(dt)
    propagator = np.eye(q, dtype=np.clongdouble)
    term = propagator.copy()
    j = 0
    while np.max(np.abs(term)) > np.finfo(np.longdouble).eps:
        j += 1
        term = (a @ term) / j
        propagator += term
    g = s.astype(np.clongdouble)
    density = np.empty(steps + 1, dtype=np.clongdouble)
    density[0] = s @ g
    for n in range(1, steps + 1):
        g = propagator @ g
        density[n] = s @ g
    return density


@pytest.fixture(scope="session")
def series30() -> slowmode.CeSeries:
    return slowmode.ce_coefficients(30)


@pytest.fixture(scope="session")
def grid64() -> VelocityGrid:
    return gauss_hermite_grid(64)


#: The checkout's source tree, put on the subprocess path by run_python.
SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def run_cli(args) -> subprocess.CompletedProcess:
    """Run the command-line tool from the checkout's source tree in a
    subprocess and capture output."""
    return run_python(["-m", "slowmode.cli", *args])


def source_env() -> dict:
    """The environment with the checkout's source tree first on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}


def run_python(args) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with the checkout's source tree on its
    path and capture output."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=source_env(),
    )


def csv_sections(text: str) -> list[list[list[str]]]:
    """Split multi-section CSV output into [[row, ...], ...]."""
    sections = []
    for block in text.split("\n\n"):
        block = block.strip("\n")
        if not block:
            continue
        sections.append([line.split(",") for line in block.split("\n")])
    return sections
