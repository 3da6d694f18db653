"""Finite truncations of the slow-branch expansion and their stability.

The degree-2N truncation T_N(x) = sum_{n=1}^{N} c_n x^(2n) is the decay
rate a closure retaining N expansion orders would predict at scaled wave
number x.  A truncation is *stable* when T_N(x) < 0 strictly for all
x > 0; otherwise the first sign change marks the wave number beyond
which the closure predicts growth instead of decay.

Substituting t = x^2 gives T_N(x) = t U(t) with the ordinary polynomial
U(t) = sum_n c_n t^(n-1), so positivity questions reduce to a real root
scan of U on t > 0.  Because the coefficient magnitudes are strictly
increasing (|c_{n-1}| < |c_n| for n >= 3), the Cauchy bound puts every
root of U at |t| <= 1 + max_{n<N} |c_n / c_N| <= 2, so scanning t in
(0, 2] is exhaustive: beyond the scan window the sign of U is the sign
of the leading coefficient c_N.

Parity rule: T_N is stable iff N is odd.  The series is a Stieltjes
series, so F - T_N has the sign of the first omitted term
c_{N+1} x^(2N+2) for every x > 0, where F < 0 is the exact branch, and
the c_n alternate in sign from c_1 = -1.  For odd N, c_{N+1} > 0 puts
T_N below F < 0; for even N the leading c_N > 0 turns T_N positive.
The scan stays all the same: the rule says whether T_N changes sign,
the scan locates where.

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

#: Root scan window (in t = x^2) and resolution.  The window ends at the
#: Cauchy bound of the module docstring, so it is exhaustive.
_SCAN_UPPER = 2.0
_SCAN_STEPS = 1_250


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

    Scans U(t) on the exhaustive window t in (0, 2] with 1250
    subintervals, then bisects the first bracketed sign change down to
    floating-point resolution.  An exact zero hit on the grid is itself
    a sign change (negativity fails there).
    """
    coefficients = _float_coefficients(series, order)
    order = len(coefficients)
    prev_t = 0.0
    prev_u = coefficients[0]  # U(0+) = c_1 = -1 < 0
    root_t = None
    for i in range(1, _SCAN_STEPS + 1):
        # Form the node as 2 i / 1250 so that representable rationals
        # (such as t = 1) are hit exactly rather than approached.
        t = _SCAN_UPPER * i / _SCAN_STEPS
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
            raise SelfCheckError(
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
