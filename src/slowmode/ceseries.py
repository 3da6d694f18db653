"""Small-wave-number expansion of the scaled slow branch, exactly.

The scaled eigenvalue F(x) = tau lambda_d at x = tau k solves
phi(y) = x with y = (1 + F) / x, where the profile obeys the ODE

    phi'(y) = y phi(y) - 1.

Differentiating phi(y(x)) = x gives phi'(y) y' = 1, and on the branch
phi'(y) = x y - 1 = F, so F y' = 1 with y' = (x F' - 1 - F) / x^2:

    x^2 = F (x F' - 1 - F).

With F(0) = 0, matching powers of x fixes each Taylor coefficient of F
from the lower ones and makes every odd one vanish.  Inserting the even
series F(x) = sum_{n >= 1} c_n x^(2n) (x F' has coefficients 2n c_n)
and matching powers of x^(2m) yields an integer recurrence,

    c_1 = -1,   c_m = sum_{j=1}^{m-1} (2(m-j) - 1) c_j c_{m-j},
    c = -1, 1, -4, 27, -248, ...

Pairing j with m - j turns the weight 2(m-j) - 1 into m - 1, so
c_m = (m-1) sum_j c_j c_{m-j}.  Every product c_j c_{m-j} has the sign
(-1)^m, so c_n = (-1)^n a_n with the magnitudes of OEIS A000699,

    a_1 = 1,   a_m = (m-1) * sum_{j=1}^{m-1} a_j a_{m-j}.

:func:`ce_coefficients` runs this symmetric sum over the pairs
j < m - j only, doubled, plus the middle square a_{m/2}^2 for even m:
about m/2 big-integer products per order and no rational arithmetic.
The signs then hold by construction, so the self-check is the
ODE-weight recurrence above at the top order alone, n - 1 products
that the halved sum does not share.  The full ODE-weight recurrence,
the unhalved A000699 sum, and the Newton and Lagrange reversions of the
Gaussian moment series are the tests' oracles.

The series has radius of convergence zero: |c_n| grows faster than any
geometric sequence, with |c_n| / (2n-1)!! settling to an order-one
constant.  :func:`divergence_diagnostics` quantifies this by root tests
and moment ratios of the computed coefficients.
"""

import math
from typing import NamedTuple

from .errors import SelfCheckError, _validate_count

__all__ = [
    "CeSeries",
    "DivergenceReport",
    "ce_coefficients",
    "divergence_diagnostics",
    "gaussian_moment_series",
]

#: Cap on the expansion order.  The halved recurrence is cheap (order
#: 200 in a few milliseconds); the cap keeps the coefficients, which grow
#: factorially, within what the truncation and diagnostics layers and
#: their tests cover.
MAX_ORDER = 200


class CeSeries(NamedTuple):
    """Expansion F(x) = sum_{n=1}^{order} c_n x^(2n), exact integers."""

    order: int
    coefficients: tuple[int, ...]


class DivergenceReport(NamedTuple):
    """Growth diagnostics of the expansion coefficients.

    ``ratios[n-1]`` is |c_n| / (2n-1)!! and ``root_tests[n-1]`` is
    |c_n|^(1/(2n)); ``radius_estimate`` is the reciprocal of the largest
    root statistic, an upper bound for the radius of convergence that
    tends to zero as the order grows.
    """

    order: int
    ratios: tuple[float, ...]
    root_tests: tuple[float, ...]
    radius_estimate: float
    #: Whether the root tests increase strictly over n >= 5 (the small-n
    #: entries are not yet in the asymptotic regime).
    root_test_increasing: bool
    #: (min, max) of the moment ratios over n >= 10, or None if the
    #: series is too short to report a settled band.
    ratio_band: tuple[float, float] | None


def gaussian_moment_series(n: int) -> list[int]:
    """Even moments of the unit Gaussian: [(2m-1)!! for m = 0..n], n <= MAX_ORDER.

    (2m-1)!! = integral of v^(2m) against the unit Gaussian, by the
    integration-by-parts recurrence m_{2m} = (2m-1) m_{2m-2}.
    """
    n = _validate_count(n, "moment count", 0, MAX_ORDER)
    moments = [1]
    for m in range(1, n + 1):
        moments.append((2 * m - 1) * moments[-1])
    return moments


def ce_coefficients(order: int) -> CeSeries:
    """Exact expansion coefficients c_1..c_order of the scaled branch.

    Runs the halved symmetric recurrence for the magnitudes, gives c_n
    the sign (-1)^n, and checks c_order against the ODE-weight
    recurrence (module docstring).
    """
    order = _validate_count(order, "order", 1, MAX_ORDER)
    a = [0, 1]  # a[m] = |c_m|
    for m in range(2, order + 1):
        pairs = sum(a[j] * a[m - j] for j in range(1, (m + 1) // 2))
        middle = a[m // 2] ** 2 if m % 2 == 0 else 0
        a.append((m - 1) * (2 * pairs + middle))
    coeffs = [(-1) ** n * a[n] for n in range(1, order + 1)]
    _check_top_order(coeffs)
    return CeSeries(order=order, coefficients=tuple(coeffs))


def _check_top_order(coeffs: list[int]) -> None:
    """Raise :class:`SelfCheckError` unless the last of c_1..c_n, n >= 2,
    obeys the ODE-weight recurrence c_n = sum_{j<n} (2(n-j) - 1) c_j c_{n-j}."""
    n = len(coeffs)
    expected = sum((2 * (n - j) - 1) * coeffs[j - 1] * coeffs[n - j - 1] for j in range(1, n))
    if n > 1 and coeffs[-1] != expected:
        raise SelfCheckError(
            f"expansion coefficient c_{n} breaks the profile-ODE recurrence "
            "c_n = sum_j (2(n-j) - 1) c_j c_(n-j)"
        )


def _root_test(c: int, n: int) -> float:
    """|c|^(1/(2n)); in log space once |c| exceeds double range
    (first at n = 151), since math.log accepts integers of any size."""
    try:
        return abs(c) ** (1.0 / (2.0 * n))
    except OverflowError:
        return math.exp(math.log(abs(c)) / (2 * n))


def divergence_diagnostics(series: CeSeries) -> DivergenceReport:
    """Growth diagnostics showing the expansion has zero radius of convergence."""
    moments = gaussian_moment_series(series.order)
    ratios = tuple(
        abs(c) / moments[n] for n, c in enumerate(series.coefficients, start=1)
    )
    root_tests = tuple(
        _root_test(c, n) for n, c in enumerate(series.coefficients, start=1)
    )
    tail = root_tests[4:]
    increasing = len(tail) >= 2 and all(b > a for a, b in zip(tail, tail[1:]))
    band = None
    if series.order >= 10:
        settled = ratios[9:]
        band = (min(settled), max(settled))
    return DivergenceReport(
        order=series.order,
        ratios=ratios,
        root_tests=root_tests,
        radius_estimate=1.0 / max(root_tests),
        root_test_increasing=increasing,
        ratio_band=band,
    )
