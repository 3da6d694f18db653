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

Each c_m costs m - 1 big-integer products, so c_1..c_n cost O(n^2) of
them and no rational arithmetic at all.  Pairing j with m - j turns
the weight 2(m-j) - 1 into m - 1, so c_m = (m-1) sum_j c_j c_{m-j},
and the magnitudes satisfy the quadratic recurrence

    a_1 = 1,   a_n = (n-1) * sum_{j=1}^{n-1} a_j a_{n-j},

(OEIS A000699), with |c_n| = a_n and strictly alternating signs
starting at c_1 = -1.  :func:`a000699` is this symmetrized recurrence,
so it checks the weight derivation; the Newton and Lagrange reversions
of the Gaussian moment series in the tests are the independent routes.

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
    "a000699",
    "ce_coefficients",
    "divergence_diagnostics",
    "gaussian_moment_series",
]

#: Cap on the expansion order.  The recurrence itself is cheap (order
#: 200 in milliseconds); the cap keeps the coefficients, which grow
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


def a000699(n: int) -> list[int]:
    """First n terms of the quadratic recurrence a_1 = 1,
    a_n = (n-1) * sum_{j=1}^{n-1} a_j a_{n-j}.

    The ODE recurrence of :func:`ce_coefficients` symmetrized in j and
    n - j, so a check of its weights (module docstring).
    """
    n = _validate_count(n, "order", 1, MAX_ORDER)
    seq = [1]
    for m in range(2, n + 1):
        seq.append((m - 1) * sum(seq[j] * seq[m - 2 - j] for j in range(m - 1)))
    return seq


def ce_coefficients(order: int) -> CeSeries:
    """Exact expansion coefficients c_1..c_order of the scaled branch.

    Runs the integer recurrence of the profile ODE (module docstring)
    and asserts the strict sign alternation, starting negative.
    """
    order = _validate_count(order, "order", 1, MAX_ORDER)
    coeffs = [-1]
    for m in range(2, order + 1):
        c = sum(
            (2 * (m - j) - 1) * coeffs[j - 1] * coeffs[m - j - 1]
            for j in range(1, m)
        )
        if c == 0 or (c < 0) != (m % 2 == 1):
            raise SelfCheckError(
                f"expansion coefficient c_{m} = {c} breaks the strict "
                "sign alternation (-1)^n"
            )
        coeffs.append(c)
    return CeSeries(order=order, coefficients=tuple(coeffs))


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
