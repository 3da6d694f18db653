"""Small-wave-number expansion of the scaled slow branch, exactly.

The scaled eigenvalue F(x) = tau lambda_d at x = tau k solves
phi(y) = x with F = x y - 1.  Substituting the large-y expansion of the
profile,

    phi(y) ~ sum_{m >= 0} (-1)^m (2m-1)!! / y^(2m+1),

and writing u = 1/y turns the relation into S(u) = x for the formal odd
series S(u) = sum_m (-1)^m (2m-1)!! u^(2m+1), so that

    u = S^{-1}(x) =: w(x),        F(x) = x / w(x) - 1.

Everything here is formal power-series algebra over exact rationals
(:class:`fractions.Fraction`): S is reverted by Newton iteration with
precision doubling, and F comes out as an even series

    F(x) = sum_{n >= 1} c_n x^(2n),
    c = -1, 1, -4, 27, -248, ...

The c_n are integers (asserted, not assumed) whose magnitudes satisfy
the quadratic recurrence

    a_1 = 1,   a_n = (n-1) * sum_{j=1}^{n-1} a_j a_{n-j},

exposed by :func:`a000699` as an independent cross-check route, and
|c_n| = a_n with strictly alternating signs starting at c_1 = -1.

The series has radius of convergence zero: |c_n| grows faster than any
geometric sequence, with |c_n| / (2n-1)!! settling to an order-one
constant.  :func:`divergence_diagnostics` quantifies this by root tests
and moment ratios of the computed coefficients.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import SelfCheckError

__all__ = [
    "CeSeries",
    "DivergenceReport",
    "a000699",
    "ce_coefficients",
    "divergence_diagnostics",
    "gaussian_moment_series",
]

#: Practical cap on the expansion order; the integer coefficients grow
#: factorially and the exact reversion cost grows quickly with order.
MAX_ORDER = 200


@dataclass(frozen=True)
class CeSeries:
    """Expansion F(x) = sum_{n=1}^{order} c_n x^(2n), exact integers."""

    order: int
    coefficients: tuple[int, ...]

    def coefficient(self, n: int) -> int:
        """Coefficient c_n of x^(2n), 1-based."""
        if not 1 <= n <= self.order:
            raise ValueError(
                f"coefficient index must be in 1..{self.order}, got {n!r}"
            )
        return self.coefficients[n - 1]

    def json_coefficients(self) -> list[str]:
        """Coefficients as decimal strings (exact at any size, unlike
        binary floating point, which would corrupt them beyond 2**53)."""
        return [str(c) for c in self.coefficients]


@dataclass(frozen=True)
class DivergenceReport:
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


def _validate_order(n: int) -> int:
    n = int(n)
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}, got {n!r}")
    return n


def gaussian_moment_series(n: int) -> list[int]:
    """Even moments of the unit Gaussian: [(2m-1)!! for m = 0..n].

    (2m-1)!! = integral of v^(2m) against the unit Gaussian, by the
    integration-by-parts recurrence m_{2m} = (2m-1) m_{2m-2}.
    """
    if n < 0:
        raise ValueError(f"moment count must be >= 0, got {n!r}")
    moments = [1]
    for m in range(1, n + 1):
        moments.append((2 * m - 1) * moments[-1])
    return moments


def a000699(n: int) -> list[int]:
    """First n terms of the quadratic recurrence a_1 = 1,
    a_n = (n-1) * sum_{j=1}^{n-1} a_j a_{n-j}.

    Independent integer route for the coefficient magnitudes |c_n|.
    """
    n = _validate_order(n)
    seq = [1]
    for m in range(2, n + 1):
        seq.append((m - 1) * sum(seq[j] * seq[m - 2 - j] for j in range(m - 1)))
    return seq


# ---------------------------------------------------------------------------
# Formal power series helpers over Fraction.  A series is a list of
# coefficients [f_0, f_1, ..., f_L] for f_0 + f_1 x + ... + f_L x^L.
# ---------------------------------------------------------------------------


def _mul_trunc(a, b, L):
    """Product of two series truncated at degree L."""
    out = [Fraction(0)] * (L + 1)
    for i, ai in enumerate(a):
        if i > L:
            break
        if not ai:
            continue
        top = min(L - i, len(b) - 1)
        for j in range(top + 1):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def _series_inverse(a, L):
    """Reciprocal series of a (a[0] != 0) truncated at degree L."""
    inv0 = 1 / Fraction(a[0])
    out = [Fraction(0)] * (L + 1)
    out[0] = inv0
    for m in range(1, L + 1):
        acc = Fraction(0)
        top = min(m, len(a) - 1)
        for j in range(1, top + 1):
            if a[j]:
                acc += a[j] * out[m - j]
        out[m] = -inv0 * acc
    return out


def _compose_odd(odd_coeffs, w, L):
    """Evaluate sum_m odd_coeffs[m] * w^(2m+1) truncated at degree L.

    Horner scheme in w^2; ``w`` must have zero constant term.
    """
    w2 = _mul_trunc(w, w, L)
    acc = [Fraction(0)] * (L + 1)
    acc[0] = Fraction(odd_coeffs[-1])
    for c in reversed(odd_coeffs[:-1]):
        acc = _mul_trunc(acc, w2, L)
        acc[0] += Fraction(c)
    return _mul_trunc(acc, w, L)


def _compose_even(even_coeffs, w, L):
    """Evaluate sum_m even_coeffs[m] * w^(2m) truncated at degree L."""
    w2 = _mul_trunc(w, w, L)
    acc = [Fraction(0)] * (L + 1)
    acc[0] = Fraction(even_coeffs[-1])
    for c in reversed(even_coeffs[:-1]):
        acc = _mul_trunc(acc, w2, L)
        acc[0] += Fraction(c)
    return acc


def _scaled_branch_series(order: int):
    """Exact coefficients [F_0, F_1, ..., F_{2*order}] of the scaled branch.

    Reverts S(u) = sum_m (-1)^m (2m-1)!! u^(2m+1) by Newton iteration
    with precision doubling, then forms F = x / w(x) - 1.  All odd
    coefficients and F_0 vanish identically.
    """
    L = 2 * order + 1
    moments = gaussian_moment_series(order)
    s_odd = [(-1) ** m * moments[m] for m in range(order + 1)]
    sp_even = [(2 * m + 1) * s_odd[m] for m in range(order + 1)]

    # Newton for S(w(x)) = x, starting from w = x.
    w = [Fraction(0)] * (L + 1)
    w[1] = Fraction(1)
    prec = 1
    while prec < L:
        prec = min(2 * prec, L)
        f = _compose_odd(s_odd, w, prec)
        f[1] -= 1
        g = _compose_even(sp_even, w, prec)
        corr = _mul_trunc(f, _series_inverse(g, prec), prec)
        for i in range(prec + 1):
            w[i] -= corr[i]

    # F(x) = x / w(x) - 1 = 1 / W(x) - 1 with w(x) = x W(x), W(0) = 1.
    big_w = w[1:] + [Fraction(0)]
    lam = _series_inverse(big_w, 2 * order)
    lam[0] -= 1
    return lam


def ce_coefficients(order: int) -> CeSeries:
    """Exact expansion coefficients c_1..c_order of the scaled branch.

    Performs the reversion over exact rationals and asserts the
    structural invariants of the result: vanishing constant and odd
    parts, integer coefficients, alternating signs starting negative.
    """
    order = _validate_order(order)
    lam = _scaled_branch_series(order)

    if lam[0] != 0 or any(lam[m] != 0 for m in range(1, 2 * order + 1, 2)):
        raise SelfCheckError("scaled branch series must be even with F(0) = 0")
    coeffs = []
    for n in range(1, order + 1):
        c = lam[2 * n]
        if c.denominator != 1:
            raise SelfCheckError(
                f"expansion coefficient c_{n} = {c!r} is not an integer"
            )
        c = int(c)
        if c == 0 or (c < 0) != (n % 2 == 1):
            raise SelfCheckError(
                f"expansion coefficient c_{n} = {c} breaks the strict "
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
    increasing = len(tail) >= 2 and all(
        b > a for a, b in zip(tail, tail[1:])
    )
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
