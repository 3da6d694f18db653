"""Exact expansion coefficients: values, dual routes, divergence."""

import math

import pytest
from scipy.integrate import quad

from slowmode import (
    a000699,
    ce_coefficients,
    divergence_diagnostics,
    gaussian_moment_series,
    scaled_eigenvalue,
)
from slowmode.ceseries import MAX_ORDER

from conftest import (
    branch_series_by_newton,
    moment_series,
    newton_oracle,
    series_in_square,
    series_mul,
    series_reciprocal,
)

# Magnitudes |c_n| computed once from the quadratic recurrence; frozen
# here so a regression in either route is caught.
MAGNITUDES_12 = [
    1,
    1,
    4,
    27,
    248,
    2830,
    38232,
    593859,
    10401712,
    202601898,
    4342263000,
    101551822350,
]


def lagrange_inversion_coefficients(order: int) -> list[int]:
    """Third route: coefficients via the Lagrange inversion formula.

    With S(u) = sum_m (-1)^m (2m-1)!! u^(2m+1), the reverse series
    w = S^{-1} has [x^n] w = (1/n) [u^(n-1)] (u / S(u))^n.  The
    reverse of an integer series with unit linear term is an integer
    series, so the division by n must leave no remainder.
    """
    L = 2 * order + 1
    base = series_reciprocal(moment_series(order)[1:], L)  # u / S(u)
    w = [0] * (L + 1)
    power = [1] + [0] * L
    for n in range(1, L + 1):
        power = series_mul(power, base, L)
        w[n], remainder = divmod(power[n - 1], n)
        assert remainder == 0, n

    # F(x) = x / w(x) - 1.
    lam = series_reciprocal(w[1:], 2 * order)
    lam[0] -= 1
    return [lam[2 * n] for n in range(1, order + 1)]


class TestGaussianMoments:
    def test_values(self):
        assert gaussian_moment_series(5) == [1, 1, 3, 15, 105, 945]

    def test_against_quadrature(self):
        # (2m-1)!! is the 2m-th moment of the unit Gaussian.
        for m in range(6):
            value, _ = quad(
                lambda v, m=m: v ** (2 * m)
                * math.exp(-0.5 * v * v)
                / math.sqrt(2.0 * math.pi),
                -14,
                14,
                limit=200,
                epsrel=1e-13,
            )
            assert value == pytest.approx(gaussian_moment_series(m)[m], rel=1e-12)

    def test_rejects_negative(self):
        for n in (-1, 2.5, MAX_ORDER + 1):
            with pytest.raises(ValueError, match="moment count must be in 0..200"):
                gaussian_moment_series(n)


class TestRecurrence:
    def test_first_terms(self):
        assert a000699(12) == MAGNITUDES_12

    def test_rejects_bad_order(self):
        for order in (0, -1, 201, 3.9):
            with pytest.raises(ValueError, match="order must be in 1..200"):
                a000699(order)


class TestCeCoefficients:
    def test_low_orders(self):
        assert ce_coefficients(1).coefficients == (-1,)
        assert ce_coefficients(4).coefficients == (-1, 1, -4, 27)
        assert ce_coefficients(5).coefficients == (-1, 1, -4, 27, -248)

    def test_magnitudes_match_recurrence(self, series30):
        reference = a000699(30)
        assert [abs(c) for c in series30.coefficients] == reference

    def test_signs_alternate(self, series30):
        for n, c in enumerate(series30.coefficients, start=1):
            assert (c < 0) == (n % 2 == 1)

    def test_magnitudes_strictly_increase_from_two(self, series30):
        mags = [abs(c) for c in series30.coefficients]
        assert all(a < b for a, b in zip(mags[1:], mags[2:]))

    def test_matches_lagrange_inversion(self):
        assert list(ce_coefficients(10).coefficients) == (
            lagrange_inversion_coefficients(10)
        )

    @pytest.mark.parametrize("order", [1, 2, 10, 30, 60])
    def test_matches_newton_reversion(self, order):
        assert ce_coefficients(order).coefficients == newton_oracle(order)

    def test_series_parity_and_integrality(self):
        lam = branch_series_by_newton(6)
        assert lam[0] == 0
        assert all(lam[m] == 0 for m in range(1, 13, 2))
        assert all(isinstance(c, int) for c in lam)
        assert [lam[2 * n] for n in range(1, 7)] == [-1, 1, -4, 27, -248, 2830]

    def test_reversion_self_consistency(self):
        # Rebuild the reverse series w from the production F and compose
        # the moment series S with it: must give the identity exactly.
        order = 8
        L = 2 * order + 1
        one_plus = [1] + [0] * (2 * order)
        for n, c in enumerate(ce_coefficients(order).coefficients, start=1):
            one_plus[2 * n] += c
        # F = 1/W - 1 => W = 1/(1 + F), w = x W.
        w = [0] + series_reciprocal(one_plus, 2 * order)
        s_odd = moment_series(order)[1::2]
        identity = series_mul(series_in_square(s_odd, w, L), w, L)
        assert identity == [0, 1] + [0] * (L - 1)

    def test_agrees_with_exact_branch_at_small_x(self):
        # Low truncations bound the exact branch: |F(x) - T_N(x)| <=
        # 10 x^(2N+2) at x = 0.01 for N = 1, 2 (|c_{N+1}| <= 10 there;
        # higher orders need the growing constant |c_{N+1}| instead).
        x = 0.01
        series = ce_coefficients(3)
        exact = scaled_eigenvalue(x)
        for order in (1, 2):
            t = sum(
                series.coefficients[n - 1] * x ** (2 * n)
                for n in range(1, order + 1)
            )
            assert abs(exact - t) <= 10.0 * x ** (2 * order + 2)

    def test_rejects_bad_order(self):
        # 10**5000 is past CPython's 4300-digit limit for printing an int.
        for order in (0, -2, 201, 2.5, math.inf, 10**5000):
            with pytest.raises(ValueError, match="order must be in 1..200"):
                ce_coefficients(order)


class TestDivergenceDiagnostics:
    def test_root_tests_increase(self, series30):
        report = divergence_diagnostics(series30)
        tail = report.root_tests[4:]
        assert all(b > a for a, b in zip(tail, tail[1:]))
        assert report.root_test_increasing
        assert report.root_tests[-1] > 3.0

    def test_ratio_band_is_order_one(self, series30):
        report = divergence_diagnostics(series30)
        low, high = report.ratio_band
        assert 0.05 <= low <= high <= 5.0
        # Recorded band for order 30 (documentation value, not asserted
        # tightly): [0.3094, 0.3517].
        assert low == pytest.approx(0.3094438688246738, rel=1e-12)
        assert high == pytest.approx(0.3516138414377318, rel=1e-12)

    def test_radius_estimate(self, series30):
        report = divergence_diagnostics(series30)
        assert report.radius_estimate == 1.0 / max(report.root_tests)
        assert report.radius_estimate < 0.25

    def test_short_series_has_no_band(self):
        report = divergence_diagnostics(ce_coefficients(6))
        assert report.ratio_band is None

    def test_root_tests_beyond_double_range(self):
        # |c_n| exceeds the largest double from n = 151 on.
        series = ce_coefficients(200)
        magnitudes = a000699(200)
        assert [abs(c) for c in series.coefficients] == magnitudes
        assert float(magnitudes[149]) < math.inf
        with pytest.raises(OverflowError):
            float(magnitudes[150])
        report = divergence_diagnostics(series)
        assert all(math.isfinite(r) for r in report.root_tests)
        assert report.root_test_increasing
        for n, (a, r) in enumerate(zip(magnitudes, report.root_tests), start=1):
            assert r == pytest.approx(math.exp(math.log(a) / (2 * n)), rel=1e-12), n


def test_mul_trunc_matches_schoolbook():
    assert series_mul([1, 2, 3], [-1, 4], 3) == [-1, 2, 5, 12]
    assert series_mul([1, 2, 3], [-1, 4], 1) == [-1, 2]


def test_series_reciprocal_inverts_exactly():
    a = [-1, 3, 0, -7, 2]
    assert series_mul(a, series_reciprocal(a, 6), 6) == [1, 0, 0, 0, 0, 0, 0]
    with pytest.raises(ValueError):
        series_reciprocal([2, 1], 3)
