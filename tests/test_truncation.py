"""Truncation evaluation, stability classification, comparison."""

import decimal
import math
from fractions import Fraction

import numpy as np
import pytest

from slowmode import (
    CRITICAL_COUPLING,
    CeSeries,
    SelfCheckError,
    ce_coefficients,
    classify_stability,
    cli,
    compare_to_exact,
    dispersion,
    eval_truncation,
    scaled_eigenvalue,
)
from slowmode.ceseries import MAX_ORDER
from slowmode.truncation import _CAUCHY_BOUND

from conftest import scan_classify_stability


@pytest.fixture(scope="module")
def series10():
    return ce_coefficients(10)


class TestEvalTruncation:
    def test_exact_rational_points(self, series10):
        # T_1(x) = -x^2 and T_2(x) = -x^2 + x^4 are exact in binary
        # floating point at these arguments.
        assert eval_truncation(series10, 1, 0.5) == -0.25
        assert eval_truncation(series10, 2, 1.0) == 0.0
        assert eval_truncation(series10, 2, 0.5) == -0.1875

    def test_zero_argument(self, series10):
        for order in range(1, 11):
            value = eval_truncation(series10, order, 0.0)
            assert value == 0.0
            assert not math.copysign(1.0, value) < 0.0  # normalized, not -0.0

    def test_reference_partial_sum(self, series10):
        assert eval_truncation(series10, 4, 0.1) == pytest.approx(
            -0.00990373, abs=1e-8
        )

    def test_against_naive_summation(self, series10):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.uniform(0.0, 1.5)
            order = int(rng.integers(1, 11))
            naive = sum(
                series10.coefficients[n - 1] * x ** (2 * n)
                for n in range(1, order + 1)
            )
            assert eval_truncation(series10, order, x) == pytest.approx(
                naive, rel=1e-12, abs=1e-15
            )

    def test_rejects_bad_input(self, series10):
        with pytest.raises(ValueError):
            eval_truncation(series10, 0, 0.5)
        with pytest.raises(ValueError):
            eval_truncation(series10, 11, 0.5)
        with pytest.raises(ValueError):
            eval_truncation(series10, 2, math.nan)
        with pytest.raises(ValueError, match="truncation order must be in 1..10"):
            eval_truncation(series10, 2.5, 0.5)
        with pytest.raises(ValueError, match="truncation order must be in 1..10"):
            classify_stability(series10, 2.5)

    def test_rejects_order_beyond_double_range(self):
        # c_151 is the first coefficient no double can hold; c_150 is
        # the last that converts.
        series = ce_coefficients(151)
        assert math.isfinite(eval_truncation(series, 150, 0.1))
        with pytest.raises(ValueError, match="order 151"):
            eval_truncation(series, 151, 0.1)
        with pytest.raises(ValueError, match="order 151"):
            classify_stability(series, 151)

    def test_rejects_overflowing_result(self):
        # T_140 leaves the double range just below sqrt(pi/2); T_139 and
        # T_140 at a smaller x stay finite.
        series = ce_coefficients(140)
        x = 0.995 * CRITICAL_COUPLING
        assert math.isfinite(eval_truncation(series, 139, x))
        assert math.isfinite(eval_truncation(series, 140, 1.0))
        with pytest.raises(ValueError, match=r"order 140 .* x = 1\.247"):
            eval_truncation(series, 140, x)
        with pytest.raises(ValueError, match="order 140"):
            compare_to_exact([0.5, x], [139, 140], series=series)


def scan_sign_change(series, order: int) -> float | None:
    """Brute-force oracle: first sign change of T_order on (0, 4]."""
    previous = -1.0
    for i in range(1, 400_001):
        x = 4.0 * i / 400_000
        value = eval_truncation(series, order, x)
        if value == 0.0 or (value > 0.0) != (previous > 0.0):
            lo, hi = x - 1e-5, x
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if eval_truncation(series, order, mid) < 0.0:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
        previous = value
    return None


class TestClassifyStability:
    def test_first_order_is_stable(self, series10):
        report = classify_stability(series10, 1)
        assert report.stable
        assert report.sign_change_x is None
        assert report.precedes_criticality is None

    def test_second_order_root_is_exactly_one(self, series10):
        report = classify_stability(series10, 2)
        assert not report.stable
        assert report.sign_change_x == 1.0
        assert report.precedes_criticality

    def test_third_order_is_stable(self, series10):
        assert classify_stability(series10, 3).stable

    def test_parity_rule(self):
        # Sign of the leading coefficient decides: odd orders end on a
        # negative coefficient and stay negative, even orders cross.
        # Every order whose coefficients are doubles: 1..150.
        series = ce_coefficients(150)
        for order in range(1, 151):
            report = classify_stability(series, order)
            assert report.stable == (order % 2 == 1), order

    def test_scan_window_covers_cauchy_bound(self):
        # Every root t of U_N satisfies |t| < 1 + max_{n<N} |c_n| / |c_N|
        # (Cauchy), so [0, 2] brackets the one root of an even order, and
        # U(2) has the sign of c_N, iff that bound stays within 2 for
        # every order.  Checked in exact integers.
        magnitudes = [abs(c) for c in ce_coefficients(MAX_ORDER).coefficients]
        upper = Fraction(_CAUCHY_BOUND)
        largest_below = 0
        bounds = []
        for c_n in magnitudes:
            bound = 1 + Fraction(largest_below, c_n)
            assert bound <= upper, (len(bounds) + 1, float(bound))
            bounds.append(bound)
            largest_below = max(largest_below, c_n)
        # The window is tight: T_2(x) = -x^2 + x^4 sets the worst bound.
        assert max(bounds) == bounds[1] == 2

    def test_unstable_roots_precede_criticality(self):
        # Every even order up to 150 changes sign at x <= 1, below
        # sqrt(pi/2), and from 151 on c_N exceeds the double range and
        # the order is refused: no truncation turns positive only past
        # the critical point.
        series = ce_coefficients(150)
        for order in range(2, 151, 2):
            report = classify_stability(series, order)
            assert report.sign_change_x <= 1.0 < CRITICAL_COUPLING
            assert report.precedes_criticality

    def test_roots_decrease_with_order(self, series10):
        roots = [
            classify_stability(series10, order).sign_change_x
            for order in (2, 4, 6, 8, 10)
        ]
        assert all(a > b for a, b in zip(roots, roots[1:]))

    def test_root_residuals(self, series10):
        for order in (2, 4, 6, 8, 10):
            root = classify_stability(series10, order).sign_change_x
            assert abs(eval_truncation(series10, order, root)) <= 1e-12

    def test_against_brute_force_scan(self, series10):
        for order in (2, 4, 6):
            report = classify_stability(series10, order)
            reference = scan_sign_change(series10, order)
            assert report.sign_change_x == pytest.approx(reference, abs=1e-9)

    def test_fourth_order_root_value(self, series10):
        # Frozen from an independent fine scan of -1 + t - 4 t^2 + 27 t^3.
        report = classify_stability(series10, 4)
        assert report.sign_change_x == pytest.approx(0.5897591328251566, abs=1e-12)

    def test_matches_scan_oracle(self):
        # The scan-and-bisect the parity rule replaced, kept in conftest:
        # same verdict and the same root bit for bit at every order whose
        # coefficients are doubles.
        series = ce_coefficients(150)
        for order in range(1, 151):
            assert classify_stability(series, order) == scan_classify_stability(series, order), order


#: A series that breaks the bracket: c_4 > 0 but U(2) = -1 + 2 - 1600 + 216 < 0.
BROKEN_BRACKET = CeSeries(4, (-1, 1, -400, 27))


class TestSelfCheck:
    def test_bracket_failure_raises(self):
        with pytest.raises(SelfCheckError, match=r"order 4: U\(2\) = -1383\.0"):
            classify_stability(BROKEN_BRACKET, 4)

    def test_bracket_failure_exits_4(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "ce_coefficients", lambda order: BROKEN_BRACKET)
        assert cli.main(["compare", "--orders", "4", "--points", "2"]) == 4
        assert "self-check failure" in capsys.readouterr().err


def s_fraction_coefficients(moments: list[int], digits: int) -> list[decimal.Decimal]:
    """Coefficients a_1, a_2, ... of the S-fraction
    sum_n moments[n] (-z)^n = moments[0] / (1 + a_1 z / (1 + a_2 z / (1 + ...))),
    by Rutishauser's qd algorithm in ``digits``-digit decimal arithmetic:
    a_(2j-1) = q_j^(0) and a_(2j) = e_j^(0).  M moments give M - 1
    coefficients."""
    with decimal.localcontext() as context:
        context.prec = digits
        mu = [decimal.Decimal(m) for m in moments]
        q = [mu[k + 1] / mu[k] for k in range(len(mu) - 1)]
        e = [decimal.Decimal(0)] * len(mu)
        coefficients = []
        while q:
            coefficients.append(q[0])
            e = [q[k + 1] - q[k] + e[k + 1] for k in range(len(q) - 1)]
            if not e:
                break
            coefficients.append(e[0])
            q = [q[k + 1] * e[k + 1] / e[k] for k in range(len(e) - 1)]
    return coefficients


def hankel_pivots(moments: list[int], size: int) -> list[Fraction]:
    """Pivots of Gaussian elimination, without row exchanges, of the
    Hankel matrix [moments[i + j]] of order ``size``, in exact Fractions:
    the determinant H_k of the leading k-by-k block is the product of the
    first k pivots."""
    rows = [[Fraction(moments[i + j]) for j in range(size)] for i in range(size)]
    pivots = []
    for k in range(size):
        pivot = rows[k][k]
        pivots.append(pivot)
        for row in rows[k + 1 :]:
            factor = row[k] / pivot
            for j in range(k, size):
                row[j] -= factor * rows[k][j]
    return pivots


class TestStieltjesPremise:
    # The parity rule and the one-root bisection rest on mu_n = |c_(n+1)|
    # being moments of a positive measure on [0, inf).

    def test_s_fraction_coefficients_are_positive(self):
        moments = [abs(c) for c in ce_coefficients(MAX_ORDER).coefficients]
        coefficients = s_fraction_coefficients(moments, 700)
        # Positive coefficients make the 199th convergent a Stieltjes
        # function whose expansion carries mu_0..mu_198.
        assert len(coefficients) == 199
        assert all(a > 0 for a in coefficients)
        assert [float(a) for a in coefficients[:4]] == [1.0, 3.0, 11 / 3, 167 / 33]
        assert float(coefficients[-1]) / 199 == pytest.approx(1.0046, abs=1e-4)

    def test_hankel_determinants_are_positive(self):
        # H_k^(0) = det[mu_(i+j)] and H_k^(1) = det[mu_(i+j+1)], k <= 15:
        # every leading pivot positive makes every leading minor positive.
        moments = [abs(c) for c in ce_coefficients(30).coefficients]
        for shift in (0, 1):
            pivots = hankel_pivots(moments[shift:], 15)
            assert all(p > 0 for p in pivots), shift


class TestCompareToExact:
    def test_excludes_supercritical(self, series10):
        comparison = compare_to_exact([0.0, 0.5, 1.3, 2.0], [1, 2], series=series10)
        assert comparison.x == (0.0, 0.5)
        assert comparison.excluded == (1.3, 2.0)

    def test_solves_through_the_one_branch_loop(self, series10, monkeypatch):
        # sample_branch is the one grid loop: each x is one branch_point call.
        calls = []
        original = dispersion.branch_point

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(dispersion, "branch_point", counting)
        comparison = compare_to_exact([0.1, 0.5, 2.0], [1], series=series10)
        assert len(calls) == 3
        assert comparison.excluded == (2.0,)

    def test_exact_column_matches_solver(self, series10):
        xs = np.linspace(0.0, CRITICAL_COUPLING, 20, endpoint=False)
        comparison = compare_to_exact(xs, [1], series=series10)
        for x, value in zip(comparison.x, comparison.exact):
            assert value == scaled_eigenvalue(x)

    def test_origin_window_errors_shrink_with_order(self, series10):
        # On x <= 0.1 each added order helps (the asymptotic regime).
        xs = np.linspace(0.0, 0.1, 11)
        comparison = compare_to_exact(xs, [1, 2, 3, 4], series=series10)
        sups = [
            max(
                abs(t - e)
                for t, e in zip(comparison.truncations[order], comparison.exact)
            )
            for order in (1, 2, 3, 4)
        ]
        assert all(a > b for a, b in zip(sups, sups[1:]))

    def test_near_critical_errors_dominate_origin_errors(self, series10):
        xs = np.linspace(0.0, CRITICAL_COUPLING, 200, endpoint=False)
        comparison = compare_to_exact(xs, [1, 2, 3, 4], series=series10)
        for order in (1, 2, 3, 4):
            origin = comparison.sup_error_origin[order]
            near = comparison.sup_error_critical[order]
            assert near is not None and origin is not None
            assert near > 10.0 * origin

    def test_sup_error_windows_match_manual(self, series10):
        xs = np.linspace(0.0, CRITICAL_COUPLING, 50, endpoint=False)
        comparison = compare_to_exact(xs, [2], series=series10)
        manual_origin = max(
            abs(comparison.truncations[2][i] - comparison.exact[i])
            for i, x in enumerate(comparison.x)
            if x <= 0.5
        )
        assert comparison.sup_error_origin[2] == manual_origin

    def test_rejects_bad_input(self, series10):
        with pytest.raises(ValueError):
            compare_to_exact([0.1], [], series=series10)
        with pytest.raises(ValueError):
            compare_to_exact([-0.1], [1], series=series10)
        with pytest.raises(ValueError):
            compare_to_exact([0.1], [11], series=series10)
        for order in (2.5, math.inf):
            with pytest.raises(ValueError, match="truncation order must be in 1..10"):
                compare_to_exact([0.3], [order], series=series10)
