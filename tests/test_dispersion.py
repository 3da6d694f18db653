"""Slow decay branch: critical wave number, solver, scaling law."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

import slowmode
from conftest import erfcx_quadrature, phi_root_mp, plasma_z
from slowmode import (
    CRITICAL_COUPLING,
    SelfCheckError,
    branch_point,
    ce_coefficients,
    compare_to_exact,
    critical_wave_number,
    sample_branch,
    scaled_eigenvalue,
    solve_diffusion_mode,
)
from slowmode import cli, dispersion
from slowmode.special import solve_phi


def solve_mode_quadrature(k: float, tau: float) -> float:
    """Test-local dispersion solve built only on the quadrature erfcx."""

    def profile(y: float) -> float:
        return math.sqrt(0.5 * math.pi) * erfcx_quadrature(y / math.sqrt(2.0))

    c = tau * k
    upper = 2.0 / c
    y = brentq(lambda v: profile(v) - c, 1e-12, upper, xtol=1e-13, rtol=1e-14)
    return (c * y - 1.0) / tau


class TestCriticalWaveNumber:
    def test_value(self):
        assert critical_wave_number(1.0) == CRITICAL_COUPLING
        assert CRITICAL_COUPLING == pytest.approx(math.sqrt(math.pi / 2.0), abs=0.0)

    def test_tau_scaling_exact_for_binary_factors(self):
        assert critical_wave_number(2.0) == CRITICAL_COUPLING / 2.0
        assert critical_wave_number(0.5) == CRITICAL_COUPLING * 2.0

    def test_tau_scaling_general(self):
        for tau in (0.3, 3.0, 7.7):
            assert critical_wave_number(tau) * tau == pytest.approx(
                CRITICAL_COUPLING, rel=4e-16
            )

    def test_equals_phi_at_zero(self):
        assert slowmode.phi(0.0) == CRITICAL_COUPLING

    def test_rejects_bad_tau(self):
        for tau in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                critical_wave_number(tau)


class TestScaledEigenvalue:
    def test_at_zero(self):
        assert scaled_eigenvalue(0.0) == 0.0

    def test_supercritical_raises(self):
        with pytest.raises(ValueError, match="supercritical"):
            scaled_eigenvalue(CRITICAL_COUPLING)
        with pytest.raises(ValueError, match="supercritical"):
            scaled_eigenvalue(2.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            scaled_eigenvalue(-0.1)

    def test_range(self):
        for x in np.linspace(1e-3, CRITICAL_COUPLING - 1e-9, 50):
            value = scaled_eigenvalue(float(x))
            assert -1.0 < value < 0.0

    def test_near_critical_limit(self):
        # As x -> sqrt(pi/2) from below, y -> 0 and F -> -1.
        value = scaled_eigenvalue(CRITICAL_COUPLING - 1e-6)
        assert -1.0 < value < -1.0 + 3e-6

    def test_small_x_reference_value(self):
        # Low-order expansion gives F(0.1) = -0.00990373 to the digits shown.
        assert scaled_eigenvalue(0.1) == pytest.approx(-0.00990373, abs=1e-6)

    def test_matches_truncated_expansion_at_small_x(self):
        # |F(x) - T_5(x)| is governed by the next coefficient, 2830 x^12.
        x = 0.1
        coeffs = (-1, 1, -4, 27, -248)
        partial = sum(c * x ** (2 * n) for n, c in enumerate(coeffs, start=1))
        assert abs(scaled_eigenvalue(x) - partial) <= 1e-8

    @given(
        st.floats(1e-3, CRITICAL_COUPLING, exclude_max=True),
        st.floats(1e-3, CRITICAL_COUPLING, exclude_max=True),
    )
    def test_bounded_and_decreasing(self, a, b):
        # The step x1 (1 + 1e-6) stays far above the solver's precision.
        x1, x2 = sorted((a, b))
        f1, f2 = scaled_eigenvalue(x1), scaled_eigenvalue(x2)
        assert -1.0 < f1 < 0.0 and -1.0 < f2 < 0.0
        if x2 >= x1 * (1.0 + 1e-6):
            assert f2 < f1


class TestSolveDiffusionMode:
    def test_at_zero_wave_number(self):
        assert solve_diffusion_mode(0.0, 1.0) == 0.0

    def test_supercritical_returns_none(self):
        assert solve_diffusion_mode(1.3, 1.0) is None
        assert solve_diffusion_mode(critical_wave_number(2.0), 2.0) is None

    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    def test_existence_boundary(self, tau):
        exists = solve_diffusion_mode((CRITICAL_COUPLING - 1e-6) / tau, tau)
        gone = solve_diffusion_mode((CRITICAL_COUPLING + 1e-6) / tau, tau)
        assert exists is not None and -1.0 / tau < exists < 0.0
        assert gone is None

    def test_against_quadrature_bisection(self):
        for k, tau in ((0.1, 1.0), (0.5, 1.0), (0.3, 2.0), (1.6, 0.5)):
            value = solve_diffusion_mode(k, tau)
            reference = solve_mode_quadrature(k, tau)
            assert value == pytest.approx(reference, rel=1e-9), (k, tau)

    def test_coupling_invariance(self):
        # tau * lambda_d depends only on tau k.
        pairs = ((0.5, 1.6), (1.0, 0.8), (2.0, 0.4), (4.0, 0.2), (0.1, 8.0))
        values = [tau * solve_diffusion_mode(k, tau) for tau, k in pairs]
        assert max(values) - min(values) <= 1e-12

    def test_consistent_with_scaled_branch(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            tau = rng.uniform(0.3, 3.0)
            x = rng.uniform(0.05, CRITICAL_COUPLING - 1e-3)
            lam = solve_diffusion_mode(x / tau, tau)
            assert tau * lam == pytest.approx(scaled_eigenvalue(x), rel=1e-13)

    @given(
        st.floats(-100.0, 100.0),
        st.floats(1e-3, CRITICAL_COUPLING, exclude_max=True),
    )
    def test_scaling_law_to_two_ulps(self, exponent, x):
        tau = 10.0**exponent
        k = x / tau
        rate = solve_diffusion_mode(k, tau)
        if tau * k >= CRITICAL_COUPLING:  # x / tau * tau rounded up to x_c
            assert rate is None
        else:
            scaled = scaled_eigenvalue(tau * k)
            assert abs(tau * rate - scaled) <= 2 * math.ulp(scaled)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            solve_diffusion_mode(-0.1, 1.0)
        with pytest.raises(ValueError):
            solve_diffusion_mode(0.1, 0.0)
        with pytest.raises(ValueError):
            solve_diffusion_mode(math.nan, 1.0)


class TestScaledEigenvalueAccuracy:
    @pytest.mark.parametrize(
        "xs, bound",
        [
            ([0.1 + (CRITICAL_COUPLING - 0.1) * i / 150 for i in range(150)], 2.5e-13),
            # F = x y - 1 cancels here (y ~ 1/x), which sets the bound.
            ([1e-3 * 100.0 ** (i / 150) for i in range(150)], 5e-10),
        ],
        ids=["uniform-0.1-to-critical", "geometric-1e-3-to-0.1"],
    )
    def test_relative_error_against_mpmath(self, xs, bound):
        worst = 0.0
        for x in xs:
            value = scaled_eigenvalue(x)
            root = phi_root_mp(x, (value + 1.0) / x)
            with mpmath.workdps(50):
                exact = x * root - 1
                worst = max(worst, float(abs((value - exact) / exact)))
        assert worst <= bound

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: F = x y - 1 cancels for small x, "
        "and F(5e-9) is exactly 0.0",
    )
    @pytest.mark.parametrize("x", [5e-9, 1e-8, 1e-6])
    def test_small_x_matches_leading_series(self, x):
        # -x^2 + x^4 is exact here to 4 x^4 relative: the next term is -4 x^6.
        value = scaled_eigenvalue(x)
        series = -(x**2) + x**4
        assert value < 0.0
        assert abs(value - series) <= 1e-12 * abs(series)


class TestBranchPoint:
    def test_at_zero_wave_number(self):
        point = branch_point(0.0, 2.0)
        assert point.eigenvalue == 0.0
        assert point.residual == 0.0
        assert not point.near_critical

    def test_supercritical_returns_none(self):
        assert branch_point(2.0, 1.0) is None

    def test_tiny_scaled_wave_numbers(self):
        # tau*k underflows to 0: the origin of the branch, at the caller's k.
        point = branch_point(5e-324, 1e-12)
        assert point.k == 5e-324
        assert (point.eigenvalue, point.residual, point.iterations) == (0.0, 0.0, 0)
        # Subnormal tau*k: refused by name instead of overflowing the
        # solver's bracket 1/(tau*k) - tau*k.
        for call in (
            lambda: branch_point(1e-310, 1.0),
            lambda: scaled_eigenvalue(1e-310),
            lambda: solve_diffusion_mode(5e-324, 1.0),
        ):
            with pytest.raises(ValueError, match=r"tau\*k = .* is subnormal"):
                call()
        smallest = 2.2250738585072014e-308
        assert -1e-15 < branch_point(smallest, 1.0).eigenvalue <= 0.0

    def test_residual_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(80):
            tau = rng.uniform(0.3, 3.0)
            x = rng.uniform(0.05, CRITICAL_COUPLING - 1e-3)
            point = branch_point(x / tau, tau)
            assert point.residual <= 1e-10

    def test_bracket_width(self):
        for x in (1e-4, 1e-2, 0.1, 0.8, 1.2, CRITICAL_COUPLING - 1e-9):
            point = branch_point(x, 1.0)
            y = (point.eigenvalue + 1.0) / x
            # 1e-14 is unreachable below double resolution at large y.
            assert point.bracket_width <= max(1e-14, 4.5e-16 * y)

    def test_residual_is_the_plasma_z_defect(self):
        # Reusing the solver's phi(y) must give exactly the documented
        # |phi(y) - tau k|, which is |Z(iy) - i tau k| from the oracle,
        # at the solver's y, including both ends of the
        # domain: y -> 0 near critical, and the bracket at resolution.
        xs = [CRITICAL_COUPLING * (i + 0.5) / 2000 for i in range(2000)]
        xs += [1e-4 * 10.0 ** (i / 25) for i in range(100)]
        xs += [CRITICAL_COUPLING - 1e-9, 1e-5]
        for x in xs:
            for tau in (1.0, 0.7):
                k = x / tau
                point = branch_point(k, tau)
                if point is None:  # x / tau * tau rounded up to x_c
                    continue
                y = solve_phi(tau * k)[0]
                defect = abs(plasma_z(complex(0.0, y)) - complex(0.0, tau * k))
                assert point.residual == defect, (k, tau)

    @pytest.mark.parametrize("known", [False, True], ids=["phi-unknown", "phi-known"])
    def test_off_root_solver_fails_self_check(self, monkeypatch, capsys, known):
        # The residual check must catch a wrong root whether or not the
        # solver hands back phi at the y it returns.
        def off_root(c):
            y, width, passes, _ = solve_phi(c)
            y += 0.01
            return y, width, passes, (slowmode.phi(y) if known else None)

        monkeypatch.setattr(dispersion, "solve_phi", off_root)
        # Every caller of the branch solve gets the check; k = 0 is the
        # origin and never reaches the solver, so each call uses k > 0.
        for solve in (
            lambda: branch_point(0.5, 1.0),
            lambda: scaled_eigenvalue(0.5),
            lambda: solve_diffusion_mode(0.5),
            lambda: compare_to_exact([0.5], [1], ce_coefficients(1)),
        ):
            with pytest.raises(SelfCheckError, match="left residual"):
                solve()
        for argv in (
            ["branch", "--points", "3"],
            ["compare", "--points", "3"],
            ["simulate", "--points", "1", "--kmin", "0.5", "--velocities", "8"],
        ):
            assert cli.main(argv) == 4, argv
            assert "self-check failure" in capsys.readouterr().err, argv

    def test_near_critical_flag(self):
        assert branch_point(CRITICAL_COUPLING - 1e-9, 1.0).near_critical
        assert not branch_point(CRITICAL_COUPLING - 1e-6, 1.0).near_critical


class TestSampleBranch:
    def test_monotone_decreasing_eigenvalues(self):
        grid = np.linspace(0.0, CRITICAL_COUPLING - 1e-6, 50)
        table = sample_branch(1.0, grid)
        values = [p.eigenvalue for p in table.points]
        assert len(values) == 50
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_excluded_wave_numbers(self):
        table = sample_branch(1.0, [0.0, 0.5, 1.3, 2.0])
        assert [p.k for p in table.points] == [0.0, 0.5]
        assert table.excluded == [1.3, 2.0]
        assert table.critical_k == CRITICAL_COUPLING

    def test_all_supercritical(self):
        table = sample_branch(1.0, [1.3, 1.4])
        assert table.points == []
        assert table.excluded == [1.3, 1.4]

    def test_eigenvalue_range(self):
        table = sample_branch(0.7, np.linspace(0.0, critical_wave_number(0.7), 30, endpoint=False))
        for point in table.points:
            assert -1.0 / 0.7 < point.eigenvalue <= 0.0
            assert (point.eigenvalue == 0.0) == (point.k == 0.0)
