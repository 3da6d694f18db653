"""Special-function layer: Faddeeva, erfcx, plasma Z, and phi."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from conftest import (
    FADDEEVA_REFERENCE_POINTS,
    erfcx_quadrature,
    faddeeva_quadrature,
)
from slowmode import erfcx, faddeeva, phi, plasma_z, plasma_z_deriv

SQRT_HALF_PI = math.sqrt(0.5 * math.pi)


def faddeeva_mp(z: complex) -> complex:
    """Multiprecision reference w(z) = exp(-z^2) erfc(-iz)."""
    with mpmath.workdps(30):
        zz = mpmath.mpc(z.real, z.imag)
        return complex(mpmath.exp(-zz * zz) * mpmath.erfc(-1j * zz))


class TestFaddeeva:
    def test_at_zero(self):
        assert faddeeva(0j) == 1.0 + 0j

    def test_matches_quadrature_oracle(self):
        for z in FADDEEVA_REFERENCE_POINTS:
            reference = faddeeva_quadrature(z)
            value = faddeeva(z)
            assert abs(value - reference) <= 1e-10 * abs(reference), z

    def test_matches_multiprecision_near_real_axis(self):
        # The quadrature oracle cannot resolve Im z << 1; use the
        # multiprecision route for the band the quadrature misses.
        for x in np.linspace(0.0, 10.0, 26):
            for y in (1e-8, 1e-4, 0.01, 0.3, 0.99, 1.01):
                z = complex(x, y)
                reference = faddeeva_mp(z)
                assert abs(faddeeva(z) - reference) <= 2e-12 * abs(reference), z

    def test_imaginary_axis_reduces_to_erfcx(self):
        for y in (0.1, 1.0, 2.5, 5.0, 20.0):
            w = faddeeva(complex(0.0, y))
            assert w.imag == pytest.approx(0.0, abs=1e-15)
            assert w.real == pytest.approx(erfcx(y), rel=1e-13)

    def test_mirror_symmetry(self):
        # w(-conj(z)) = conj(w(z)), in every half-plane.
        for z in (1 + 1j, 2 - 0.5j, -3 + 2j, -1 - 1j, 0.5 - 2j, 7.5 + 0.3j):
            lhs = faddeeva(complex(-z.real, z.imag))
            rhs = faddeeva(z).conjugate()
            assert abs(lhs - rhs) <= 1e-13 * abs(rhs), z

    def test_lower_half_plane_matches_multiprecision(self):
        for z in (1.0 - 0.5j, 0.3 - 2.0j, -2.0 - 1.0j, 5.0 - 0.2j, 0.0 - 3.0j):
            reference = faddeeva_mp(z)
            assert abs(faddeeva(z) - reference) <= 1e-11 * abs(reference), z

    def test_no_spurious_values_on_wide_grid(self):
        rng = np.random.default_rng(101)
        for _ in range(500):
            z = complex(rng.uniform(-15, 15), rng.uniform(-2, 15))
            w = faddeeva(z)
            assert math.isfinite(w.real) and math.isfinite(w.imag), z

    def test_deep_lower_half_plane_overflows(self):
        with pytest.raises(OverflowError):
            faddeeva(complex(0.0, -40.0))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            faddeeva(complex(math.nan, 0.0))
        with pytest.raises(ValueError):
            faddeeva(complex(0.0, math.inf))


class TestErfcx:
    def test_at_zero(self):
        assert erfcx(0.0) == 1.0

    def test_matches_quadrature_oracle(self):
        for y in (
            0.01, 0.1, 0.3, 0.5, 1.0, 2.0, 5.0, 10.0,
            24.9, 25.1, 30.0, 40.0, 100.0, 1e4,
        ):
            reference = erfcx_quadrature(y)
            assert erfcx(y) == pytest.approx(reference, rel=1e-13), y

    def test_strictly_decreasing(self):
        ys = np.linspace(0.0, 30.0, 301)
        values = [erfcx(float(y)) for y in ys]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_large_argument_tail(self):
        # erfcx(y) ~ 1/(y sqrt(pi)): the product deviates from 1 by
        # ~1/(2 y^2), which is 2e-4 at y = 50.
        assert abs(erfcx(50.0) * 50.0 * math.sqrt(math.pi) - 1.0) < 2e-4

    def test_continuous_across_algorithm_switch(self):
        # erfcx'(25) = 50 erfcx(25) - 2/sqrt(pi) = -9.006e-4, so the true
        # value changes by ~1.8e-12 across this 2e-9 interval; anything
        # beyond that margin would be an algorithm-switch jump.
        below = erfcx(25.0 - 1e-9)
        above = erfcx(25.0 + 1e-9)
        assert below > above
        assert abs(below - above) <= 4e-12

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            erfcx(-0.5)
        with pytest.raises(ValueError):
            erfcx(math.nan)


class TestPlasmaZ:
    def test_at_zero(self):
        value = plasma_z(0j)
        assert value.real == 0.0
        assert abs(value.imag - SQRT_HALF_PI) <= 1e-14

    def test_equals_scaled_faddeeva(self):
        # The two evaluations scale the argument differently by one ulp
        # (zeta * sqrt(0.5) inside versus zeta / sqrt(2) here), which
        # resamples the summation roundoff of the kernel; agreement is
        # therefore expected at the kernel accuracy (~1e-13), not bitwise.
        rng = np.random.default_rng(7)
        for _ in range(200):
            zeta = complex(rng.uniform(-6, 6), rng.uniform(0.05, 6))
            expected = 1j * SQRT_HALF_PI * faddeeva(zeta / math.sqrt(2.0))
            assert abs(plasma_z(zeta) - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_imaginary_axis_is_purely_imaginary(self):
        for y in (0.0, 0.3, 1.0, 4.0, 10.0, 30.0):
            value = plasma_z(complex(0.0, y))
            assert value.real == 0.0
            assert value.imag == pytest.approx(phi(y), rel=1e-15)
        # Negative imaginary axis: Z(iy) = i(2 sqrt(pi/2) e^{y^2/2} - phi(-y)).
        for y in (-0.5, -2.0, -5.0):
            value = plasma_z(complex(0.0, y))
            expected = 2.0 * SQRT_HALF_PI * math.exp(0.5 * y * y) - phi(-y)
            assert value.real == 0.0
            assert value.imag == pytest.approx(expected, rel=1e-13)

    def test_large_argument_expansion(self):
        # Z(zeta) = -1/zeta - 1/zeta^3 - 3/zeta^5 (1 + O(1/zeta^2)); on
        # the ring |zeta| = 20 the remainder after two terms is within
        # 3.25 |zeta|^-5 everywhere (the constant 3 alone is reached
        # asymptotically, so it needs the next-order allowance near the
        # real axis), and within 3 |zeta|^-5 on the imaginary axis.
        radius = 20.0
        for angle in np.linspace(0.05, math.pi - 0.05, 17):
            zeta = radius * cmath.exp(1j * angle)
            remainder = abs(plasma_z(zeta) + 1.0 / zeta + 1.0 / zeta**3)
            assert remainder <= 3.25 * radius**-5, angle
        zeta = complex(0.0, radius)
        remainder = abs(plasma_z(zeta) + 1.0 / zeta + 1.0 / zeta**3)
        assert remainder <= 3.0 * radius**-5

    def test_far_tail_on_imaginary_axis(self):
        # Z(i y) -> i/y from below; at y = 1e6 the next correction is 1e-18.
        value = plasma_z(complex(0.0, 1e6))
        assert value.real == 0.0
        assert abs(value.imag - 1e-6) <= 2e-18

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            plasma_z(complex(math.inf, 0.0))

    def test_deep_lower_half_plane_overflows(self):
        with pytest.raises(OverflowError):
            plasma_z(complex(0.0, -60.0))
        with pytest.raises(OverflowError):
            plasma_z(complex(1.0, -60.0))


class TestPlasmaZDeriv:
    def test_at_zero(self):
        assert plasma_z_deriv(0j) == -1.0 + 0j

    def test_identity_on_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            zeta = complex(rng.uniform(-5, 5), rng.uniform(-3, 5))
            residual = abs(plasma_z_deriv(zeta) + 1.0 + zeta * plasma_z(zeta))
            assert residual <= 1e-12

    def test_finite_difference(self):
        h = 1e-5
        for zeta in (0.3 + 0.2j, 1.5 - 0.7j, -2.0 + 1.0j, 0.0 + 2.0j):
            fd = (plasma_z(zeta + h) - plasma_z(zeta - h)) / (2.0 * h)
            assert abs(plasma_z_deriv(zeta) - fd) <= 1e-9


class TestPhi:
    def test_at_zero(self):
        assert phi(0.0) == SQRT_HALF_PI

    def test_strictly_decreasing_below_reciprocal(self):
        ys = np.linspace(0.0, 50.0, 401)
        values = [phi(float(y)) for y in ys]
        assert all(a > b for a, b in zip(values, values[1:]))
        for y, v in zip(ys[1:], values[1:]):
            assert 0.0 < v < 1.0 / float(y)

    def test_far_tail(self):
        # phi(y) = 1/y - 1/y^3 + ..., so the deviation at y = 100 is ~1e-6.
        assert abs(phi(100.0) - 0.01) <= 2e-6

    def test_matches_derivative_identity(self):
        # phi'(y) = y phi(y) - 1, checked by central differences.
        h = 1e-6
        for y in (0.2, 1.0, 3.0, 8.0):
            fd = (phi(y + h) - phi(y - h)) / (2.0 * h)
            assert fd == pytest.approx(y * phi(y) - 1.0, abs=5e-9)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            phi(-1.0)
        with pytest.raises(ValueError):
            phi(math.inf)
