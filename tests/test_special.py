"""Special-function layer: erfcx, phi, and plasma Z on the imaginary axis."""

import math
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    erfcx_quadrature,
    phi_mp,
    phi_root_mp,
    phi_two_call,
    plasma_z,
    solve_phi_newton_chord,
    solve_phi_two_call,
)
from slowmode import branch_point, erfcx, phi, special
from slowmode.special import solve_phi

SQRT_HALF_PI = math.sqrt(0.5 * math.pi)


def plasma_z_axis_mp(y: float) -> float:
    """Multiprecision reference Im Z(iy) = sqrt(pi/2) e^(y^2/2) erfc(y/sqrt(2)),
    valid on the whole imaginary axis."""
    with mpmath.workdps(40):
        return float(phi_mp(mpmath.mpf(y)))


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

    def test_matches_mpmath_past_the_switch(self):
        # Past 25 every value comes from Laplace's fraction; mpmath's
        # erfcx(y) = U(1/2, 1/2, y^2)/sqrt(pi) takes no erfc or exp(y^2),
        # which overflow there.  The asymptotic series this route
        # replaced erred by up to 4.1e-16, and beyond 2.5e-16 at about
        # 2% of points in (25, 1e3), where the fraction runs deepest; so
        # that band gets 1,000 points of its own.
        rng = np.random.default_rng(1)
        ys = np.exp(
            np.concatenate(
                [
                    rng.uniform(math.log(25.0), math.log(1e307), 2000),
                    rng.uniform(math.log(25.0), math.log(1e3), 1000),
                ]
            )
        )
        with mpmath.workdps(30):
            for y in [*map(float, ys), math.nextafter(25.0, 26.0), 1e307]:
                exact = mpmath.hyperu(0.5, 0.5, mpmath.mpf(y) ** 2) / mpmath.sqrt(mpmath.pi)
                assert float(abs(erfcx(y) / exact - 1)) <= 2.5e-16, y

    def test_fraction_route_past_the_switch(self, monkeypatch):
        # One call of the fraction kernel per value past 25, at
        # u = y sqrt(2) and the depth dispersion uses, none up to 25;
        # the largest doubles give the subnormal tail 1/(y sqrt(pi)).
        calls = []
        laplace_tail = special.laplace_tail

        def recorded(u, depth):
            calls.append((u, depth))
            return laplace_tail(u, depth)

        monkeypatch.setattr(special, "laplace_tail", recorded)
        erfcx(25.0)
        assert calls == []
        erfcx(30.0)
        u = 30.0 * math.sqrt(2.0)
        assert calls == [(u, special.tail_depth(u))]
        assert erfcx(1.7e308) == 3.31876225616327e-309

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="erfcx argument must be >= 0, got -0.5"):
            erfcx(-0.5)
        with pytest.raises(ValueError, match="erfcx argument must be >= 0, got nan"):
            erfcx(math.nan)


class TestPlasmaZ:
    def test_at_zero(self):
        value = plasma_z(0j)
        assert value.real == 0.0
        assert abs(value.imag - SQRT_HALF_PI) <= 1e-14

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

    def test_matches_multiprecision_on_whole_axis(self):
        # An independent route on both halves of the axis: the reflection
        # formula the package uses for y < 0 is not involved.
        for y in (
            -37.0, -20.0, -5.0, -2.0, -0.5, 0.0, 0.3,
            1.0, 4.0, 10.0, 30.0, 1e3, 1e6,
        ):
            value = plasma_z(complex(0.0, y))
            assert value.real == 0.0
            assert value.imag == pytest.approx(plasma_z_axis_mp(y), rel=1e-13), y

    def test_large_argument_expansion(self):
        # Z(zeta) = -1/zeta - 1/zeta^3 - 3/zeta^5 (1 + O(1/zeta^2)); on
        # the imaginary axis the remainder after two terms is within
        # 3 |zeta|^-5.
        radius = 20.0
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

    def test_rejects_off_axis(self):
        for zeta in (complex(1.0, -60.0), 1.0 + 1.0j, complex(1e-300, 1.0), -0.5):
            with pytest.raises(ValueError, match="imaginary axis"):
                plasma_z(zeta)


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
        with pytest.raises(ValueError, match="phi argument must be >= 0, got -1.0"):
            phi(-1.0)
        with pytest.raises(ValueError, match="phi argument must be >= 0, got inf"):
            phi(math.inf)


#: c on [1e-4, sqrt(pi/2)): geometric in c, plus one point next to the top.
SOLVE_GRID = [1e-4 * (SQRT_HALF_PI / 1e-4) ** (i / 60) for i in range(60)] + [
    SQRT_HALF_PI - 1e-9
]

#: c uniform on (0, sqrt(pi/2)), 1,999 points.
CALL_GRID = [SQRT_HALF_PI * i / 2000 for i in range(1, 2000)]


class TestSolvePhi:
    def test_closed_form_bracket_holds(self):
        # The Mills-ratio bounds give phi(a) > c > phi(b) with b - a < c^3.
        with mpmath.workdps(60):
            for c in SOLVE_GRID:
                cm = mpmath.mpf(c)
                a = max(mpmath.mpf(0), 1 / cm - cm)
                b = (3 - mpmath.sqrt(1 + 4 * cm * cm)) / (2 * cm)
                assert phi_mp(a) > cm > phi_mp(b), c
                assert a == 0 or b - a < cm**3, c

    def test_root_inside_reported_bracket(self):
        # The bracket is certified for the computed phi, whose own ~1e-15
        # relative error moves the root by 1e-15 c / |phi'(y)|; beyond
        # that, the 50-digit root may miss the bracket by 2 ulps.
        for c in SOLVE_GRID:
            y, width, _, _ = solve_phi(c)
            root = phi_root_mp(c, y)
            with mpmath.workdps(50):
                slope = abs(root * phi_mp(root) - 1)
                slack = 2 * math.ulp(y) + 1e-15 * c / slope
                assert abs(root - y) <= width + slack, c

    @staticmethod
    def count_phi_calls(monkeypatch, solve, xs) -> float:
        """Mean number of phi evaluations per ``solve(x)`` over ``xs``.

        Each evaluation is one call of ``_erfcx``, the one kernel that
        ``phi`` and ``solve_phi``'s loop share.
        """
        calls = 0
        kernel = special._erfcx

        def counting(u):
            nonlocal calls
            calls += 1
            return kernel(u)

        monkeypatch.setattr(special, "_erfcx", counting)
        for x in xs:
            solve(x)
        return calls / len(xs)

    def test_phi_calls_per_solve(self, monkeypatch):
        # One evaluation at a, then about four Halley passes of one each.
        assert self.count_phi_calls(monkeypatch, solve_phi, CALL_GRID) <= 6

    def test_phi_calls_per_branch_point(self, monkeypatch):
        # The residual reuses the solver's phi(y) whenever the loop
        # evaluated y, so it adds well under one evaluation per point.
        assert self.count_phi_calls(monkeypatch, branch_point, CALL_GRID) <= 6

    def test_counting_sees_every_evaluation(self, monkeypatch):
        # Each pass evaluates phi once, after the evaluation at a; a pass
        # that moves no end evaluates nothing.  Both branches of erfcx.
        for c in (0.5, 0.01):
            _, _, passes, _ = solve_phi(c)
            calls = self.count_phi_calls(monkeypatch, solve_phi, [c])
            assert passes <= calls <= passes + 1, c
            assert calls >= 2, c

    def test_phi_y_is_the_kernel_value(self):
        known = 0
        for c in SOLVE_GRID + CALL_GRID:
            y, _, _, phi_y = solve_phi(c)
            if phi_y is not None:
                known += 1
                assert phi_y == phi(y), c
        assert known >= len(SOLVE_GRID + CALL_GRID) // 2

    def test_agrees_with_newton_chord_oracle(self):
        # Each root lies in the other solver's certified bracket.  Both
        # brackets are certified for the computed phi, whose ~1e-15
        # relative error can place its sign change 1e-15 c / |phi'(y)|
        # away from the exact root, so the two loops may stop at
        # different sign changes within that band; 2 ulps cover the
        # final Newton step's rounding.
        xs = SOLVE_GRID + [SQRT_HALF_PI * (i + 0.5) / 2000 for i in range(2000)]
        for c in xs:
            y, width, _, _ = solve_phi(c)
            y_old, width_old, _ = solve_phi_newton_chord(c)
            slack = 2 * math.ulp(y) + 1e-15 * c / abs(y * phi(y) - 1.0)
            assert abs(y - y_old) <= min(width, width_old) + slack, c

    def test_bracket_below_resolution_for_tiny_c(self):
        # b - a ~ c^3 is far below one ulp of y ~ 1/c: no loop pass runs,
        # and y is the final Newton step from a, as in the oracle.
        for c in (1e-5, 1e-300, 2.2250738585072014e-308):
            y, _, passes, _ = solve_phi(c)
            assert passes == 0
            assert (y, passes) == solve_phi_newton_chord(c)[::2]
            assert y == pytest.approx(1.0 / c, rel=1e-9)



def float_bits(values) -> tuple:
    """``values`` with every float as its IEEE-754 bytes: equal exactly
    when bit-identical, signed zeros and NaNs included."""
    return tuple(struct.pack("<d", v) if isinstance(v, float) else v for v in values)


#: The erfcx switch sits at y / sqrt(2) = 25, y = 35.355...
SWITCH_Y = 25.0 * math.sqrt(2.0)


class TestLaplaceTail:
    @pytest.mark.parametrize("y", [3.0, 3.3, 4.0, 5.5, 8.0, 13.0, 40.0, 300.0, 1e4])
    def test_matches_mpmath_at_the_branch_depth(self, y):
        # a_1 = 1/(1/phi(y) - y) from 1/phi(y) = y + 1/a_1(y); the
        # subtraction cancels about 2 log10(y) digits, so the working
        # precision grows with y.
        with mpmath.workdps(40 + 2 * int(math.log10(y))):
            exact = 1 / (1 / phi_mp(mpmath.mpf(y)) - y)
            value = special.laplace_tail(y, math.ceil(500.0 / (y * y)) + 8)
            assert float(abs(value / exact - 1)) <= 2.5e-16

    def test_depth_and_limits(self):
        # depth 0 is y itself, each level adds a positive term, and a_1
        # stays finite at the largest root the branch reaches.
        assert special.laplace_tail(3.0, 0) == 3.0
        assert special.laplace_tail(3.0, 1) == 3.0 + 2.0 / 3.0
        assert special.laplace_tail(4.5e307, 8) == 4.5e307


class TestOneSiteLoopIsBitIdentical:
    """``solve_phi`` evaluates phi at one site, the head of its loop,
    the lower end a included; every value must match the two-call
    kernel and the loop with one evaluation at a and one per pass, bit
    for bit."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        st.one_of(
            st.floats(0.0, 1e300),
            st.floats(0.0, 50.0),
            st.floats(SWITCH_Y - 1e-3, SWITCH_Y + 1e-3),
            st.sampled_from([0.0, 5e-324, SWITCH_Y, math.nextafter(SWITCH_Y, 99.0), 1e300]),
        )
    )
    def test_phi(self, y):
        assert float_bits([phi(y)]) == float_bits([phi_two_call(y)])

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        st.one_of(
            st.floats(5e-324, SQRT_HALF_PI, exclude_max=True),
            # The root crosses the erfcx switch near c = 0.028.
            st.floats(0.02, 0.04),
            st.floats(5e-324, 2.2250738585072014e-308, exclude_max=True),
            st.sampled_from(
                [5e-324, 1e-310, 2.2250738585072014e-308, math.nextafter(SQRT_HALF_PI, 0.0)]
            ),
        )
    )
    def test_solve_phi(self, c):
        assert float_bits(solve_phi(c)) == float_bits(solve_phi_two_call(c))
