"""The Hermite-moment generator, spectra, and time integration.

The Gauss-Hermite node form the package used before the moment form
lives on in ``conftest`` as the oracle: its grid, its complex generator
A and its real form B.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from slowmode import kinetic
from slowmode import (
    build_operator,
    fit_decay_rate,
    gaussian_moment_series,
    operator_spectrum,
    simulate_decay,
    simulate_density,
    solve_diffusion_mode,
)
from slowmode.kinetic import _default_dt

from conftest import (
    complex_generator,
    dense_expm,
    dense_horner_trace,
    dense_expm_complex,
    gauss_hermite_grid,
    node_form,
    sequential_rk4_longdouble,
    split_rk4_unflushed,
    stagewise_rk4,
    taylor_expm_longdouble,
    taylor_expm_moment_longdouble,
)

#: Long double must be wider than double for an extended-precision oracle.
needs_long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18,
    reason="long double is no wider than double on this platform",
)


class TestGaussHermiteGrid:
    """The oracle's grid, and the grid size ``build_operator`` takes."""

    def test_two_point_rule(self):
        grid = gauss_hermite_grid(2)
        assert grid.nodes.size == 2
        assert grid.nodes == pytest.approx([-1.0, 1.0], abs=1e-14)
        assert grid.weights == pytest.approx([0.5, 0.5], abs=1e-14)

    def test_weights_normalized(self, grid64):
        assert float(grid64.weights.sum()) == pytest.approx(1.0, abs=1e-14)
        assert np.all(grid64.weights > 0.0)

    def test_nodes_symmetric(self, grid64):
        assert grid64.nodes == pytest.approx(-grid64.nodes[::-1], abs=1e-13)

    def test_gaussian_moments_exact(self, grid64):
        # A q-point rule integrates polynomials of degree < 2q exactly,
        # so every even moment (2m-1)!! here is reproduced to roundoff.
        exact = gaussian_moment_series(6)
        for m in range(7):
            quadrature = float(grid64.weights @ grid64.nodes ** (2 * m))
            assert quadrature == pytest.approx(exact[m], rel=1e-12)

    def test_odd_moments_vanish(self, grid64):
        for m in (1, 3, 5):
            assert float(grid64.weights @ grid64.nodes**m) == pytest.approx(
                0.0, abs=1e-12
            )

    @pytest.mark.parametrize("q", [1, 0, -3, 257, 2.5, math.inf])
    def test_rejects_bad_size(self, q):
        with pytest.raises(ValueError, match="velocity grid size must be in 2..256"):
            build_operator(0.5, 1.0, q)

    def test_v_max_is_the_largest_node(self):
        # The Newton recurrence for the largest zero of He_q against the
        # quadrature's largest node, at every grid size.
        for q in range(2, 257):
            v_max = build_operator(0.0, 1.0, q).v_max
            node = float(gauss_hermite_grid(q).nodes.max())
            assert abs(v_max - node) <= 4 * math.ulp(node), q


class TestBuildOperator:
    def test_trace(self):
        # tr T = tr A = -(q - 1)/tau: the node sum of A vanishes.
        op = build_operator(0.7, 2.0, 64)
        assert np.trace(op.matrix) == -63.0 / 2.0
        assert np.trace(complex_generator(0.7, 2.0, 64)) == pytest.approx(
            -63.0 / 2.0, abs=1e-10
        )

    def test_hermitian_part_eigenvalues(self):
        # (A + A^H)/2 = -(I - s s^T)/tau, a projector complement with
        # eigenvalues 0 (once) and -1/tau (q - 1 times); T's symmetric
        # part is that diagonal exactly, 0 at the density moment.
        tau = 0.5
        t = build_operator(1.3, tau, 64).matrix
        assert np.array_equal(0.5 * (t + t.T), np.diag(np.r_[np.full(63, -1.0 / tau), 0.0]))
        a = complex_generator(1.3, tau, 64)
        herm = 0.5 * (a + a.conj().T)
        eigs = np.sort(np.linalg.eigvalsh(herm))
        assert eigs[-1] == pytest.approx(0.0, abs=1e-12)
        assert eigs[:-1] == pytest.approx(np.full(63, -1.0 / tau), abs=1e-12)

    def test_density_projector_idempotent(self, grid64):
        s = np.sqrt(grid64.weights)
        projector = np.outer(s, s)
        assert projector @ projector == pytest.approx(projector, abs=1e-14)

    def test_equilibrium_is_stationary(self, grid64):
        # The density is in the kernel of the collision term, and at
        # k = 0 there is no advection: A s = 0 and T e = 0.
        s = np.sqrt(grid64.weights)
        assert complex_generator(0.0, 1.0, 64) @ s == pytest.approx(np.zeros(64), abs=1e-13)
        op = build_operator(0.0, 1.0, 64)
        assert not np.any(op.matrix @ op.density_vector)

    def test_dissipativity(self):
        # Re <g, A g> <= 0 for every state: the flow is non-expansive.
        a = complex_generator(0.9, 0.7, 64)
        t = build_operator(0.9, 0.7, 64).matrix
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            assert (np.vdot(g, a @ g)).real <= 1e-10 * np.vdot(g, g).real
            assert (np.vdot(g, t @ g)).real <= 1e-12 * np.vdot(g, g).real

    @pytest.mark.parametrize("q", [2, 3, 17, 64, 256])
    def test_tridiagonal_moment_system(self, q):
        # T_00 = 0, T_nn = -1/tau, T_(n,n+1) = k sqrt(n+1) = -T_(n+1,n),
        # nothing else, stored highest moment first.  The view keeps the
        # signs of its zeros, which the pinned outputs were computed
        # with: -T_(n+1,n) is -0.0 at k = 0, and every other zero +0.0.
        # The extremes k = 5e-324, 1e300 and tau = 1e-300 stay finite.
        negative = np.diag(np.arange(q) > 0) | np.eye(q, k=-1, dtype=bool)
        for k, tau in itertools.product((0.0, 0.7, 5e-324, 1e300), (0.5, 1e-300)):
            op = build_operator(k, tau, q)
            t = op.matrix[::-1, ::-1]  # moment n at index n
            couplings = k * np.sqrt(np.arange(1.0, q))
            expected = np.diag(np.r_[0.0, np.full(q - 1, -1.0 / tau)])
            expected += np.diag(couplings, 1) - np.diag(couplings, -1)
            assert np.array_equal(t, expected)
            assert np.array_equal(np.signbit(t), negative)
            assert op.matrix.dtype == float
            assert (op.k, op.tau) == (k, tau)

    def test_holds_no_dense_matrix(self):
        # The record holds T's three diagonals, 6 KiB at q = 256; one
        # dense T would be 512 KiB.
        build_operator(0.5, 1.0, 256)
        tracemalloc.start()
        try:
            op = build_operator(0.5, 1.0, 256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert op.diagonals.shape == (3, 256)
        assert peak < 64 * 2**10

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            build_operator(-0.5, 1.0, 64)
        with pytest.raises(ValueError):
            build_operator(0.5, 0.0, 64)
        with pytest.raises(ValueError):
            build_operator(math.inf, 1.0, 64)
        with pytest.raises(ValueError, match="wave number"):
            build_operator(1e308, 1.0, 64)


class TestRealForm:
    @pytest.mark.parametrize("q", [2, 3, 16, 17, 64, 65])
    @pytest.mark.parametrize("k", [0.0, 0.3, 2.0, 50.0])
    def test_eigenvalues_match_complex_generator(self, q, k):
        # T is similar to A: the optimal pairing of the two spectra
        # moves no eigenvalue by more than roundoff of the larger of
        # the collision and advection scales.
        op = build_operator(k, 1.0, q)
        real = np.linalg.eigvals(op.matrix)
        complex_ = np.linalg.eigvals(complex_generator(k, 1.0, q))
        distance = np.abs(real[:, None] - complex_[None, :])
        rows, cols = linear_sum_assignment(distance)
        scale = max(1.0 / op.tau, k * op.v_max)
        assert float(distance[rows, cols].max()) <= 1e-13 * scale

    @pytest.mark.parametrize("q", [2, 3, 16, 17, 64, 65, 256])
    def test_density_vector_is_unit(self, q):
        # The density moment is stored last.
        s = build_operator(0.5, 1.0, q).density_vector
        assert np.array_equal(s, np.eye(q)[-1])

    @pytest.mark.parametrize("q", [16, 17])
    def test_equilibrium_is_stationary(self, q):
        op = build_operator(0.0, 2.0, q)
        assert op.matrix @ op.density_vector == pytest.approx(np.zeros(q), abs=1e-15)

    @pytest.mark.parametrize("q", [2, 3, 16, 17])
    def test_transpose_flips_the_odd_half(self, q):
        # T^T = J T J with J = (-1)^n on moment n: the collision part is
        # diagonal and the advection couplings antisymmetric.
        t = build_operator(0.7, 0.5, q).matrix
        j = np.diag((-1.0) ** np.arange(q - 1, -1, -1))
        assert np.array_equal(t.T, j @ t @ j)

    @pytest.mark.parametrize("q", [16, 64, 65, 256])
    @pytest.mark.parametrize("k", [0.1, 0.5, 1.0, 2.0])
    def test_moment_form_matches_node_form(self, q, k):
        # The node form B of the former build_operator and T are similar:
        # equal spectra as multisets, to roundoff of the larger of the
        # collision and advection scales, and equal rk4 and expm traces.
        # B is dense, and a DiscreteOperator holds only three diagonals,
        # so its traces come from the dense-Horner oracle.
        op = build_operator(k, 1.0, q)
        nodal = node_form(k, 1.0, q)
        moment = np.linalg.eigvals(op.matrix)
        distance = np.abs(moment[:, None] - np.linalg.eigvals(nodal.matrix)[None, :])
        rows, cols = linear_sum_assignment(distance)
        assert float(distance[rows, cols].max()) <= 1e-13 * max(1.0, k * op.v_max)
        for method in ("rk4", "expm"):
            times, density = simulate_density(op, method=method)
            reference = dense_horner_trace(nodal, _default_dt(op), times.size - 1, method)
            assert np.max(np.abs(density - reference)) <= 1e-13, method


class TestOperatorSpectrum:
    def test_k_zero_spectrum(self):
        # Without advection the spectrum is exactly {0} + {-1/tau}.
        spectrum = operator_spectrum(build_operator(0.0, 1.0, 64))
        assert spectrum.eigenvalues.dtype == complex
        assert spectrum.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
        assert spectrum.eigenvalues[1:] == pytest.approx(
            np.full(63, -1.0 + 0.0j), abs=1e-12
        )
        assert spectrum.hydrodynamic == pytest.approx(0.0, abs=1e-12)
        assert spectrum.gap == pytest.approx(1.0, abs=1e-12)

    def test_sorted_by_decreasing_real_part(self):
        spectrum = operator_spectrum(build_operator(0.8, 1.0, 64))
        reals = spectrum.eigenvalues.real
        assert np.all(reals[:-1] >= reals[1:] - 1e-14)

    def test_subcritical_matches_dispersion_solver(self):
        # The discretization error is set by the distance of the
        # resolvent pole from the real velocity axis, which shrinks as
        # tau k grows: the same 64-point grid resolves k = 0.25 to
        # roundoff but k = 0.75 only to a few 1e-5.
        for k, bound in ((0.25, 1e-12), (0.5, 1e-8), (0.75, 1e-4)):
            spectrum = operator_spectrum(build_operator(k, 1.0, 64))
            assert spectrum.hydrodynamic is not None
            assert abs(spectrum.hydrodynamic.imag) <= 1e-10
            expected = solve_diffusion_mode(k, 1.0)
            assert spectrum.hydrodynamic.real == pytest.approx(expected, abs=bound)

    def test_refinement_reaches_continuum_at_large_coupling(self):
        # At k = 0.75 the 64-point eigenvalue still carries ~3e-5 of
        # discretization error; tripling the grid removes it.
        expected = solve_diffusion_mode(0.75, 1.0)
        spectrum = operator_spectrum(
            build_operator(0.75, 1.0, 192)
        )
        assert spectrum.hydrodynamic.real == pytest.approx(expected, abs=1e-7)

    def test_grid_convergence(self):
        # Spectral accuracy: the isolated eigenvalue error versus the
        # continuum solver drops rapidly with grid size.
        expected = solve_diffusion_mode(0.5, 1.0)
        errors = []
        for q in (8, 16, 32, 64):
            spectrum = operator_spectrum(build_operator(0.5, 1.0, q))
            assert spectrum.hydrodynamic is not None
            errors.append(abs(spectrum.hydrodynamic.real - expected))
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert errors[-1] <= 1e-6

    def test_continuum_cluster_location(self):
        spectrum = operator_spectrum(build_operator(0.5, 1.0, 64))
        cluster = spectrum.eigenvalues[1:]
        assert np.all(np.abs(cluster.real - spectrum.essential_rate) <= 0.2)

    def test_supercritical_mode_merges(self):
        # Beyond tau k = sqrt(pi/2) no eigenvalue stays isolated: the
        # slow branch has terminated and only the continuum remains.
        spectrum = operator_spectrum(build_operator(2.0, 1.0, 64))
        assert spectrum.hydrodynamic is None
        assert spectrum.gap < spectrum.gap_threshold
        top = spectrum.eigenvalues[0].real
        assert np.all(spectrum.eigenvalues.real <= 1e-10)
        assert -1.0 < top < 0.0

    def test_real_parts_bounded_below(self):
        # The Hermitian part is >= -1/tau, so every eigenvalue satisfies
        # Re >= -1/tau up to roundoff.
        for k in (0.0, 0.5, 2.0):
            spectrum = operator_spectrum(build_operator(k, 1.0, 64))
            assert np.all(spectrum.eigenvalues.real >= -1.0 - 1e-10)

    def test_rejects_wave_number_beyond_roundoff(self):
        # At k = 1e307 the eigensolver's roundoff dwarfs the real-part
        # range [-1/tau, 0]; no gap would mean anything.
        op = build_operator(1e307, 1.0, 64)
        with pytest.raises(ValueError, match="wave number"):
            operator_spectrum(op)
        with pytest.raises(ValueError, match="wave number"):
            operator_spectrum(op, gap_threshold=1e-300)

    def test_gap_threshold_override(self):
        # At k = 0.99 the top eigenvalue is real and 0.039 above the
        # next: merged at the default 0.1/tau, isolated at 0.01.
        op = build_operator(0.99, 1.0, 64)
        default = operator_spectrum(op)
        assert default.hydrodynamic is None
        assert 0.03 < default.gap < 0.05
        assert operator_spectrum(op, gap_threshold=0.01).hydrodynamic is not None
        # At k = 2 the top is a conjugate pair.  The real eigensolver
        # gives both the same real part, so the gap is exactly 0 and no
        # threshold isolates either one.
        top_pair = operator_spectrum(build_operator(2.0, 1.0, 64), gap_threshold=1e-300)
        assert top_pair.gap == 0.0
        assert top_pair.hydrodynamic is None
        assert top_pair.eigenvalues[0] == top_pair.eigenvalues[1].conjugate()
        assert top_pair.eigenvalues[0].imag < 0.0
        with pytest.raises(ValueError):
            operator_spectrum(op, gap_threshold=0.0)
        with pytest.raises(ValueError):
            operator_spectrum(op, gap_threshold=-1.0)


class TestSimulateDensity:
    def test_k_zero_density_conserved(self):
        op = build_operator(0.0, 1.0, 64)
        times, density = simulate_density(op, t_end=5.0)
        assert np.abs(density - 1.0) == pytest.approx(
            np.zeros(times.size), abs=1e-12
        )

    def test_initial_density_is_one(self):
        op = build_operator(0.5, 1.0, 64)
        _, density = simulate_density(op, t_end=1.0)
        assert density[0] == pytest.approx(1.0, abs=1e-14)

    def test_rk4_matches_expm(self):
        op = build_operator(0.5, 1.0, 64)
        times_a, rk4 = simulate_density(op, t_end=10.0, method="rk4")
        times_b, expm = simulate_density(op, t_end=10.0, method="expm")
        assert times_a == pytest.approx(times_b, abs=0.0)
        assert np.max(np.abs(rk4 - expm)) <= 1e-8

    def test_time_grid_is_multiples_of_the_step(self):
        # times[n] is n dt rounded once, so times[1] is the step taken;
        # a linspace to steps * dt can space its points one ulp off dt.
        op = build_operator(1.4, 7.0, 64)
        dt = _default_dt(op)
        assert dt == 0.047656451707589594
        times, _ = simulate_density(op)
        assert times[1] == dt
        assert np.array_equal(times, np.arange(times.size) * dt)

    def test_norm_guard_rejects_large_steps(self):
        op = build_operator(0.5, 1.0, 64)
        with pytest.raises(ValueError, match="reduce dt"):
            simulate_density(op, t_end=20.0, dt=1.0)

    @pytest.mark.parametrize("q", [16, 64])
    @pytest.mark.parametrize("k", [0.1, 0.5, 2.0])
    def test_rk4_matches_stagewise_oracle(self, q, k):
        # One matvec with the precomputed step matrix equals the four
        # RK4 stages up to roundoff.
        op = build_operator(k, 1.0, q)
        times, density = simulate_density(op)
        oracle = stagewise_rk4(op, _default_dt(op), times.size - 1)
        assert np.max(np.abs(density - oracle)) <= 1e-12

    @needs_long_double
    @pytest.mark.parametrize("q", [16, 17])
    @pytest.mark.parametrize("tau_k", [0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.65, 1.0, 2.0])
    def test_rk4_matches_extended_precision(self, q, tau_k):
        # The split trace squares P - I rather than P, so its rounding
        # stays at the level of the step-by-step loop (~1e-15 over 4000
        # steps); repeated squaring of P itself drifts to ~1e-13.  Y is
        # also formed without the identity: building P in Horner form
        # and taking Y = P - I reads up to ~1e-13 at small tau k.
        op = build_operator(tau_k, 1.0, q)
        times, density = simulate_density(op)
        assert times.size == 4001
        reference = sequential_rk4_longdouble(op, _default_dt(op), times.size - 1)
        assert float(np.max(np.abs(density - reference))) <= 1e-14

    @pytest.mark.parametrize("steps", [1, 2, 3, 63, 64, 65, 4001])
    def test_rk4_step_counts_off_the_square(self, steps):
        # n = a + m b with m^2 >= steps + 1: the last tail row is cut
        # short unless m divides steps + 1, and at m = 2 the head is one
        # block product.  expm's trace is RK4's to RK4's step error.
        dt = 2.0**-7
        op = build_operator(0.5, 1.0, 16)
        oracle = stagewise_rk4(op, dt, steps)
        for method, bound in (("rk4", 1e-12), ("expm", 1e-10)):
            times, density = simulate_density(op, t_end=steps * dt, dt=dt, method=method)
            assert times.size == steps + 1
            assert np.max(np.abs(density - oracle)) <= bound

    @needs_long_double
    @pytest.mark.parametrize("q", [16, 65, 256])
    @pytest.mark.parametrize("tau_k", [0.0, 0.1, 0.5, 2.0])
    def test_expm_matches_dense_table(self, q, tau_k):
        # The reference is the Taylor propagator in long double; the
        # eigensolver table dense_expm is itself off by 1.3e-14 at
        # q = 256 and tau k = 0.1.
        op = build_operator(tau_k, 1.0, q)
        times, density = simulate_density(op, method="expm")
        assert density.dtype == float
        reference = taylor_expm_moment_longdouble(op, _default_dt(op), times.size - 1)
        assert float(np.max(np.abs(density - reference))) <= 2e-15

    @needs_long_double
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        q=st.integers(2, 24),
        tau_k=st.floats(0.0, 3.0),
        tau=st.floats(0.1, 10.0),
        divisor=st.sampled_from([1.0, 3.0]),
    )
    def test_expm_matches_long_double_taylor(self, q, tau_k, tau, divisor):
        # The floor is the rounding of the head and tail rows, stepped
        # ~sqrt(steps) times as in RK4: at tau k < 0.1 and dt / 3 (12000
        # steps) the trace stays near 1 and its error reaches ~1.9e-15.
        op = build_operator(tau_k / tau, tau, q)
        dt = _default_dt(op) / divisor
        times, density = simulate_density(op, dt=dt, method="expm")
        reference = taylor_expm_moment_longdouble(op, dt, times.size - 1)
        assert float(np.max(np.abs(density - reference))) <= 3e-15

    @pytest.mark.parametrize("q", [64, 128, 256])
    @pytest.mark.parametrize("tau_k", [0.083, 0.58, 1.43])
    def test_squarings_drop_only_negligible_entries(self, q, tau_k, monkeypatch):
        # Entries below 2^-500 max|Y| leave every squared propagator,
        # and the RK4 trace stays bit for bit that of the loop without
        # the drop; at q = 256 that loop does reach such entries.
        squares = []
        square = kinetic._square

        def recorded(y, out, scratch):
            # The buffers are reused, so each square is kept as a copy.
            square(y, out, scratch)
            squares.append(out.copy())

        def negligible(y):
            magnitude = np.abs(y)
            return (magnitude > 0.0) & (magnitude < np.ldexp(magnitude.max(), -500))

        monkeypatch.setattr(kinetic, "_square", recorded)
        op = build_operator(tau_k, 1.0, q)
        times, density = simulate_density(op)
        reference, unflushed = split_rk4_unflushed(op, _default_dt(op), times.size - 1)
        assert np.array_equal(density, reference)
        simulate_density(op, method="expm")
        assert len(squares) >= 12  # log2(64) per method, and expm's scaling
        assert not any(negligible(y).any() for y in squares)
        if q == 256:
            assert negligible(unflushed).any()

    @pytest.mark.parametrize("method, bound", [("rk4", 4.0), ("expm", 3.45)])
    def test_working_set_at_256_moments(self, method, bound):
        # The squarings reuse Y and two q x q buffers, and RK4's check
        # forms P and P^T P in those two: the traced peak, in q x q
        # doubles, was 5.45 for RK4 and 3.45 for expm while each
        # squaring allocated its own and the check kept P and P^T P.
        op = build_operator(0.5, 1.0, 256)
        simulate_density(op, method=method)
        tracemalloc.start()
        try:
            simulate_density(op, method=method)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (8 * 256 * 256) <= bound

    def test_scaling_stops_at_a_fixed_point(self, monkeypatch):
        # dt = 1e307 asks for about 1,026 scaling squarings at q = 256;
        # Y stops changing after 16 of them, and a fixed point stays
        # fixed, so the loop ends there with the same trace.
        squares = []
        square = kinetic._square

        def recorded(y, out, scratch):
            # The buffers are reused, so each square is kept as a copy.
            square(y, out, scratch)
            squares.append(out.copy())

        monkeypatch.setattr(kinetic, "_square", recorded)
        op = build_operator(0.5, 1.0, 256)
        _, density = simulate_density(op, t_end=1e308, dt=1e307, method="expm")
        assert len(squares) <= 20
        # The last scaling squaring, before the tail's two, left Y as it was.
        assert np.array_equal(squares[-3], squares[-4])
        assert density[0] == 1.0
        assert np.all(np.abs(density) <= 1.0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        q=st.integers(2, 256),
        tau_k=st.floats(0.0, 3.0),
        method=st.sampled_from(["rk4", "expm"]),
    )
    @example(q=2, tau_k=0.0, method="rk4")
    @example(q=3, tau_k=0.0, method="expm")
    @example(q=2, tau_k=2.2, method="expm")
    @example(q=3, tau_k=0.7, method="rk4")
    @example(q=255, tau_k=1.43, method="rk4")
    @example(q=256, tau_k=0.0, method="expm")
    @example(q=256, tau_k=1.71, method="expm")
    def test_trace_matches_dense_horner_oracle(self, q, tau_k, method):
        # The Horner steps on T's three diagonals and the dense products
        # they replace sum in different orders.  Over 61 sizes from 2 to
        # 256, at 16 tau k in [0, 3] each, both methods, the traces
        # differed by at most 2.2e-16; the bound allows for
        # other BLAS builds.  At k = 0, T is diagonal: every product is
        # then one rounded multiply either way, and the traces are equal.
        op = build_operator(tau_k, 1.0, q)
        times, density = simulate_density(op, method=method)
        reference = dense_horner_trace(op, _default_dt(op), times.size - 1, method)
        if tau_k == 0.0:
            assert np.array_equal(density, reference)
        assert float(np.max(np.abs(density - reference))) <= 1e-15

    @pytest.mark.parametrize("q", [2, 3, 5, 16, 17])
    @pytest.mark.parametrize("degree", [1, 2, 4, 9, 16])
    def test_horner_band_holds_the_dense_horner(self, q, degree):
        # Y = p(hT) has no entry more than `degree` off its diagonal,
        # and on the band it is the dense Horner loop's Y to roundoff
        # (bit for bit at k = 0), also when the band is wider than Y.
        for k in (0.0, 1.3):
            op = build_operator(k, 1.0, q)
            t = op.matrix
            h = 0.05
            dense = (h / degree) * t
            for j in range(degree - 1, 0, -1):
                c = (h / j) * t
                dense = c + c @ dense
            y = kinetic._taylor_part(op.diagonals, h, degree)
            offsets = np.abs(np.subtract.outer(np.arange(q), np.arange(q)))
            assert y.shape == (q, q) and not y[offsets > degree].any()
            if k == 0.0:
                assert np.array_equal(y, dense)
            assert float(np.max(np.abs(y - dense))) <= 1e-16

    def test_square_is_bit_for_bit_two_y_plus_y_squared(self):
        # The product plus 2Y in place equals 2.0 * y + y @ y, the
        # squaring's earlier form, because a two-term sum commutes; the
        # drop below 2^-500 max|Y| acts on the same sum.
        rng = np.random.default_rng(3)
        for q in (2, 17, 64):
            y = rng.standard_normal((q, q)) * 0.1
            y[0], y[:, 0] = 0.0, 0.0
            y[0, 0] = 1e-170  # 2Y + Y^2 is 2e-170 there, below the drop
            expected = 2.0 * y + y @ y
            expected[abs(expected) < math.ldexp(float(abs(expected).max()), -500)] = 0.0
            assert expected[0, 0] == 0.0
            out, scratch = np.full_like(y, np.nan), np.full_like(y, np.nan)
            kinetic._square(y, out, scratch)
            assert np.array_equal(out, expected)

    @pytest.mark.parametrize("q", [16, 65, 256])
    @pytest.mark.parametrize("tau_k", [0.0, 0.1, 0.5, 2.0])
    def test_real_and_complex_oracles_agree(self, q, tau_k):
        op = build_operator(tau_k, 1.0, q)
        times = np.linspace(0.0, 40.0, 401)
        difference = dense_expm(op, times) - dense_expm_complex(op, times)
        assert np.max(np.abs(difference)) <= 1e-13

    @needs_long_double
    @pytest.mark.parametrize("q", [16, 17])
    @pytest.mark.parametrize("tau_k", [0.1, 0.5, 2.0])
    def test_expm_matches_extended_precision_taylor(self, q, tau_k):
        op = build_operator(tau_k, 1.0, q)
        times, density = simulate_density(op, method="expm")
        assert density.dtype == float
        reference = taylor_expm_longdouble(op, _default_dt(op), times.size - 1)
        assert float(np.max(np.abs(density - reference))) <= 5e-15

    @pytest.mark.parametrize("q", [2, 8, 64])
    @pytest.mark.parametrize("tau", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("tau_k", [0.0, 0.5, 1.2, 3.0, 1e3])
    def test_default_dt_passes_certificate(self, q, tau, tau_k):
        # The step-matrix check runs before the first step; a short run
        # at the default dt must pass it and stay non-expansive.
        op = build_operator(tau_k / tau, tau, q)
        _, density = simulate_density(op, t_end=0.01 * tau)
        assert np.all(np.abs(density) <= 1.0 + 1e-9)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        q=st.integers(2, 256),
        tau_k=st.floats(0.0, 3.0),
        tau_exponent=st.integers(-1000, 1000),
        dt_mantissa=st.floats(1.0, 2.0, exclude_max=True),
        dt_exponent=st.integers(-997, 1018),
    )
    @example(q=2, tau_k=1.0, tau_exponent=-1023, dt_mantissa=1.0, dt_exponent=-997)
    @example(q=256, tau_k=1.71, tau_exponent=0, dt_mantissa=1.0, dt_exponent=1018)
    def test_expm_plan_matches_the_dense_column_sum(
        self, q, tau_k, tau_exponent, dt_mantissa, dt_exponent
    ):
        # The scaling s and degree d come from ||T||_inf, read as row
        # sums off T's diagonals; |T| is symmetric, so they are the
        # dense column sums.  The oracle takes s from those, with a
        # quarter of the norm so that it stays finite, and d as the
        # least degree whose remainder bound theta^(d+1)/(d+1)! falls
        # below 2^-54, in exact fractions.
        tau = math.ldexp(1.0, tau_exponent)
        op = build_operator(tau_k / tau, tau, q)
        dt = math.ldexp(dt_mantissa, dt_exponent)
        quarter = float(abs(0.25 * op.matrix).sum(axis=0).max())
        squarings = max(0, math.frexp(dt)[1] + math.frexp(quarter)[1] + 3)
        theta = 4 * Fraction(quarter) * Fraction(dt) / 2**squarings
        assert theta < Fraction(1, 2)
        n = 2
        while theta**n >= Fraction(math.factorial(n), 2**54):
            n += 1
        plans = []

        class Planned(Exception):
            pass

        def planned(diagonals, h, degree):
            plans.append((h, degree))
            raise Planned

        with pytest.MonkeyPatch.context() as patch, pytest.raises(Planned):
            patch.setattr(kinetic, "_taylor_part", planned)
            simulate_density(op, t_end=dt, dt=dt, method="expm")
        assert plans == [(math.ldexp(dt, -squarings), n - 1)]

    def test_expm_at_the_largest_generator(self):
        # At k = 1e308 and tau = 1e-308, ||T||_inf overflows while its
        # quarter does not, so the plan must not form the norm itself;
        # the scaled trace then decays as the one at k = tau = 1.
        rate = simulate_decay(build_operator(1e308, 1e-308, 3), method="expm").rate
        unit = simulate_decay(build_operator(1.0, 1.0, 3), method="expm").rate
        assert rate * 1e-308 == pytest.approx(unit, rel=1e-8)

    def test_unknown_method_is_refused_before_any_work(self):
        # t_end / dt asks for an 8e6-step time grid, 61 MiB: the
        # refusal must come before it is allocated.
        op = build_operator(0.5, 1.0, 2)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="unknown integration method 'RK4'"):
                simulate_density(op, t_end=1e6, dt=0.125, method="RK4")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_default_horizon_that_overflows_is_refused(self):
        # 40 tau overflows for tau = 1e307; the refusal names the
        # default, which the caller never passed, and an explicit
        # horizon still runs.
        op = build_operator(1e-307, 1e307, 4)
        with pytest.raises(
            ValueError, match=r"^the default t_end = 40 tau overflows for tau = 1e\+307"
        ):
            simulate_density(op)
        _, density = simulate_density(op, t_end=1e308)
        assert density[0] == 1.0

    def test_rejects_bad_arguments(self):
        op = build_operator(0.5, 1.0, 64)
        with pytest.raises(ValueError):
            simulate_density(op, t_end=0.0)
        with pytest.raises(ValueError, match="dt must be"):
            simulate_density(op, t_end=1.0, dt=2.0)
        # The automatic step is 0.01 tau here; a shorter horizon names
        # t_end, not the dt the caller never passed.
        with pytest.raises(ValueError, match="raise t_end or pass a smaller dt"):
            simulate_density(op, t_end=1e-3)
        with pytest.raises(ValueError):
            simulate_density(op, method="euler")
        # Near the double range: a last step that overflows is refused,
        # not warned about.  Below it, expm scales any step into range.
        small = build_operator(2.0, 1.0, 4)
        t_max = 1.7976931348623157e308
        for method in ("rk4", "expm"):
            with pytest.raises(ValueError, match="end past the double range"):
                simulate_density(small, t_end=t_max, dt=1e308, method=method)
        _, density = simulate_density(small, t_end=1e308, dt=1e307, method="expm")
        assert density[0] == 1.0
        assert np.all(np.abs(density) <= 1.0)

    @pytest.mark.parametrize("q", [4, 16, 64, 65, 256])
    def test_expm_conserves_density_at_long_horizons(self, q):
        # At k = 0 the density is conserved.  T is then diagonal, so the
        # eigensolver returns the conserved mode's eigenvalue as exactly
        # 0; the node form returned roundoff of either sign, which grew
        # the trace to 1.249 or decayed it to 0.847 by t = 1e15.
        op = build_operator(0.0, 0.5, q)
        _, density = simulate_density(op, t_end=1e15, dt=1e14, method="expm")
        assert np.max(np.abs(density - 1.0)) <= 1e-12

    @pytest.mark.parametrize("q", [4, 16, 64, 65, 256])
    def test_expm_follows_the_slow_rate_at_long_horizons(self, q):
        # At k = 1e-8 the slow eigenvalue is -tau k^2 = -5e-17, below the
        # eigensolver's absolute roundoff on the node form; T is graded,
        # and the trace follows exp(-tau k^2 t) to t = 1e15.
        k, tau = 1e-8, 0.5
        op = build_operator(k, tau, q)
        times, density = simulate_density(op, t_end=1e15, dt=1e14, method="expm")
        assert np.max(np.abs(density - np.exp(-tau * k * k * times))) <= 1e-12

    def test_decay_fit_refuses_a_one_step_trace(self):
        op = build_operator(0.5, 1.0, 64)
        assert simulate_density(op, t_end=1.0, dt=1.0, method="expm")[0].size == 2
        with pytest.raises(ValueError, match=r"dt = 1.0 reaches t_end in one step"):
            simulate_decay(op, t_end=1.0, dt=1.0, method="expm")


class TestFitDecayRate:
    def test_exact_exponential(self):
        times = np.linspace(0.0, 10.0, 201)
        density = np.exp(-0.3 * times)
        assert fit_decay_rate(times, density) == pytest.approx(-0.3, abs=1e-12)

    def test_fit_window_default_skips_transient(self):
        # A fast transient on top of the slow decay must not bias the
        # fit once the default window (second half) is used.
        times = np.linspace(0.0, 40.0, 801)
        density = np.exp(-0.2 * times) + 0.5 * np.exp(-5.0 * times)
        assert fit_decay_rate(times, density) == pytest.approx(-0.2, abs=1e-6)

    def test_times_near_underflow(self):
        # t^2 underflows at t ~ 1e-299; the fit must not square times.
        times = np.linspace(0.0, 4e-299, 401)
        rate = -2.5e298
        density = np.exp(rate * times)
        assert fit_decay_rate(times, density) == pytest.approx(rate, rel=1e-12)

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            fit_decay_rate([0.0], [1.0])
        with pytest.raises(ValueError):
            fit_decay_rate([0.0, 1.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            fit_decay_rate([0.0, 1.0], [1.0, 0.0])
        with pytest.raises(ValueError, match="vanishes"):
            fit_decay_rate([0.0, 1.0, 2.0], [1.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="not finite"):
            fit_decay_rate([0.0, 1.0, 2.0], [1.0, math.inf, 1.0])
        with pytest.raises(ValueError, match="not finite"):
            fit_decay_rate([0.0, 1.0, 2.0], [1.0, 0.5, math.nan])
        with pytest.raises(ValueError):
            fit_decay_rate([0.0, 1.0], [1.0, 1.0], fit_start=0.9)
        with pytest.raises(ValueError, match="distinct times"):
            fit_decay_rate([0.0, 1.0, 1.0], [1.0, 0.5, 0.5])
        with pytest.raises(ValueError, match="equal-length 1-D"):
            fit_decay_rate(np.arange(4.0), np.ones((2, 2)))
        with pytest.raises(ValueError, match="times must be finite"):
            fit_decay_rate([0.0, math.nan, 2.0, 3.0], [1.0, 0.5, 0.25, 0.1])


class TestSimulateDecay:
    def test_rate_matches_dispersion_solver(self):
        op = build_operator(0.5, 1.0, 64)
        result = simulate_decay(op)
        expected = solve_diffusion_mode(0.5, 1.0)
        assert result.rate == pytest.approx(expected, rel=1e-8)
        assert result.method == "rk4"
        assert result.rate == fit_decay_rate(result.times, result.density)

    def test_relaxation_time_scaling(self):
        # tau lambda depends on k and tau only through tau k.
        op = build_operator(0.25, 2.0, 64)
        result = simulate_decay(op, method="expm")
        expected = solve_diffusion_mode(0.25, 2.0)
        assert result.rate == pytest.approx(expected, rel=1e-8)
        assert 2.0 * result.rate == pytest.approx(
            solve_diffusion_mode(0.5, 1.0), rel=1e-8
        )

    def test_grid_sizes_agree(self):
        rates = []
        for q in (32, 64):
            op = build_operator(0.5, 1.0, q)
            rates.append(simulate_decay(op, method="expm").rate)
        assert rates[0] == pytest.approx(rates[1], abs=1e-6)

    def test_closure_reproduces_late_time_decay_shape(self):
        # The slow mode carries only part of the initial density weight
        # (the continuum takes the rest), so a unit-amplitude closure
        # keeps a constant offset; with the amplitude read off the trace
        # once the transient has died, the closure matches the kinetic
        # density essentially exactly.
        op = build_operator(0.5, 1.0, 64)
        times, density = simulate_density(op, t_end=40.0, method="expm")
        rate = operator_spectrum(op).hydrodynamic.real
        late = times >= 20.0

        unit = np.exp(rate * times)
        unit_deviation = np.abs(density[late] - unit[late]) / np.abs(unit[late])
        assert float(unit_deviation.max()) <= 0.25

        anchor = int(np.searchsorted(times, 20.0))
        amplitude = density[anchor] * np.exp(-rate * times[anchor])
        fitted = amplitude * np.exp(rate * times)
        deviation = np.abs(density[late] - fitted[late]) / np.abs(fitted[late])
        assert float(deviation.max()) <= 1e-5

