"""Velocity-grid discretization, spectra, and time integration."""

import math

import numpy as np
import pytest

from slowmode import (
    build_operator,
    fit_decay_rate,
    gauss_hermite_grid,
    gaussian_moment_series,
    operator_spectrum,
    simulate_decay,
    simulate_density,
    solve_diffusion_mode,
)
from slowmode.kinetic import _default_dt

from conftest import stagewise_rk4


class TestGaussHermiteGrid:
    def test_two_point_rule(self):
        grid = gauss_hermite_grid(2)
        assert grid.q == 2
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

    @pytest.mark.parametrize("q", [1, 0, -3, 257])
    def test_rejects_bad_size(self, q):
        with pytest.raises(ValueError):
            gauss_hermite_grid(q)


class TestBuildOperator:
    def test_trace(self, grid64):
        # tr A = -i k sum(v) - (q - 1)/tau and the node sum vanishes.
        op = build_operator(0.7, 2.0, grid64)
        assert np.trace(op.matrix) == pytest.approx(-63.0 / 2.0, abs=1e-10)

    def test_hermitian_part_eigenvalues(self, grid64):
        # (A + A^H)/2 = -(I - s s^T)/tau, a projector complement with
        # eigenvalues 0 (once) and -1/tau (q - 1 times).
        tau = 0.5
        op = build_operator(1.3, tau, grid64)
        herm = 0.5 * (op.matrix + op.matrix.conj().T)
        eigs = np.sort(np.linalg.eigvalsh(herm))
        assert eigs[-1] == pytest.approx(0.0, abs=1e-12)
        assert eigs[:-1] == pytest.approx(np.full(63, -1.0 / tau), abs=1e-12)

    def test_density_projector_idempotent(self, grid64):
        s = np.sqrt(grid64.weights)
        projector = np.outer(s, s)
        assert projector @ projector == pytest.approx(projector, abs=1e-14)

    def test_equilibrium_is_stationary(self, grid64):
        # g = s is in the kernel of the collision term, and at k = 0
        # there is no advection: A s = 0.
        op = build_operator(0.0, 1.0, grid64)
        s = np.sqrt(grid64.weights)
        assert op.matrix @ s == pytest.approx(np.zeros(64), abs=1e-13)

    def test_dissipativity(self, grid64):
        # Re <g, A g> <= 0 for every state: the flow is non-expansive.
        op = build_operator(0.9, 0.7, grid64)
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            assert (np.vdot(g, op.matrix @ g)).real <= 1e-10 * np.vdot(g, g).real

    def test_rejects_bad_parameters(self, grid64):
        with pytest.raises(ValueError):
            build_operator(-0.5, 1.0, grid64)
        with pytest.raises(ValueError):
            build_operator(0.5, 0.0, grid64)
        with pytest.raises(ValueError):
            build_operator(math.inf, 1.0, grid64)
        with pytest.raises(ValueError, match="wave number"):
            build_operator(1e308, 1.0, grid64)


class TestOperatorSpectrum:
    def test_k_zero_spectrum(self, grid64):
        # Without advection the spectrum is exactly {0} + {-1/tau}.
        spectrum = operator_spectrum(build_operator(0.0, 1.0, grid64))
        assert spectrum.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
        assert spectrum.eigenvalues[1:] == pytest.approx(
            np.full(63, -1.0 + 0.0j), abs=1e-12
        )
        assert spectrum.hydrodynamic == pytest.approx(0.0, abs=1e-12)
        assert spectrum.gap == pytest.approx(1.0, abs=1e-12)

    def test_sorted_by_decreasing_real_part(self, grid64):
        spectrum = operator_spectrum(build_operator(0.8, 1.0, grid64))
        reals = spectrum.eigenvalues.real
        assert np.all(reals[:-1] >= reals[1:] - 1e-14)

    def test_subcritical_matches_dispersion_solver(self, grid64):
        # The discretization error is set by the distance of the
        # resolvent pole from the real velocity axis, which shrinks as
        # tau k grows: the same 64-point grid resolves k = 0.25 to
        # roundoff but k = 0.75 only to a few 1e-5.
        for k, bound in ((0.25, 1e-12), (0.5, 1e-8), (0.75, 1e-4)):
            spectrum = operator_spectrum(build_operator(k, 1.0, grid64))
            assert spectrum.hydrodynamic is not None
            assert abs(spectrum.hydrodynamic.imag) <= 1e-10
            expected = solve_diffusion_mode(k, 1.0)
            assert spectrum.hydrodynamic.real == pytest.approx(expected, abs=bound)

    def test_refinement_reaches_continuum_at_large_coupling(self):
        # At k = 0.75 the 64-point eigenvalue still carries ~3e-5 of
        # discretization error; tripling the grid removes it.
        expected = solve_diffusion_mode(0.75, 1.0)
        spectrum = operator_spectrum(
            build_operator(0.75, 1.0, gauss_hermite_grid(192))
        )
        assert spectrum.hydrodynamic.real == pytest.approx(expected, abs=1e-7)

    def test_grid_convergence(self):
        # Spectral accuracy: the isolated eigenvalue error versus the
        # continuum solver drops rapidly with grid size.
        expected = solve_diffusion_mode(0.5, 1.0)
        errors = []
        for q in (8, 16, 32, 64):
            spectrum = operator_spectrum(build_operator(0.5, 1.0, gauss_hermite_grid(q)))
            assert spectrum.hydrodynamic is not None
            errors.append(abs(spectrum.hydrodynamic.real - expected))
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert errors[-1] <= 1e-6

    def test_continuum_cluster_location(self, grid64):
        spectrum = operator_spectrum(build_operator(0.5, 1.0, grid64))
        cluster = spectrum.eigenvalues[1:]
        assert np.all(np.abs(cluster.real - spectrum.essential_rate) <= 0.2)

    def test_supercritical_mode_merges(self, grid64):
        # Beyond tau k = sqrt(pi/2) no eigenvalue stays isolated: the
        # slow branch has terminated and only the continuum remains.
        spectrum = operator_spectrum(build_operator(2.0, 1.0, grid64))
        assert spectrum.hydrodynamic is None
        assert spectrum.gap < spectrum.gap_threshold
        top = spectrum.eigenvalues[0].real
        assert np.all(spectrum.eigenvalues.real <= 1e-10)
        assert -1.0 < top < 0.0

    def test_real_parts_bounded_below(self, grid64):
        # The Hermitian part is >= -1/tau, so every eigenvalue satisfies
        # Re >= -1/tau up to roundoff.
        for k in (0.0, 0.5, 2.0):
            spectrum = operator_spectrum(build_operator(k, 1.0, grid64))
            assert np.all(spectrum.eigenvalues.real >= -1.0 - 1e-10)

    def test_rejects_wave_number_beyond_roundoff(self, grid64):
        # At k = 1e307 the eigensolver's roundoff dwarfs the real-part
        # range [-1/tau, 0]; no gap would mean anything.
        op = build_operator(1e307, 1.0, grid64)
        with pytest.raises(ValueError, match="wave number"):
            operator_spectrum(op)
        with pytest.raises(ValueError, match="wave number"):
            operator_spectrum(op, gap_threshold=1e-300)

    def test_gap_threshold_override(self, grid64):
        op = build_operator(2.0, 1.0, grid64)
        assert operator_spectrum(op, gap_threshold=1e-300).hydrodynamic is not None
        with pytest.raises(ValueError):
            operator_spectrum(op, gap_threshold=0.0)
        with pytest.raises(ValueError):
            operator_spectrum(op, gap_threshold=-1.0)


class TestSimulateDensity:
    def test_k_zero_density_conserved(self, grid64):
        op = build_operator(0.0, 1.0, grid64)
        times, density = simulate_density(op, t_end=5.0)
        assert np.abs(density - 1.0) == pytest.approx(
            np.zeros(times.size), abs=1e-12
        )

    def test_initial_density_is_one(self, grid64):
        op = build_operator(0.5, 1.0, grid64)
        _, density = simulate_density(op, t_end=1.0)
        assert density[0] == pytest.approx(1.0, abs=1e-14)

    def test_rk4_matches_expm(self, grid64):
        op = build_operator(0.5, 1.0, grid64)
        times_a, rk4 = simulate_density(op, t_end=10.0, method="rk4")
        times_b, expm = simulate_density(op, t_end=10.0, method="expm")
        assert times_a == pytest.approx(times_b, abs=0.0)
        assert np.max(np.abs(rk4 - expm)) <= 1e-8

    def test_norm_guard_rejects_large_steps(self, grid64):
        op = build_operator(0.5, 1.0, grid64)
        with pytest.raises(ValueError, match="reduce dt"):
            simulate_density(op, t_end=20.0, dt=1.0)

    @pytest.mark.parametrize("q", [16, 64])
    @pytest.mark.parametrize("k", [0.1, 0.5, 2.0])
    def test_rk4_matches_stagewise_oracle(self, q, k):
        # One matvec with the precomputed step matrix equals the four
        # RK4 stages up to roundoff.
        op = build_operator(k, 1.0, gauss_hermite_grid(q))
        times, density = simulate_density(op)
        oracle = stagewise_rk4(op, _default_dt(op), times.size - 1)
        assert np.max(np.abs(density - oracle)) <= 1e-12

    @pytest.mark.parametrize("q", [2, 8, 64])
    @pytest.mark.parametrize("tau", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("tau_k", [0.0, 0.5, 1.2, 3.0, 1e3])
    def test_default_dt_passes_certificate(self, q, tau, tau_k):
        # The step-matrix check runs before the first step; a short run
        # at the default dt must pass it and stay non-expansive.
        op = build_operator(tau_k / tau, tau, gauss_hermite_grid(q))
        _, density = simulate_density(op, t_end=0.01 * tau)
        assert np.all(np.abs(density) <= 1.0 + 1e-9)

    def test_rejects_bad_arguments(self, grid64):
        op = build_operator(0.5, 1.0, grid64)
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
        with pytest.raises(ValueError):
            fit_decay_rate([0.0, 1.0], [1.0, 1.0], fit_start=0.9)
        with pytest.raises(ValueError, match="distinct times"):
            fit_decay_rate([0.0, 1.0, 1.0], [1.0, 0.5, 0.5])


class TestSimulateDecay:
    def test_rate_matches_dispersion_solver(self, grid64):
        op = build_operator(0.5, 1.0, grid64)
        result = simulate_decay(op)
        expected = solve_diffusion_mode(0.5, 1.0)
        assert result.rate == pytest.approx(expected, rel=1e-8)
        assert result.method == "rk4"
        assert result.fit_start == pytest.approx(0.5 * float(result.times[-1]))

    def test_relaxation_time_scaling(self, grid64):
        # tau lambda depends on k and tau only through tau k.
        op = build_operator(0.25, 2.0, grid64)
        result = simulate_decay(op, method="expm")
        expected = solve_diffusion_mode(0.25, 2.0)
        assert result.rate == pytest.approx(expected, rel=1e-8)
        assert 2.0 * result.rate == pytest.approx(
            solve_diffusion_mode(0.5, 1.0), rel=1e-8
        )

    def test_grid_sizes_agree(self):
        rates = []
        for q in (32, 64):
            op = build_operator(0.5, 1.0, gauss_hermite_grid(q))
            rates.append(simulate_decay(op, method="expm").rate)
        assert rates[0] == pytest.approx(rates[1], abs=1e-6)

    def test_closure_reproduces_late_time_decay_shape(self, grid64):
        # The slow mode carries only part of the initial density weight
        # (the continuum takes the rest), so a unit-amplitude closure
        # keeps a constant offset; with the amplitude read off the trace
        # once the transient has died, the closure matches the kinetic
        # density essentially exactly.
        op = build_operator(0.5, 1.0, grid64)
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

