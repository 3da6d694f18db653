"""Acceptance gate: ten scripted criteria covering the full feature set.

Each test prints one ``criterion NN: PASS`` line (visible with ``-s`` or
in captured output) and fails loudly otherwise.  Tolerances are part of
the contract and must not be loosened; runtime-limited criteria measure
wall-clock time around the exact operation they constrain.
"""

import json
import math
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from slowmode import (
    CRITICAL_COUPLING,
    build_operator,
    ce_coefficients,
    classify_stability,
    critical_wave_number,
    divergence_diagnostics,
    eval_truncation,
    operator_spectrum,
    phi,
    scaled_eigenvalue,
    simulate_decay,
    solve_diffusion_mode,
)

from conftest import (
    a000699,
    csv_sections,
    erfcx_quadrature,
    newton_oracle,
    ode_weight_coefficients,
    plasma_z,
    run_cli,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def _report(number: int, detail: str) -> None:
    print(f"criterion {number:02d}: PASS — {detail}")


def test_criterion_01_leading_coefficients_exact():
    start = time.perf_counter()
    series = ce_coefficients(4)
    elapsed = time.perf_counter() - start
    assert series.coefficients == (-1, 1, -4, 27)
    assert all(isinstance(c, int) for c in series.coefficients)
    assert elapsed < 1.0
    _report(1, f"c_1..c_4 = (-1, 1, -4, 27) exactly in {elapsed:.3f} s")


def test_criterion_02_dual_route_magnitudes():
    start = time.perf_counter()
    series = ce_coefficients(30)
    elapsed = time.perf_counter() - start
    assert series.coefficients == ode_weight_coefficients(30)
    reference = a000699(30)
    for n in range(1, 31):
        assert abs(series.coefficients[n - 1]) == reference[n - 1]
    assert elapsed < 10.0
    for order in (1, 2, 10, 30, 60):
        assert ce_coefficients(order).coefficients == newton_oracle(order)
    _report(
        2,
        f"halved symmetric-sum coefficients for n = 1..30 in {elapsed:.3f} s "
        "equal the profile-ODE weight recurrence, their magnitudes the "
        "full A000699 sum, and the coefficients equal the Newton series "
        "reversion exactly at orders 1, 2, 10, 30, 60",
    )


def test_criterion_03_criticality_threshold():
    for tau in (0.5, 1.0, 2.0):
        below = (CRITICAL_COUPLING - 1e-6) / tau
        above = (CRITICAL_COUPLING + 1e-6) / tau
        assert solve_diffusion_mode(below, tau) is not None
        assert solve_diffusion_mode(above, tau) is None
        assert critical_wave_number(tau) == math.sqrt(math.pi / 2.0) / tau
    _report(
        3,
        "mode exists at tau k = sqrt(pi/2) - 1e-6 and vanishes at + 1e-6 "
        "for tau in {0.5, 1, 2}; critical_wave_number exact",
    )


def test_criterion_04_coupling_law():
    taus = (0.25, 0.7, 1.0, 1.3, 4.0)
    values = [tau * solve_diffusion_mode(0.8 / tau, tau) for tau in taus]
    spread = max(values) - min(values)
    assert spread <= 1e-12
    _report(
        4,
        f"tau * lambda at tau k = 0.8 agrees across 5 (k, tau) pairs, "
        f"spread {spread:.2e}",
    )


def test_criterion_05_order_by_order_agreement():
    series = ce_coefficients(5)
    ratios = {}
    for order in (1, 2, 3, 4):
        r = []
        for x in (0.1, 0.05):
            gap = abs(scaled_eigenvalue(x) - eval_truncation(series, order, x))
            r.append(gap / x ** (2 * order + 2))
        ratio = r[1] / r[0]
        ratios[order] = ratio
        assert 0.5 <= ratio <= 2.0
    reference_gap = abs(scaled_eigenvalue(0.1) - (-0.00990373))
    assert reference_gap <= 1e-6
    _report(
        5,
        "scaled residual |exact - T_N| / x^(2N+2) stays bounded from "
        f"x = 0.1 to 0.05 (ratios {ratios}); exact(0.1) within 1e-6 of "
        "the partial-sum reference",
    )


def test_criterion_06_divergence_certificate():
    series = ce_coefficients(30)
    diagnostics = divergence_diagnostics(series)
    tests = diagnostics.root_tests
    for n in range(5, 30):
        assert tests[n] > tests[n - 1]  # strictly increasing over n = 5..30
    assert tests[29] > 3.0
    band = diagnostics.ratio_band
    assert band is not None and 0.0 < band[0] <= band[1]
    _report(
        6,
        f"|c_n|^(1/2n) strictly increasing for n = 5..30, reaching "
        f"{tests[29]:.4f} > 3; moment-ratio band recorded as "
        f"[{band[0]:.6f}, {band[1]:.6f}]",
    )


def test_criterion_07_truncation_stability():
    series = ce_coefficients(10)
    second = classify_stability(series, 2)
    assert not second.stable
    assert second.sign_change_x == 1.0
    assert classify_stability(series, 1).stable
    assert classify_stability(series, 3).stable
    unstable = []
    for order in range(1, 11):
        report = classify_stability(series, order)
        if not report.stable:
            unstable.append(order)
            assert report.sign_change_x < CRITICAL_COUPLING
    _report(
        7,
        "T_2 changes sign exactly at x = 1; T_1 and T_3 are negative-"
        f"definite; unstable orders {unstable} all change sign below "
        "sqrt(pi/2)",
    )


def test_criterion_08_kinetics_cross_validation():
    # Two independent routes through the same 64-moment discretization
    # (time integration + log-linear fit versus direct eigendecomposition)
    # must agree to 1e-6; their common value must agree with the
    # continuum dispersion solver to 1e-3 relative, the residual being
    # the finite-grid discretization error at the largest coupling.
    start = time.perf_counter()
    worst_fit = 0.0
    worst_eig = 0.0
    for k in (0.25, 0.5, 0.75):
        expected = solve_diffusion_mode(k, 1.0)
        op = build_operator(k, 1.0, 64)
        fitted = simulate_decay(op).rate
        worst_fit = max(worst_fit, abs(fitted - expected) / abs(expected))
        top = operator_spectrum(op).eigenvalues[0].real
        worst_eig = max(worst_eig, abs(top - fitted))
        assert abs(top - expected) / abs(expected) <= 1e-3
    elapsed = time.perf_counter() - start
    assert worst_fit <= 1e-3
    assert worst_eig <= 1e-6
    assert elapsed < 30.0
    _report(
        8,
        f"fitted kinetic rates within {worst_fit:.2e} relative of the "
        f"dispersion solver and within {worst_eig:.2e} of the max-Re "
        f"discrete eigenvalue for k in {{0.25, 0.5, 0.75}} at Q = 64 "
        f"in {elapsed:.1f} s",
    )


def test_criterion_09_special_function_suite():
    # The profile ODE phi'(y) = y phi(y) - 1 for phi(y) = Im Z(iy),
    # checked with fourth-order central differences of the value route
    # on both halves of the imaginary axis.
    def stencil(y: float, h: float = 1e-3) -> float:
        return (
            -plasma_z(complex(0.0, y + 2 * h)).imag
            + 8.0 * plasma_z(complex(0.0, y + h)).imag
            - 8.0 * plasma_z(complex(0.0, y - h)).imag
            + plasma_z(complex(0.0, y - 2 * h)).imag
        ) / (12.0 * h)

    rng = np.random.default_rng(7)
    worst_upper = 0.0
    for y in rng.uniform(0.0, 4.0, 200):
        slope = y * plasma_z(complex(0.0, y)).imag - 1.0
        worst_upper = max(worst_upper, abs(stencil(y) - slope))
    assert worst_upper <= 5e-12
    worst_lower = 0.0
    for y in rng.uniform(-2.0, 0.0, 200):
        slope = y * plasma_z(complex(0.0, y)).imag - 1.0
        worst_lower = max(
            worst_lower, abs(stencil(y) - slope) / max(1.0, abs(slope))
        )
    assert worst_lower <= 5e-12

    assert abs(plasma_z(0.0) - 1j * math.sqrt(math.pi / 2.0)) <= 1e-14

    worst_phi = 0.0
    for y in np.geomspace(0.1, 20.0, 20):
        reference = math.sqrt(math.pi / 2.0) * erfcx_quadrature(y / math.sqrt(2.0))
        worst_phi = max(worst_phi, abs(phi(y) - reference) / reference)
    assert worst_phi <= 1e-10
    _report(
        9,
        f"profile ODE residual {worst_upper:.2e} on y in [0, 4] and "
        f"{worst_lower:.2e} (relative) on [-2, 0) over 200 points each; "
        f"value at zero within 1e-14; quadrature-oracle deviation "
        f"{worst_phi:.2e} over 20 reference points",
    )


def test_criterion_10_figure_reproductions(tmp_path):
    compare_svg_path = tmp_path / "compare.svg"
    result = run_cli(
        ["compare", "--points", "120", "--svg", str(compare_svg_path)]
    )
    assert result.returncode == 0
    table, stability, _ = csv_sections(result.stdout)
    assert table[0] == ["x", "k", "exact", "T1", "T2", "T3", "T4"]

    exact = [float(row[2]) for row in table[1:]]
    assert all(value <= 0.0 for value in exact)
    columns = {
        order: [float(row[2 + order]) for row in table[1:]]
        for order in (1, 2, 3, 4)
    }
    # Even-order truncations cross zero inside the subcritical window
    # while odd orders stay negative away from the origin.
    for order in (2, 4):
        assert any(v > 0.0 for v in columns[order][1:])
    for order in (1, 3):
        assert all(v < 0.0 for v in columns[order][1:])
    # Peel-away: every truncation's near-critical sup error exceeds its
    # origin-window sup error (columns 4 and 5 of the stability section).
    for row in stability[1:]:
        assert float(row[5]) > float(row[4])

    compare_root = ET.parse(compare_svg_path).getroot()
    assert len(list(compare_root.iter(f"{SVG_NS}path"))) == 5

    spectrum_svg_path = tmp_path / "spectrum.svg"
    result = run_cli(
        ["spectrum", "--k", "0.5", "--svg", str(spectrum_svg_path), "--format", "json"]
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    eigenvalues = payload["eigenvalues"]
    marked = [e for e in eigenvalues if e["hydrodynamic"]]
    assert len(marked) == 1
    assert marked[0]["re"] < 0.0
    cluster = [e for e in eigenvalues if not e["hydrodynamic"]]
    assert all(abs(e["re"] - payload["essential_rate"]) <= 0.2 for e in cluster)
    assert marked[0]["re"] > max(e["re"] for e in cluster) + payload["gap_threshold"]

    spectrum_root = ET.parse(spectrum_svg_path).getroot()
    assert len(list(spectrum_root.iter(f"{SVG_NS}circle"))) == 64
    _report(
        10,
        "comparison output shows even-order sign changes and near-critical "
        "peel-away; spectrum output shows one isolated negative eigenvalue "
        "with the continuum cluster at the essential rate; SVGs well-formed",
    )
