"""Shared fixtures and independent numerical oracles.

The oracles deliberately avoid the package's own algorithms: the erfcx
reference integrates the defining integral with adaptive quadrature,
the expansion coefficients are recomputed by series reversion of the
moment series instead of the profile ODE, and
the RK4 density trace is recomputed stage by stage instead of through
the precomputed step matrix, so agreement is evidence, not circularity.
"""

import functools
import math
import os
import pathlib
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

import slowmode


def erfcx_quadrature(y: float) -> float:
    """erfcx(y) = (2/sqrt(pi)) * integral exp(-s^2 - 2 s y) ds over s > 0.

    The shifted form never overflows, unlike exp(y^2) erfc(y).
    """
    if y < 0.0:
        raise ValueError("quadrature oracle requires y >= 0")
    upper = min(40.0, 40.0 / max(1.0, y))
    with warnings.catch_warnings():
        # epsabs is set far below the roundoff floor on purpose (the
        # integral spans ~300 orders of magnitude over y); quad warning
        # about hitting that floor is the expected outcome.
        warnings.simplefilter("ignore", IntegrationWarning)
        value, _ = quad(
            lambda s: math.exp(-s * s - 2.0 * s * y),
            0.0,
            upper,
            limit=400,
            epsabs=1e-300,
            epsrel=1e-14,
        )
    return 2.0 / math.sqrt(math.pi) * value


def phi_mp(y):
    """phi(y) = sqrt(pi/2) exp(y^2/2) erfc(y/sqrt(2)) at the current mpmath precision."""
    return mpmath.sqrt(mpmath.pi / 2) * mpmath.exp(y * y / 2) * mpmath.erfc(y / mpmath.sqrt(2))


def phi_root_mp(c: float, start: float, dps: int = 50):
    """Root of phi(y) = c to ``dps`` digits, by mpmath's secant search from ``start``."""
    with mpmath.workdps(dps):
        return mpmath.findroot(lambda y: phi_mp(y) - c, mpmath.mpf(start))


# ---------------------------------------------------------------------------
# Truncated power series over plain int.  A series is a list of
# coefficients [f_0, f_1, ..., f_L] for f_0 + f_1 x + ... + f_L x^L.
# ---------------------------------------------------------------------------


def series_mul(a: list[int], b: list[int], L: int) -> list[int]:
    """Product of two series truncated at degree L."""
    out = [0] * (L + 1)
    for i, ai in enumerate(a[: L + 1]):
        if ai:
            for j, bj in enumerate(b[: L + 1 - i]):
                out[i + j] += ai * bj
    return out


def series_reciprocal(a: list[int], L: int) -> list[int]:
    """1 / a truncated at degree L, for a unit constant term a[0] = +-1.

    The unit constant term keeps every coefficient an integer: dividing
    by a[0] is multiplying by it.
    """
    if a[0] not in (1, -1):
        raise ValueError(f"series reciprocal needs a[0] = +-1, got {a[0]!r}")
    out = [0] * (L + 1)
    out[0] = a[0]
    for m in range(1, L + 1):
        acc = sum(a[j] * out[m - j] for j in range(1, min(m, len(a) - 1) + 1))
        out[m] = -a[0] * acc
    return out


def series_in_square(coeffs: list[int], w: list[int], L: int) -> list[int]:
    """sum_m coeffs[m] w^(2m) truncated at degree L, by Horner in w^2.

    ``w`` must have zero constant term, so only the terms with 2m <= L
    contribute.
    """
    w2 = series_mul(w, w, L)
    coeffs = coeffs[: L // 2 + 1]
    acc = [coeffs[-1]] + [0] * L
    for c in reversed(coeffs[:-1]):
        acc = series_mul(acc, w2, L)
        acc[0] += c
    return acc


def moment_series(order: int) -> list[int]:
    """Coefficients [S_0, ..., S_(2 order + 1)] of the odd moment series
    S(u) = sum_m (-1)^m (2m-1)!! u^(2m+1), the large-y expansion of the
    profile phi in u = 1/y.  The moments (2m-1)!! come from
    gaussian_moment_series, which the tests check against quadrature."""
    s = [0] * (2 * order + 2)
    for m, moment in enumerate(slowmode.gaussian_moment_series(order)):
        s[2 * m + 1] = (-1) ** m * moment
    return s


def branch_series_by_newton(order: int) -> list[int]:
    """Coefficients [F_0, ..., F_(2 order)] of the scaled branch by
    Newton reversion of the moment series.

    With S(u) = x for u = 1/y, the reverse series w = S^{-1}(x) gives
    F(x) = x / w(x) - 1.  Newton's step w <- w - (S(w) - x) / S'(w)
    doubles the correct degree each pass.  S'(w) and w / x both have
    constant term 1, so every division is exact over int.
    """
    L = 2 * order + 1
    s_odd = moment_series(order)[1::2]
    sp_even = [(2 * m + 1) * c for m, c in enumerate(s_odd)]
    w = [0] * (L + 1)
    w[1] = 1
    prec = 1
    while prec < L:
        prec = min(2 * prec, L)
        residual = series_mul(series_in_square(s_odd, w, prec), w, prec)
        residual[1] -= 1
        slope = series_in_square(sp_even, w, prec)
        step = series_mul(residual, series_reciprocal(slope, prec), prec)
        for i in range(prec + 1):
            w[i] -= step[i]
    lam = series_reciprocal(w[1:], 2 * order)
    lam[0] -= 1
    return lam


@functools.cache
def newton_oracle(order: int) -> tuple[int, ...]:
    """Expansion coefficients c_1..c_order by Newton series reversion.

    Asserts the structure the reversion does not impose by itself: the
    branch series is even with F(0) = 0.
    """
    lam = branch_series_by_newton(order)
    assert lam[0] == 0
    assert all(lam[m] == 0 for m in range(1, 2 * order + 1, 2))
    return tuple(lam[2 * n] for n in range(1, order + 1))


def stagewise_rk4(op: slowmode.DiscreteOperator, dt: float, steps: int) -> np.ndarray:
    """Reference density trace s^T g(n dt), n = 0..steps, from g(0) = s:
    classical RK4 as four matvec stages per step, with a per-step watch
    that rejects dt once the solution norm grows.  ``simulate_density``
    applies the same step as one precomputed matrix."""
    s = np.sqrt(op.grid.weights).astype(complex)
    a = op.matrix
    g = s.copy()
    density = np.empty(steps + 1, dtype=complex)
    density[0] = s @ g
    norm = float(np.linalg.norm(g))
    for n in range(1, steps + 1):
        k1 = a @ g
        k2 = a @ (g + 0.5 * dt * k1)
        k3 = a @ (g + 0.5 * dt * k2)
        k4 = a @ (g + dt * k3)
        g = g + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        new_norm = float(np.linalg.norm(g))
        if new_norm > norm * (1.0 + 1e-9):
            raise ValueError(
                f"norm grew from {norm!r} to {new_norm!r} at t = {n * dt!r}: "
                "the integration is unstable, reduce dt"
            )
        norm = new_norm
        density[n] = s @ g
    return density


@pytest.fixture(scope="session")
def series30() -> slowmode.CeSeries:
    return slowmode.ce_coefficients(30)


@pytest.fixture(scope="session")
def grid64() -> slowmode.VelocityGrid:
    return slowmode.gauss_hermite_grid(64)


#: The checkout's source tree, put on the subprocess path by run_python.
SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def run_cli(args) -> subprocess.CompletedProcess:
    """Run the command-line tool from the checkout's source tree in a
    subprocess and capture output."""
    return run_python(["-m", "slowmode.cli", *args])


def run_python(args) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with the checkout's source tree on its
    path and capture output."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )


def csv_sections(text: str) -> list[list[list[str]]]:
    """Split multi-section CSV output into [[row, ...], ...]."""
    sections = []
    for block in text.split("\n\n"):
        block = block.strip("\n")
        if not block:
            continue
        sections.append([line.split(",") for line in block.split("\n")])
    return sections
