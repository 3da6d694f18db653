"""Shared fixtures and independent numerical oracles.

The oracles deliberately avoid the package's own algorithms: the
Faddeeva and erfcx references integrate the defining integrals with
adaptive quadrature, so agreement is evidence, not circularity.
"""

import math
import subprocess
import sys
import warnings

import pytest
from scipy.integrate import IntegrationWarning, quad

import slowmode


def faddeeva_quadrature(z: complex) -> complex:
    """w(z) = (i/pi) * integral exp(-t^2) / (z - t) dt, for Im z > 0.

    Adaptive quadrature of the defining resolvent integral with a
    subdivision hint at the near-singularity t = Re z.  Reliable to
    ~1e-12 for Im z >= 0.1 (closer to the axis the integrand becomes a
    delta-like spike and quadrature degrades).
    """
    if z.imag <= 0.0:
        raise ValueError("quadrature oracle requires Im z > 0")
    hint = sorted({-12.0, min(max(z.real, -11.9), 11.9), 12.0})

    def real_part(t: float) -> float:
        d = z - t
        return math.exp(-t * t) * d.imag / (d.real * d.real + d.imag * d.imag)

    def imag_part(t: float) -> float:
        d = z - t
        return math.exp(-t * t) * d.real / (d.real * d.real + d.imag * d.imag)

    re, _ = quad(real_part, -12, 12, points=hint, limit=800, epsabs=1e-15, epsrel=1e-13)
    im, _ = quad(imag_part, -12, 12, points=hint, limit=800, epsabs=1e-15, epsrel=1e-13)
    return complex(re / math.pi, im / math.pi)


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


#: Reference points for the Faddeeva oracle: Im z >= 0.1 (where the
#: quadrature is trustworthy), spread over every algorithm region of the
#: implementation (small-|z| series, both continued-fraction regimes,
#: and the near-real-axis band).
FADDEEVA_REFERENCE_POINTS = (
    complex(0.2, 0.15),
    complex(0.3, 0.4),
    complex(0.0, 1.0),
    complex(1.0, 0.2),
    complex(1.2, 0.8),
    complex(1.5, 1.5),
    complex(2.0, 0.5),
    complex(2.5, 0.1),
    complex(3.0, 0.2),
    complex(3.5, 0.9),
    complex(4.0, 0.4),
    complex(5.0, 0.15),
    complex(0.5, 3.0),
    complex(6.0, 1.1),
    complex(6.5, 0.3),
    complex(7.5, 0.8),
    complex(8.5, 0.5),
    complex(9.0, 2.0),
    complex(2.0, 6.0),
    complex(10.0, 0.5),
)


@pytest.fixture(scope="session")
def series30() -> slowmode.CeSeries:
    return slowmode.ce_coefficients(30)


@pytest.fixture(scope="session")
def grid64() -> slowmode.VelocityGrid:
    return slowmode.gauss_hermite_grid(64)


def run_cli(args) -> subprocess.CompletedProcess:
    """Run the command-line tool in a subprocess and capture output."""
    return subprocess.run(
        [sys.executable, "-m", "slowmode.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
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
