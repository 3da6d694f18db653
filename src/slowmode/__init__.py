"""Slow decay modes of a one-dimensional kinetic relaxation model.

The package studies the linear kinetic equation
df/dt + v df/dx = (rho M - f)/tau around a global Gaussian equilibrium:

* :mod:`slowmode.special` -- the underlying special functions (scaled
  complementary error function, the dispersion profile phi, and the
  plasma dispersion function on the imaginary axis).
* :mod:`slowmode.dispersion` -- the isolated slow decay branch
  lambda_d(k, tau), its critical wave number sqrt(pi/2)/tau, and the
  scaling law tau lambda_d = F(tau k).
* :mod:`slowmode.ceseries` -- the exact integer coefficients of the
  small-wave-number expansion of F, plus divergence diagnostics.
* :mod:`slowmode.truncation` -- finite expansion truncations: stability
  classification and comparison against the exact branch.
* :mod:`slowmode.kinetic` -- direct Hermite-grid simulation of the
  kinetic dynamics, spectra, and decay-rate fits.
* :mod:`slowmode.svgplot` -- deterministic SVG figures for the two
  comparison views.
* :mod:`slowmode.cli` -- the ``slowmode`` command-line tool.

Only :mod:`slowmode.kinetic` needs numpy, and it imports numpy inside
its functions.  So ``import slowmode`` and the ``branch``, ``ce`` and
``compare`` commands never load numpy; the first call of a kinetic
function that builds an array does.
"""

from .ceseries import (
    CeSeries,
    DivergenceReport,
    a000699,
    ce_coefficients,
    divergence_diagnostics,
    gaussian_moment_series,
)
from .dispersion import (
    CRITICAL_COUPLING,
    BranchPoint,
    BranchTable,
    branch_point,
    critical_wave_number,
    sample_branch,
    scaled_eigenvalue,
    solve_diffusion_mode,
)
from .errors import SelfCheckError
from .kinetic import (
    DecayResult,
    DiscreteOperator,
    SpectrumResult,
    VelocityGrid,
    build_operator,
    fit_decay_rate,
    gauss_hermite_grid,
    operator_spectrum,
    simulate_decay,
    simulate_density,
)
from .special import erfcx, phi, plasma_z
from .svgplot import comparison_svg, spectrum_svg
from .truncation import (
    TruncationComparison,
    TruncationReport,
    classify_stability,
    compare_to_exact,
    eval_truncation,
)

__version__ = "0.1.0"

__all__ = [
    "BranchPoint",
    "BranchTable",
    "CRITICAL_COUPLING",
    "CeSeries",
    "DecayResult",
    "DiscreteOperator",
    "DivergenceReport",
    "SelfCheckError",
    "SpectrumResult",
    "TruncationComparison",
    "TruncationReport",
    "VelocityGrid",
    "__version__",
    "a000699",
    "branch_point",
    "build_operator",
    "ce_coefficients",
    "classify_stability",
    "compare_to_exact",
    "comparison_svg",
    "critical_wave_number",
    "divergence_diagnostics",
    "erfcx",
    "eval_truncation",
    "fit_decay_rate",
    "gauss_hermite_grid",
    "gaussian_moment_series",
    "operator_spectrum",
    "phi",
    "plasma_z",
    "sample_branch",
    "scaled_eigenvalue",
    "simulate_decay",
    "simulate_density",
    "solve_diffusion_mode",
    "spectrum_svg",
]
