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

from .ceseries import *
from .dispersion import *
from .errors import *
from .kinetic import *
from .special import *
from .svgplot import *
from .truncation import *

__version__ = "0.1.0"

# Each layer declares its public names once, in its own ``__all__``;
# ``from .<layer> import *`` also binds the layer module itself here.
__all__ = sorted(
    [
        "__version__",
        *ceseries.__all__,
        *dispersion.__all__,
        *errors.__all__,
        *kinetic.__all__,
        *special.__all__,
        *svgplot.__all__,
        *truncation.__all__,
    ]
)
