"""Slow decay modes of a one-dimensional kinetic relaxation model.

The package studies the linear kinetic equation
df/dt + v df/dx = (rho M - f)/tau around a global Gaussian equilibrium:

* :mod:`slowmode.special` -- the underlying special functions (scaled
  complementary error function, the dispersion profile phi and its
  root solver).
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

Layers load on first use.  ``import slowmode`` binds only
``__version__``; reading a module imports it, and reading a public name
imports the layers in turn until one declares it.  ``__all__`` and
``dir(slowmode)`` import them all.  So a command loads only the layers
it runs.  Only :mod:`slowmode.kinetic` needs numpy, and it imports numpy
inside its functions, so the ``branch``, ``ce`` and ``compare`` commands
never load numpy; the first call of a kinetic function that builds an
array does.
"""

import importlib

__version__ = "0.1.0"

_LAYERS = ("ceseries", "dispersion", "errors", "kinetic", "special", "svgplot", "truncation")


def __getattr__(name):
    """A module, ``__all__`` or a public name, importing what it needs.

    Each layer declares its public names once, in its own ``__all__``.
    """
    if name in _LAYERS or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        names = (n for layer in map(__getattr__, _LAYERS) for n in layer.__all__)
        return sorted(["__version__", *names])
    for layer in map(__getattr__, _LAYERS):
        if name in layer.__all__:
            return getattr(layer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAYERS, *__getattr__("__all__")})
