"""Special functions for the kinetic relaxation model.

Public scalar functions, all double precision:

* :func:`faddeeva` -- w(z) = exp(-z^2) erfc(-iz).
* :func:`erfcx` -- scaled complementary error function on [0, inf).
* :func:`plasma_z` -- Z(zeta) = i sqrt(pi/2) w(zeta / sqrt(2)), the
  resolvent integral of the unit Gaussian against 1/(v - zeta).
* :func:`plasma_z_deriv` -- Z'(zeta) = -(1 + zeta Z(zeta)).
* :func:`phi` -- phi(y) = Im Z(iy) = sqrt(pi/2) erfcx(y / sqrt(2)), the
  strictly decreasing profile whose root locates the slow decay mode.

Numerical contract: relative accuracy ~1e-13 for w on the closed upper
half-plane and moderate lower half-plane, ~1e-14 for erfcx; arguments
whose exact value overflows double precision (deep lower half-plane for
``faddeeva`` / ``plasma_z``) raise :class:`OverflowError`.
"""

import math

from . import _kernels_py

__all__ = ["erfcx", "faddeeva", "phi", "plasma_z", "plasma_z_deriv"]

_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)
_SQRT_HALF = math.sqrt(0.5)

# ln(largest double); 2 exp(u) with u above this overflows.
_EXP_LIMIT = 709.0


def _check_finite_complex(z: complex, name: str) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} must be finite, got {z!r}")
    return z


def erfcx(y: float) -> float:
    """Scaled complementary error function exp(y^2) erfc(y).

    Parameters
    ----------
    y : float
        Non-negative argument.

    Returns
    -------
    float
        erfcx(y), strictly decreasing from erfcx(0) = 1 towards 0 with
        the tail behaviour erfcx(y) ~ 1 / (y sqrt(pi)).
    """
    y = float(y)
    if not math.isfinite(y):
        raise ValueError(f"erfcx argument must be finite, got {y!r}")
    if y < 0.0:
        raise ValueError(f"erfcx argument must be >= 0, got {y!r}")
    return _kernels_py.erfcx(y)


def faddeeva(z: complex) -> complex:
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz).

    Entire in z; for Im z >= 0 it equals the Gaussian resolvent integral
    (i/pi) * integral of exp(-t^2) / (z - t) dt over the real line.
    Lower half-plane values grow like 2 exp(-z^2) and raise
    :class:`OverflowError` once that factor exceeds double range.
    """
    z = _check_finite_complex(z, "faddeeva argument")
    if z.imag < 0.0 and z.imag * z.imag - z.real * z.real > _EXP_LIMIT:
        raise OverflowError(
            f"faddeeva({z!r}) exceeds double precision range"
        )
    return _kernels_py.faddeeva(z)


def phi(y: float) -> float:
    """Profile phi(y) = Im Z(iy) = sqrt(pi/2) erfcx(y / sqrt(2)), y >= 0.

    Strictly decreasing from phi(0) = sqrt(pi/2) to 0; the slow decay
    mode at scaled wave number x solves phi(y) = x.
    """
    y = float(y)
    if not math.isfinite(y):
        raise ValueError(f"phi argument must be finite, got {y!r}")
    if y < 0.0:
        raise ValueError(f"phi argument must be >= 0, got {y!r}")
    return _kernels_py.phi(y)


def plasma_z(zeta: complex) -> complex:
    """Plasma dispersion function Z(zeta) = i sqrt(pi/2) w(zeta/sqrt(2)).

    Equivalently (for Im zeta > 0) the resolvent integral
    (1/sqrt(2 pi)) * integral of exp(-v^2/2) / (v - zeta) dv.  Entire in
    zeta, with the large-argument behaviour Z ~ -1/zeta - 1/zeta^3 - ...

    On the imaginary axis Z is computed through erfcx directly, so the
    real part is exactly zero there (Z(iy) = i phi(y) for y >= 0).
    """
    zeta = _check_finite_complex(zeta, "plasma_z argument")
    if zeta.real == 0.0:
        y = zeta.imag
        if y >= 0.0:
            return complex(
                0.0, _SQRT_HALF_PI * _kernels_py.erfcx(y * _SQRT_HALF)
            )
        if 0.5 * y * y > _EXP_LIMIT:
            raise OverflowError(
                f"plasma_z({zeta!r}) exceeds double precision range"
            )
        # Z(iy) = i [2 sqrt(pi/2) exp(y^2/2) - phi(-y)] for y < 0.
        return complex(
            0.0,
            2.0 * _SQRT_HALF_PI * math.exp(0.5 * y * y)
            - _SQRT_HALF_PI * _kernels_py.erfcx(-y * _SQRT_HALF),
        )
    w_arg = complex(zeta.real * _SQRT_HALF, zeta.imag * _SQRT_HALF)
    if w_arg.imag < 0.0 and w_arg.imag**2 - w_arg.real**2 > _EXP_LIMIT:
        raise OverflowError(
            f"plasma_z({zeta!r}) exceeds double precision range"
        )
    w = _kernels_py.faddeeva(w_arg)
    return complex(-_SQRT_HALF_PI * w.imag, _SQRT_HALF_PI * w.real)


def plasma_z_deriv(zeta: complex) -> complex:
    """Derivative Z'(zeta) = -(1 + zeta Z(zeta))."""
    zeta = _check_finite_complex(zeta, "plasma_z_deriv argument")
    return -(1.0 + zeta * plasma_z(zeta))
