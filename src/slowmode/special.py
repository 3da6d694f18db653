"""Special functions for the kinetic relaxation model.

Public scalar functions, all double precision:

* :func:`erfcx` -- scaled complementary error function on [0, inf).
* :func:`phi` -- phi(y) = Im Z(iy) = sqrt(pi/2) erfcx(y / sqrt(2)), the
  strictly decreasing profile whose root locates the slow decay mode.
* :func:`plasma_z` -- the plasma dispersion function Z on the imaginary
  axis, where Z(iy) = i phi(y) for y >= 0 and its continuation
  i [2 sqrt(pi/2) exp(y^2/2) - phi(-y)] for y < 0.

Numerical contract: relative accuracy ~1e-14 for erfcx and phi;
``plasma_z`` arguments whose exact value overflows double precision
(y below about -37.6) raise :class:`OverflowError`.

Each public function validates its argument and then calls an unchecked
private kernel defined beside it (``_erfcx``, ``_phi``).
:func:`solve_phi`, the bisection solver for phi(y) = c, is unchecked
too; :mod:`slowmode.dispersion` validates c before calling it.
"""

import math

__all__ = ["erfcx", "phi", "plasma_z"]

_ISQRT_PI = 1.0 / math.sqrt(math.pi)
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)
_SQRT_HALF = math.sqrt(0.5)

# ln(largest double); 2 exp(u) with u above this overflows.
_EXP_LIMIT = 709.0


def _erfcx(y: float) -> float:
    """Scaled complementary error function exp(y^2) erfc(y) for y >= 0.

    Uses the library erfc with explicit rescaling while exp(y^2) is
    representable and erfc(y) is still a normal double, and the
    large-argument asymptotic series beyond that.
    """
    if y <= 25.0:
        return math.exp(y * y) * math.erfc(y)
    # erfcx(y) ~ (1/(y sqrt(pi))) * sum_n (-1)^n (2n-1)!! / (2 y^2)^n
    inv2y2 = 1.0 / (2.0 * y * y)
    term = 1.0
    acc = 1.0
    for n in range(1, 26):
        term *= -(2 * n - 1) * inv2y2
        acc += term
        if abs(term) < 1e-17 * acc:
            break
    return acc * _ISQRT_PI / y


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
    return _erfcx(y)


def _phi(y: float) -> float:
    """phi(y) = sqrt(pi/2) erfcx(y / sqrt(2)) for y >= 0."""
    return _SQRT_HALF_PI * _erfcx(y * _SQRT_HALF)


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
    return _phi(y)


def solve_phi(c: float) -> tuple[float, float, int]:
    """Solve phi(y) = c for the unique root y > 0, 0 < c < sqrt(pi/2).

    Brackets the root, bisects until the bracket width reaches 1e-14 (or
    the midpoint is no longer distinct from the endpoints, whichever
    comes first), then polishes with a few Newton steps using
    phi'(y) = y phi(y) - 1, clamped to the certified bracket.

    Returns ``(y, bracket_width, bisection_iterations)``.
    """
    a = 0.0
    b = max(2.0 / c, 1.0)
    while _phi(b) > c:
        b *= 2.0
    it = 0
    while it < 200:
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break
        if _phi(m) > c:
            a = m
        else:
            b = m
        it += 1
        if b - a <= 1e-14:
            break
    y = 0.5 * (a + b)
    for _ in range(4):
        p = _phi(y)
        f = p - c
        d = y * p - 1.0
        if d == 0.0:
            break
        step = f / d
        y -= step
        if abs(step) <= 1e-16 * (1.0 + abs(y)):
            break
    if not (a <= y <= b):
        y = 0.5 * (a + b)
    return y, b - a, it


def plasma_z(zeta: complex) -> complex:
    """Plasma dispersion function Z(zeta) on the imaginary axis.

    Z(zeta) is the resolvent integral (1/sqrt(2 pi)) * integral of
    exp(-v^2/2) / (v - zeta) dv for Im zeta > 0, continued to an entire
    function.  Only arguments zeta = iy are accepted; Z is computed
    through erfcx, so its real part is exactly zero:
    Z(iy) = i phi(y) for y >= 0 and
    Z(iy) = i [2 sqrt(pi/2) exp(y^2/2) - phi(-y)] for y < 0.

    Raises :class:`ValueError` for a non-finite argument or one off the
    imaginary axis, and :class:`OverflowError` once exp(y^2/2) leaves
    double range.
    """
    zeta = complex(zeta)
    if not (math.isfinite(zeta.real) and math.isfinite(zeta.imag)):
        raise ValueError(f"plasma_z argument must be finite, got {zeta!r}")
    if zeta.real != 0.0:
        raise ValueError(
            f"plasma_z argument must lie on the imaginary axis, got {zeta!r}"
        )
    y = zeta.imag
    if y >= 0.0:
        return complex(0.0, _phi(y))
    if 0.5 * y * y > _EXP_LIMIT:
        raise OverflowError(
            f"plasma_z({zeta!r}) exceeds double precision range"
        )
    return complex(
        0.0,
        2.0 * _SQRT_HALF_PI * math.exp(0.5 * y * y) - _phi(-y),
    )
