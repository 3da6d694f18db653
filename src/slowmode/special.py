"""Special functions for the kinetic relaxation model.

Public scalar functions, all double precision:

* :func:`erfcx` -- scaled complementary error function on [0, inf).
* :func:`phi` -- phi(y) = Im Z(iy) = sqrt(pi/2) erfcx(y / sqrt(2)), the
  strictly decreasing profile whose root locates the slow decay mode.

Numerical contract: relative accuracy ~1e-15 for erfcx and phi.

Each public function validates its argument and then calls the one
unchecked kernel, ``_erfcx``: the library erfc, rescaled, up to 25, and
Laplace's continued fraction past 25, the one large-argument route.
:func:`solve_phi` is unchecked too; :mod:`slowmode.dispersion` validates
c before calling it.  It runs one Halley loop for phi(y) = c inside the
closed-form bracket that the Mills-ratio bounds on phi give; the
profile ODE phi'(y) = y phi(y) - 1 supplies phi' and phi'' from each
phi value, so one phi evaluation buys a third-order step.  The loop
evaluates phi at one site, through ``_erfcx`` as :func:`phi` does, so
every value is bit-identical to :func:`phi`'s.

``laplace_tail`` is the tail a_1(y) = y + 2/(y + 3/(y + ...)) of
Laplace's continued fraction phi(y) = 1/(y + 1/a_1(y)), evaluated
bottom-up to a depth its caller names, unchecked too; ``tail_depth``
is the depth that gives a_1 to about one rounding, for ``_erfcx`` and
:mod:`slowmode.dispersion` alike.
"""

import math

from .errors import _validate_nonnegative

__all__ = ["erfcx", "phi"]

_ISQRT_PI = 1.0 / math.sqrt(math.pi)
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)
_SQRT_HALF = math.sqrt(0.5)
_SQRT2 = math.sqrt(2.0)


def _erfcx(y: float) -> float:
    """Scaled complementary error function exp(y^2) erfc(y) for y >= 0.

    Uses the library erfc with explicit rescaling while exp(y^2) is
    representable and erfc(y) is still a normal double, and Laplace's
    fraction beyond that: phi(u) = sqrt(pi/2) erfcx(y) at u = y sqrt(2)
    gives erfcx(y) = (1/sqrt(pi)) / (y + 1/(sqrt(2) a_1(u))).  Where u
    overflows, a_1(u) is inf and the value its limit 1/(y sqrt(pi)).
    """
    if y <= 25.0:
        # y^2 = hi + lo exactly (Dekker split), so y*y's rounding stays out.
        t = 134217729.0 * y  # 2^27 + 1
        yh = t - (t - y)
        hi = y * y
        lo = (yh * yh - hi) + (y - yh) * (y + yh)
        return math.exp(hi) * math.erfc(y) * (1.0 + lo)
    u = y * _SQRT2
    return _ISQRT_PI / (y + 1.0 / (_SQRT2 * laplace_tail(u, tail_depth(u))))


def laplace_tail(y: float, depth: int) -> float:
    """a_1(y) = y + 2/(y + 3/(y + ... + (depth + 1)/y)), the tail of
    Laplace's continued fraction for the Mills ratio,
    phi(y) = 1/(y + 1/a_1(y)) (Abramowitz and Stegun 26.2.14), cut
    ``depth`` levels below its first y and evaluated bottom-up.

    For y > 0 every level adds positive terms, so nothing cancels;
    at :func:`tail_depth` levels it gives a_1 to about one rounding for
    y >= 3, and a_1(y) -> y as y -> inf.
    """
    tail = y
    for n in range(depth + 1, 1, -1):
        tail = y + n / tail
    return tail


def tail_depth(y: float) -> int:
    """Levels of Laplace's fraction that give a_1(y) to about one
    rounding for y >= 3, ceil(500/y^2) + 8; y * y overflows to inf, and
    the depth to 8, for the largest y."""
    return math.ceil(500.0 / (y * y)) + 8


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
    return _erfcx(_validate_nonnegative(y, "erfcx argument"))


def phi(y: float) -> float:
    """Profile phi(y) = Im Z(iy) = sqrt(pi/2) erfcx(y / sqrt(2)), y >= 0.

    Strictly decreasing from phi(0) = sqrt(pi/2) to 0; the slow decay
    mode at scaled wave number x solves phi(y) = x.
    """
    return _SQRT_HALF_PI * _erfcx(_validate_nonnegative(y, "phi argument") * _SQRT_HALF)


def solve_phi(c: float) -> tuple[float, float, int, float | None]:
    """Solve phi(y) = c for the unique root y > 0, 0 < c < sqrt(pi/2).

    The Mills-ratio bounds 2/(y + sqrt(y^2 + 4)) < phi(y) < 4/(3y +
    sqrt(y^2 + 8)) (Birnbaum 1942, Sampford 1953) bracket the root by
    a = max(0, 1/c - c) < y < b = (3 - sqrt(1 + 4c^2))/(2c), b - a ~ c^3.
    The profile ODE gives phi' = y phi - 1 and phi'' = phi + y phi' from
    each phi value, so each pass takes one third-order Halley step
    (Halley 1694; Traub 1964) from the evaluated bracket end nearer to
    the root in phi, at least 2.2e-16 max(b, 1) inside the bracket.
    The sign of phi - c picks the end the new point replaces, so the
    bracket stays certified.  The loop stops at b - a <= 4.4e-16
    max(b, 1) or when a pass moves no end; y is a final Newton step
    from a, clamped to [a, b].

    Returns ``(y, bracket_width, loop_passes, phi_y)``: phi_y is phi(y)
    when the loop already evaluated it (y is an evaluated end), else None.
    """
    a = 1.0 / c - c
    if a < 0.0:
        a = 0.0
    b = (3.0 - math.sqrt(1.0 + 4.0 * c * c)) / (2.0 * c)
    if b < a:
        b = a
    z, pa, pb = a, None, None  # pb: phi(b), once b is an evaluated point
    passes = 0
    while True:
        pz = _SQRT_HALF_PI * _erfcx(z * _SQRT_HALF)
        # The first point is a itself, taken whatever the sign of phi - c.
        if pz > c or pa is None:
            a, pa = z, pz
        else:
            b, pb = z, pz
        scale = b if b > 1.0 else 1.0
        if b - a <= 4.4e-16 * scale:
            break
        passes += 1
        if pb is None or pa - c <= c - pb:
            y, p = a, pa
        else:
            y, p = b, pb
        f = p - c
        d1 = y * p - 1.0
        # 2 phi'^2 - f phi'' > 0: f < 0 on the b side, and f phi'' stays
        # below 0.16 * 2 phi'^2 at the starting a for every c.
        z = y - 2.0 * f * d1 / (2.0 * d1 * d1 - f * (p + y * d1))
        step = 2.2e-16 * scale
        if z < a + step:
            z = a + step
        elif z > b - step:
            z = b - step
        if not a < z < b:
            break
    slope = 1.0 - a * pa
    y = a + (pa - c) / slope if slope > 0.0 else a
    if y <= a:
        return a, b - a, passes, pa
    if y >= b:
        return b, b - a, passes, pb
    return y, b - a, passes, None
