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

Each public function validates its argument and then calls an unchecked
private kernel defined beside it (``_erfcx``, ``_faddeeva``, ``_phi``).
:func:`solve_phi`, the bisection solver for phi(y) = c, is unchecked
too; :mod:`slowmode.dispersion` validates c before calling it.

Algorithm map for ``_faddeeva`` (w(z) = exp(-z^2) erfc(-iz)):

* ``Im z < 0``  -- reflect with w(z) = 2 exp(-z^2) - w(-z).
* ``Re z < 0``  -- reflect with w(-conj(z)) = conj(w(z)).
* ``|z| <= 2.7``          -- Maclaurin series sum (iz)^n / Gamma(n/2 + 1).
* ``|z| >= 8 or Im z >= 1`` -- Lentz continued fraction.
* otherwise (moderate ``|z|`` close to the real axis) -- Taylor expansion
  in the imaginary offset about the real axis, seeded by the real-line
  values computed from exp(-x^2) and Dawson's integral.

The split keeps every branch inside its accurate region: the series
loses digits to cancellation once ``|z|`` grows, while the continued
fraction loses accuracy close to the real axis at moderate ``|z|``.
"""

import math

__all__ = ["erfcx", "faddeeva", "phi", "plasma_z", "plasma_z_deriv"]

_ISQRT_PI = 1.0 / math.sqrt(math.pi)
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)
_SQRT_HALF = math.sqrt(0.5)

# ln(largest double); 2 exp(u) with u above this overflows.
_EXP_LIMIT = 709.0

# 1 / Gamma(n/2 + 1) for the Maclaurin sum.
_INV_GAMMA = [1.0 / math.gamma(0.5 * n + 1.0) for n in range(129)]


def _check_finite_complex(z: complex, name: str) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} must be finite, got {z!r}")
    return z


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


def _w_series(x: float, y: float) -> complex:
    """Maclaurin sum of w(z) for small |z| (first quadrant input)."""
    iz = complex(-y, x)
    term = complex(1.0, 0.0)
    acc = complex(_INV_GAMMA[0], 0.0)
    small = 0
    for n in range(1, 129):
        term *= iz
        contrib = term * _INV_GAMMA[n]
        acc += contrib
        if abs(contrib.real) + abs(contrib.imag) < 1e-17 * (
            abs(acc.real) + abs(acc.imag)
        ):
            # Gamma(n/2+1) alternates growth rate between odd and even
            # n, so require two consecutive negligible terms.
            small += 1
            if small >= 2:
                break
        else:
            small = 0
    return acc


def _w_contfrac(x: float, y: float) -> complex:
    """Continued fraction for w(z), accurate away from the real axis.

    w(z) = (i/sqrt(pi)) / (z - (1/2)/(z - 1/(z - (3/2)/(z - ...))))
    evaluated with the modified Lentz algorithm.
    """
    z = complex(x, y)
    tiny = 1e-300
    f = complex(tiny, 0.0)
    c = f
    d = complex(0.0, 0.0)
    for j in range(1, 81):
        a = 1.0 if j == 1 else -0.5 * (j - 1)
        d = z + a * d
        if d == 0:
            d = complex(tiny, 0.0)
        c = z + a / c
        if c == 0:
            c = complex(tiny, 0.0)
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta.real - 1.0) + abs(delta.imag) < 1e-15:
            break
    return complex(0.0, _ISQRT_PI) * f


def _dawson(x: float) -> float:
    """Dawson integral for x > 0 by the sampled-Gaussian expansion.

    D(x) = (1/sqrt(pi)) sum over odd n of exp(-(x - n h)^2) / n with
    h = 0.25; the sampling error is O(exp(-(pi/(2h))^2)) ~ 7e-18.
    """
    h = 0.25
    n0 = 2 * int(0.5 * x / h + 0.5)
    xp = x - n0 * h
    acc = 0.0
    for k in range(1, 41, 2):
        up = xp - k * h
        if up * up < 45.0:
            acc += math.exp(-up * up) / (n0 + k)
        um = xp + k * h
        if um * um < 45.0:
            acc += math.exp(-um * um) / (n0 - k)
    return acc * _ISQRT_PI


def _w_taylor(x: float, y: float) -> complex:
    """Taylor expansion of w about the real axis for moderate |z|.

    Seeds with w(x) = exp(-x^2) + 2i D(x)/sqrt(pi) on the real line and
    uses w' = -2 z w + 2i/sqrt(pi), whence the Taylor coefficients obey
    t_{m+1} = -(2 x t_m + 2 t_{m-1}) / (m + 1).
    """
    t_prev = complex(math.exp(-x * x), 2.0 * _dawson(x) * _ISQRT_PI)
    t_cur = -2.0 * x * t_prev + complex(0.0, 2.0 * _ISQRT_PI)
    iy = complex(0.0, y)
    acc = t_prev + t_cur * iy
    power = iy
    for m in range(1, 65):
        t_next = -(2.0 * x * t_cur + 2.0 * t_prev) / (m + 1.0)
        power *= iy
        contrib = t_next * power
        acc += contrib
        if abs(contrib.real) + abs(contrib.imag) < 1e-17 * (
            abs(acc.real) + abs(acc.imag)
        ):
            break
        t_prev, t_cur = t_cur, t_next
    return acc


def _w_upper_right(x: float, y: float) -> complex:
    """w(z) in the closed first quadrant."""
    r2 = x * x + y * y
    if r2 <= 7.29:
        return _w_series(x, y)
    if r2 >= 64.0 or y >= 1.0:
        return _w_contfrac(x, y)
    return _w_taylor(x, y)


def _faddeeva(z: complex) -> complex:
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz) for complex z."""
    x = z.real
    y = z.imag
    if y < 0.0:
        # w(z) = 2 exp(-z^2) - w(-z); may overflow for deep lower
        # half-plane arguments, where |w| exceeds double range.
        ez = complex(y * y - x * x, -2.0 * x * y)
        w_neg = _faddeeva(complex(-x, -y))
        m = math.exp(ez.real)
        return complex(
            2.0 * m * math.cos(ez.imag) - w_neg.real,
            2.0 * m * math.sin(ez.imag) - w_neg.imag,
        )
    if x < 0.0:
        w = _w_upper_right(-x, y)
        return complex(w.real, -w.imag)
    return _w_upper_right(x, y)


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
    return _faddeeva(z)


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
            return complex(0.0, _phi(y))
        if 0.5 * y * y > _EXP_LIMIT:
            raise OverflowError(
                f"plasma_z({zeta!r}) exceeds double precision range"
            )
        # Z(iy) = i [2 sqrt(pi/2) exp(y^2/2) - phi(-y)] for y < 0.
        return complex(
            0.0,
            2.0 * _SQRT_HALF_PI * math.exp(0.5 * y * y) - _phi(-y),
        )
    w_arg = complex(zeta.real * _SQRT_HALF, zeta.imag * _SQRT_HALF)
    if w_arg.imag < 0.0 and w_arg.imag**2 - w_arg.real**2 > _EXP_LIMIT:
        raise OverflowError(
            f"plasma_z({zeta!r}) exceeds double precision range"
        )
    w = _faddeeva(w_arg)
    return complex(-_SQRT_HALF_PI * w.imag, _SQRT_HALF_PI * w.real)


def plasma_z_deriv(zeta: complex) -> complex:
    """Derivative Z'(zeta) = -(1 + zeta Z(zeta))."""
    zeta = _check_finite_complex(zeta, "plasma_z_deriv argument")
    return -(1.0 + zeta * plasma_z(zeta))
