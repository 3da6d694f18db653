"""Direct kinetic solver: the Hermite-moment system of one Fourier mode.

For a spatial Fourier mode with wave number k, the kinetic equation in
the square-root-Maxwellian representation g = f / sqrt(M) is dg/dt = A g
with A = -i k v - (1/tau)(I - e_0 e_0^T), e_0 the density moment.  On
the orthonormal Hermite functions v is the Jacobi matrix, sqrt(n + 1)
off the diagonal, and keeping q moments gives the q-moment Grad system.
Scaling moment n by i^n makes it real and tridiagonal:

    T_00 = 0,  T_nn = -1/tau (n >= 1),  T_(n,n+1) = k sqrt(n+1) = -T_(n+1,n),

with density trace rho(t) = e_0^T exp(t T) e_0 from g(0) = e_0.  The
q x q Jacobi matrix has the q-node Gauss-Hermite rule as its spectral
data (Golub and Welsch, Math. Comp. 23 (1969) 221), so T is similar to
A on a q-node velocity grid: q moments and q nodes name one system.
T's symmetric part is diag(0, -1/tau, ...), so the flow is
non-expansive and every eigenvalue has real part in [-1/tau, 0].

T is held as its three diagonals, so ``build_operator`` allocates
nothing q x q; the dense matrix is written when read, for the
eigensolver, by the band scatter that writes the integrators' Taylor
polynomials (T is the degree-1 one).  It is stored highest moment
first, moment n at index q - 1 - n, so the density vector is e_(q-1).
LAPACK's QR iteration deflates from the bottom of the matrix; with the
density and low moments there, ``eigvals`` at 256 moments takes about
two thirds of its time in the natural order.  The largest node v_max,
the largest zero of He_q, sets the default time step and the overflow
and roundoff checks.

The operator's spectrum consists of a cluster of modes approximating the
continuum at Re = -1/tau plus, for tau k < sqrt(pi/2), one isolated real
eigenvalue converging spectrally (in q) to the slow decay rate from
:mod:`slowmode.dispersion`.  Time integration of the density trace
therefore measures the decay rate a closure should reproduce.  Both
integrators, RK4 and the exact exponential, step with a Taylor
polynomial of the propagator squared up from a short step, so only
``operator_spectrum`` calls a general eigensolver.  The degree-d
polynomial is built from T's three diagonals on its own 2d + 1 in
O(d^2 q), and written into a dense q x q matrix in O(q^2); the
squarings, and RK4's norm check, are the only q x q matrix products,
O(q^3) each.  They run in the polynomial's matrix and two more q x q
buffers, allocated once per simulation and reused by every squaring,
and the powers they form also give the first rows of the trace's
split (see ``simulate_density``).

This is the one layer that needs numpy.  Each function imports it in its
own body, so importing the module, and every refusal made before the
first array is built, leaves numpy unloaded.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import (
    _validate_count,
    _validate_dt,
    _validate_nonnegative,
    _validate_positive,
    _validate_t_end,
    _validate_tau,
)

__all__ = [
    "DecayResult",
    "DiscreteOperator",
    "SpectrumResult",
    "build_operator",
    "fit_decay_rate",
    "operator_spectrum",
    "simulate_decay",
    "simulate_density",
]

#: Largest time steps x moments one simulation may take; it bounds the
#: time and density arrays of the trace.  Default runs need at most
#: 4000 x 256, about 1e6.
_MAX_STEP_NODES = 2**24


class DiscreteOperator(NamedTuple):
    """Generator of one Fourier mode with q Hermite moments.

    ``diagonals`` is the real tridiagonal q x q matrix T of the module
    docstring, highest moment first, held as the 3 x q array whose
    column i is T[i, i-1], T[i, i] and T[i, i+1], zero off the matrix;
    ``matrix`` writes the dense T from it through ``_taylor_part``.
    ``density_vector`` is e_(q-1), the density moment in that order.
    ``v_max`` is the largest node of the equivalent q-node velocity
    grid.
    """

    k: float
    tau: float
    v_max: float
    diagonals: np.ndarray
    density_vector: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """The dense q x q T, a new array on each read.

        T is the degree-1 Taylor part of exp(hT) - I at h = 1, so
        ``_taylor_part`` writes it: at degree 1 its Horner loop is
        empty, its C = (1/1) T is an exact copy of ``diagonals``, and
        its scatter assigns each entry rather than summing it, so a -0.0
        on a diagonal stays -0.0.
        """
        return _taylor_part(self.diagonals, 1.0, 1)


class SpectrumResult(NamedTuple):
    """Eigenvalues sorted by decreasing real part.

    ``hydrodynamic`` is the isolated slow eigenvalue, or None when no
    eigenvalue is separated from the rest by at least ``gap_threshold``
    (the slow mode has merged into the continuum cluster).
    """

    eigenvalues: np.ndarray
    hydrodynamic: complex | None
    gap: float
    gap_threshold: float
    essential_rate: float


class DecayResult(NamedTuple):
    """Fitted exponential decay of the density trace.

    ``rate`` is ``fit_decay_rate``'s default fit, on t >= times[-1] / 2.
    """

    rate: float
    times: np.ndarray
    density: np.ndarray
    method: str


def _largest_node(q: int) -> float:
    """Largest zero of He_q, the largest q-node Gauss-Hermite node.

    Newton's method from sqrt(4q + 2), above every zero (those of the
    physicists' H_q lie below sqrt(2q + 1)), decreases monotonically to
    it.  He_q / He_q' = r_q / q with the ratios
    r_n = He_n / He_(n-1) = v - (n - 1) / r_(n-1), r_1 = v, which stay
    positive above the zeros and never overflow.
    """
    v = math.sqrt(4 * q + 2)
    while True:
        r = v
        for n in range(1, q):
            r = v - n / r
        lower = v - r / q
        if not lower < v:
            return v
        v = lower


def build_operator(k: float, tau: float, q: int) -> DiscreteOperator:
    """The q-moment generator T and density vector e_(q-1).

    Raises ValueError for q outside 2..256, a negative or non-finite k,
    a bad tau, or a k so large that k * v_max overflows, before numpy
    loads.
    """
    q = _validate_count(q, "velocity grid size", 2, 256)
    k = _validate_nonnegative(k, "wave number k")
    tau = _validate_tau(tau)
    v_max = _largest_node(q)
    if not math.isfinite(k * v_max):
        raise ValueError(
            f"wave number k = {k!r} is too large: k * max|v| overflows "
            f"on the {q}-node velocity grid"
        )
    import numpy as np

    diagonals = np.zeros((3, q))
    diagonals[0, 1:] = k * np.sqrt(np.arange(q - 1.0, 0.0, -1.0))
    diagonals[1, :-1] = -1.0 / tau
    diagonals[2, :-1] = -diagonals[0, 1:]
    density = np.zeros(q)
    density[-1] = 1.0
    return DiscreteOperator(k=k, tau=tau, v_max=v_max, diagonals=diagonals, density_vector=density)


def operator_spectrum(
    op: DiscreteOperator, gap_threshold: float | None = None
) -> SpectrumResult:
    """Eigenvalues of the discrete generator with slow-mode identification.

    The candidate slow mode is the eigenvalue of largest real part; it
    counts as isolated only when its real-part gap to the next
    eigenvalue reaches ``gap_threshold`` (default 0.1/tau).

    Every eigenvalue has real part in [-1/tau, 0].  Raises ValueError
    when the wave number is so large that the eigensolver's roundoff,
    eps k max|v|, reaches a tenth of that range: the real parts, and so
    every gap, are then noise, whatever threshold is asked for.
    """
    import numpy as np

    resolution = 0.1 / op.tau
    if gap_threshold is None:
        gap_threshold = resolution
    gap_threshold = _validate_positive(gap_threshold, "gap threshold")
    roundoff = np.finfo(float).eps * op.k * op.v_max
    if roundoff >= resolution:
        raise ValueError(
            f"wave number k = {op.k!r} is too large: the eigenvalue "
            f"roundoff {roundoff:.3g} reaches 0.1/tau = {resolution:.3g}"
        )
    eigenvalues = np.linalg.eigvals(op.matrix).astype(complex)
    order = np.lexsort((eigenvalues.imag, -eigenvalues.real))
    eigenvalues = eigenvalues[order]
    gap = float(eigenvalues[0].real - eigenvalues[1].real)
    hydrodynamic = complex(eigenvalues[0]) if gap >= gap_threshold else None
    return SpectrumResult(
        eigenvalues=eigenvalues,
        hydrodynamic=hydrodynamic,
        gap=gap,
        gap_threshold=gap_threshold,
        essential_rate=-1.0 / op.tau,
    )


def _default_dt(op: DiscreteOperator) -> float:
    """Step small enough for the stiffest advection frequency k v_max."""
    rate = op.k * op.v_max + 1.0 / op.tau
    if rate == math.inf:  # 1/tau near the double range: scale by tau
        return min(0.01 * op.tau, op.tau / (op.tau * op.k * op.v_max + 1.0))
    return min(0.01 * op.tau, 1.0 / rate)


def _square(y: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Write 2Y + Y^2, the Y of P^2 = I + 2Y + Y^2 for P = I + Y, into
    ``out``, with every entry below 2^-500 max|Y| set to zero.

    One matrix product, O(q^3), into ``out``, and two more q x q
    buffers the caller owns: Y itself and ``scratch``, so a run of
    squarings that alternates ``out`` and Y allocates nothing q x q.
    2Y goes into ``scratch`` and is added to the product in place (a
    two-term sum commutes, so the sum is bit for bit 2.0 * Y + Y @ Y).
    max|2Y + Y^2| comes from its two extremes, and the entries strictly
    between plus and minus the threshold, those whose magnitude is
    below it, are marked in two masks laid over ``scratch``'s bytes.
    The dropped entries move Y by at most q 2^-500 max|Y| in norm, far
    below one rounding, and keep the operands of the next squaring
    clear of subnormal numbers, which slow the product several-fold.
    """
    import numpy as np

    np.matmul(y, y, out=out)
    out += np.multiply(y, 2.0, out=scratch)
    # A NaN makes both extremes, and so the threshold, NaN: nothing drops.
    threshold = math.ldexp(max(float(out.max()), -float(out.min())), -500)
    below, above = scratch.reshape(-1).view(np.bool_)[: 2 * out.size].reshape(2, *out.shape)
    np.less(out, threshold, out=below)
    np.greater(out, -threshold, out=above)
    out[np.logical_and(below, above, out=below)] = 0.0


def _taylor_part(diagonals: np.ndarray, h: float, degree: int) -> np.ndarray:
    """Y = hT(I + hT/2(I + ... (I + hT/d))), the degree-d Taylor
    polynomial of exp(hT) less the identity, for the tridiagonal T
    given as its ``DiscreteOperator.diagonals``.

    Y is a polynomial of degree d in T, so it has d diagonals on either
    side of its own, and each Horner step Y <- C + C Y, C = (h/j) T,
    runs on those 2d + 1 diagonals alone: C Y is a row-scaled copy of
    Y plus the rows above and below it scaled by C's sub- and
    super-diagonals.  That is O(d q) per degree, O(d^2 q) in all, where
    a q x q matrix product is O(q^3).  The band is then written, one
    diagonal at a time, straight into a zeroed q x q Y, the one q x q
    array this allocates.
    """
    import numpy as np

    q = diagonals.shape[1]
    width = 2 * degree + 1
    c = (h / np.arange(1.0, degree + 1.0))[:, None, None] * diagonals  # C for j = 1..d
    band = np.zeros((width, q))  # band[degree + o, i] = Y[i, i + o]
    middle = slice(degree - 1, degree + 2)
    band[middle] = c[-1]
    c = c[-2::-1]  # j = d - 1 down to 1; T[i, i-1] from row 1, T[i, i+1] to row q - 2
    for scaled, lower, diagonal, upper in zip(c, c[:, 0, 1:], c[:, 1], c[:, 2, :-1]):
        z = diagonal * band
        z[:-1, 1:] += lower * band[1:, :-1]
        z[1:, :-1] += upper * band[:-1, 1:]
        z[middle] += scaled
        band = z
    # Y[i, i + o] is entry i (q + 1) + o of Y's rows laid end to end;
    # the band entries off the matrix are left out.
    y = np.zeros((q, q))
    flat = y.reshape(-1)
    for o in range(max(-degree, 1 - q), min(degree, q - 1) + 1):
        if o >= 0:
            flat[o :: q + 1][: q - o] = band[degree + o, : q - o]
        else:
            flat[-o * q :: q + 1] = band[degree + o, -o:]
    return y


def _step_norm(y: np.ndarray, p: np.ndarray, gram: np.ndarray) -> float:
    """||P||_2 for P = I + Y, formed in the q x q buffers ``p`` and
    ``gram``: the root of the largest eigenvalue of P^T P, one
    symmetric eigensolve in place of a full SVD.  A non-finite P gives
    a non-finite P^T P, as does an overflowing product, and the norm
    is then infinite.  Y + 0.0 turns -0.0 into 0.0, so P is bit for
    bit ``np.eye(q) + y``."""
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        np.add(y, 0.0, out=p)
        p.reshape(-1)[:: y.shape[0] + 1] += 1.0
        np.matmul(p.T, p, out=gram)
    return math.sqrt(np.linalg.eigvalsh(gram)[-1]) if np.isfinite(gram).all() else math.inf


def simulate_density(
    op: DiscreteOperator,
    t_end: float | None = None,
    dt: float | None = None,
    method: str = "rk4",
) -> tuple[np.ndarray, np.ndarray]:
    """Density trace rho(t) = e^T g(t) from g(0) = e, as float64, with
    e = ``op.density_vector``.

    Both methods step with one fixed matrix P = I + Y, with Y the
    degree-d Taylor polynomial of exp(hT) less the identity,
    Y = hT(I + hT/2(I + ... (I + hT/d))), built in Horner form and then
    squared s times as Y <- 2Y + Y^2, so that P is I + Y at
    dt = 2^s h.  With the identity kept out of every product, rounding
    does not compound as it does under plain repeated squaring of P.
    The Horner steps apply hT/j as T's three diagonals to Y's 2d + 1
    diagonals (see ``_taylor_part``): O(d^2 q), and O(q^2) to write Y
    out, in place of d - 1 dense products, O(d q^3).

    ``method="rk4"`` is d = 4 at h = dt, the classical RK4 step.  The
    exact flow is non-expansive, so ||P||_2 > 1 + 1e-9 raises
    ValueError ("reduce dt"); that one check covers every state.
    ``method="expm"`` is the exponential itself, by scaling and squaring
    (Moler and Van Loan, SIAM Rev. 45 (2003) 3): s brings ||hT||_inf into
    [1/8, 1/2), or is 0 when ||dt T||_inf is below that already, and d is
    the first degree whose Taylor remainder bound falls below 2^-53.
    It shares no time-stepping error with RK4, and the two agree to
    ~1e-8; any dt and t_end in the double range give a finite trace.

    Each step index is then split as n = a + m b with m the smallest
    power of two such that m^2 exceeds the step count, so rho_n is the
    product of a head row e^T P^a (a < m) and a tail row P^(m b) e.
    The head is read off log2(m) more squarings, Y_j -> Y_2j for
    Y_j = P^j - I: before each, rows j..2j - 1 become rows 0..j - 1
    plus their product with Y_j, so log2(m) block products build it
    and no head row carries more than log2(m) such steps.  The last
    squaring leaves P^m = I + Y_m, which steps the tail row by row as
    r + Y_m r, about N/m vector products: s + log2(m) matrix products
    in all instead of one vector product per step (RK4 adds one
    product and a symmetric eigensolve for its check).  Every
    squaring drops the entries below 2^-500 max|Y| (see ``_square``),
    and the scaling squarings stop once Y no longer changes.  The q x q
    working set is Y and two buffers allocated once per call: each
    squaring writes into one and the other is its scratch, RK4's check
    forms P and P^T P in them, and both are released before the tail
    rows are stepped.  A last
    step past the double range raises ValueError, as do, before any
    allocation, an unknown method, a default t_end = 40 tau that
    overflows, and more than 2**24 steps x nodes.
    """
    import numpy as np

    if method not in ("rk4", "expm"):
        raise ValueError(f"unknown integration method {method!r}")
    t_end = _validate_t_end(t_end, op.tau)
    if dt is None:
        dt = _default_dt(op)
        if dt > t_end:
            raise ValueError(
                f"t_end = {t_end!r} is shorter than the automatic time step "
                f"{dt!r}: raise t_end or pass a smaller dt"
            )
    dt = _validate_dt(dt, t_end)

    ratio = t_end / dt
    q = op.diagonals.shape[1]
    if ratio * q > _MAX_STEP_NODES:
        raise ValueError(
            f"dt = {dt!r} needs {ratio:.3g} steps to reach t_end = {t_end!r}, "
            f"and steps x {q} velocity nodes must stay within "
            f"{_MAX_STEP_NODES}: raise dt or lower t_end"
        )
    steps = max(1, math.ceil(ratio - 1e-12))
    if not math.isfinite(steps * dt):
        raise ValueError(f"{steps} steps of dt = {dt!r} end past the double range")
    times = np.arange(steps + 1.0)  # scaled in place: times[n] is n dt rounded once
    times *= dt

    # The least power of two m >= 2 with m^2 > steps: 2^L > steps >= 2^(L-1)
    # for L = steps.bit_length().
    m = 1 << max(1, (steps.bit_length() + 1) // 2)

    degree, squarings = 4, 0
    if method == "expm":
        # ||T||_inf / 4 as T's row sums, read off its diagonals; a quarter
        # of the norm stays finite where the norm itself would overflow.
        # ||dt T||_inf = 4 dt quarter < 2^(e_dt + e_quarter + 2) by frexp,
        # which neither overflows nor rounds; so theta = ||hT||_inf < 1/2.
        quarter = float(np.abs(0.25 * op.diagonals).sum(axis=0).max())
        squarings = max(0, math.frexp(dt)[1] + math.frexp(quarter)[1] + 3)
        theta = quarter * math.ldexp(dt, 2 - squarings)
        # With theta < 1/2 the remainder past degree d = n - 1 is below
        # theta^n/n! / (1 - theta/(n+1)) < 2 theta^n/n!.
        degree = next(n for n in range(2, 64) if theta**n < math.ldexp(math.factorial(n), -54)) - 1
    h = math.ldexp(dt, -squarings)
    with np.errstate(over="ignore", invalid="ignore"):
        y = _taylor_part(op.diagonals, h, degree)
    # Y and these two are the q x q working set: every squaring writes
    # into ``spare``, which then trades places with Y.
    spare, scratch = np.empty((q, q)), np.empty((q, q))
    if method == "rk4":
        norm = _step_norm(y, spare, scratch)
        if norm > 1.0 + 1e-9:
            raise ValueError(
                f"dt = {dt!r} gives an expansive RK4 step, ||P||_2 = {norm:.6g}: reduce dt"
            )
    for _ in range(squarings):
        _square(y, spare, scratch)
        y, spare = spare, y
        if np.array_equal(y, spare):  # a fixed point stays fixed
            break
    # Rows j..2j - 1 of the head are rows 0..j - 1 times P^j = I + Y_j,
    # taken before Y_j is squared to Y_2j: log2(m) block products.
    head = np.empty((m, q))
    head[0] = op.density_vector
    j = 1
    while j < m:
        np.matmul(head[:j], y, out=head[j : 2 * j])
        head[j : 2 * j] += head[:j]
        _square(y, spare, scratch)
        y, spare = spare, y
        j *= 2
    del spare, scratch
    # ndarray.dot with out= skips matmul's ufunc overhead, about half a
    # microsecond in each of ~N/m calls; it would copy a strided y on
    # every call, and each y here is contiguous.
    tail = np.empty((math.ceil((steps + 1) / m), q))
    tail[0] = op.density_vector
    for previous, row in zip(tail, tail[1:]):
        y.dot(previous, out=row)
        row += previous
    density = (tail @ head.T).reshape(-1)[: steps + 1]
    return times, density


def fit_decay_rate(times, density, fit_start: float | None = None) -> float:
    """Decay rate from a log-linear least-squares fit of |rho(t)|.

    Fits on t >= fit_start (default: times[-1] / 2, the second half of
    the trace), where the fast continuum transient has died out.
    Raises ValueError unless ``times`` is finite and 1-D, ``density``
    has its shape, and the window holds two distinct times at which
    the density is finite and nonzero.
    """
    import numpy as np

    times = np.asarray(times, dtype=float)
    density = np.asarray(density)
    if times.ndim != 1 or density.shape != times.shape or times.size < 2:
        raise ValueError("times and density must be equal-length 1-D arrays")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if fit_start is None:
        fit_start = 0.5 * float(times[-1])
    window = times >= float(fit_start)
    t = times[window]
    if t.size < 2 or not t[-1] > t[0]:
        raise ValueError(
            f"fit window starting at {fit_start!r} spans fewer than 2 distinct times"
        )
    magnitude = np.abs(density[window])
    if not np.all(np.isfinite(magnitude)):
        raise ValueError("density trace is not finite inside the fit window")
    if not np.all(magnitude > 0.0):
        raise ValueError("density trace vanishes inside the fit window")
    span = float(t[-1] - t[0])  # fit on [0, 1]: polyfit's sqrt(sum t^2) underflows
    return float(np.polyfit((t - t[0]) / span, np.log(magnitude), 1)[0] / span)


def simulate_decay(
    op: DiscreteOperator,
    t_end: float | None = None,
    dt: float | None = None,
    method: str = "rk4",
) -> DecayResult:
    """Integrate the mode and fit the asymptotic density decay rate.

    The fit needs two steps: a dt that reaches t_end in one raises ValueError.
    """
    times, density = simulate_density(op, t_end=t_end, dt=dt, method=method)
    if times.size < 3:
        raise ValueError(
            f"dt = {float(times[1])!r} reaches t_end in one step, and the decay "
            "fit needs at least two: lower dt or raise t_end"
        )
    rate = fit_decay_rate(times, density)
    return DecayResult(
        rate=rate,
        times=times,
        density=density,
        method=method,
    )
