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

T is stored highest moment first, moment n at index q - 1 - n, so the
density vector is e_(q-1).  LAPACK's QR iteration deflates from the
bottom of the matrix; with the density and low moments there,
``eigvals`` at 256 moments takes about two thirds of its time in the
natural order (34 against 51 ms on a 2-vCPU host).  The largest node
v_max, the largest zero of He_q, sets the default time step and the
overflow and roundoff checks.

The operator's spectrum consists of a cluster of modes approximating the
continuum at Re = -1/tau plus, for tau k < sqrt(pi/2), one isolated real
eigenvalue converging spectrally (in q) to the slow decay rate from
:mod:`slowmode.dispersion`.  Time integration of the density trace
therefore measures the decay rate a closure should reproduce.  Both
integrators, RK4 and the exact exponential, step with a Taylor
polynomial of the propagator squared up from a short step, so only
``operator_spectrum`` calls an eigensolver.

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

    ``matrix`` is the real tridiagonal q x q matrix T of the module
    docstring, highest moment first, and ``density_vector`` is
    e_(q-1), the density moment in that order.  ``v_max`` is the
    largest node of the equivalent q-node velocity grid.
    """

    k: float
    tau: float
    v_max: float
    matrix: np.ndarray
    density_vector: np.ndarray


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
    """Fitted exponential decay of the density trace."""

    rate: float
    times: np.ndarray
    density: np.ndarray
    fit_start: float
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

    t = np.diag(np.full(q, -1.0 / tau))
    t[-1, -1] = 0.0
    below = np.arange(1, q)
    t[below, below - 1] = k * np.sqrt(np.arange(q - 1.0, 0.0, -1.0))
    t[below - 1, below] = -t[below, below - 1]
    density = np.zeros(q)
    density[-1] = 1.0
    return DiscreteOperator(k=k, tau=tau, v_max=v_max, matrix=t, density_vector=density)


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


def _square(y: np.ndarray) -> np.ndarray:
    """2Y + Y^2, the Y of P^2 = I + 2Y + Y^2 for P = I + Y, with every
    entry below 2^-500 max|Y| set to zero.

    The dropped entries move Y by at most q 2^-500 max|Y| in norm, far
    below one rounding, and keep the operands of the next squaring
    clear of subnormal numbers, which slow the product several-fold.
    """
    y = 2.0 * y + y @ y
    y[abs(y) < math.ldexp(float(abs(y).max()), -500)] = 0.0
    return y


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

    ``method="rk4"`` is d = 4 at h = dt, the classical RK4 step.  The
    exact flow is non-expansive, so ||P||_2 > 1 + 1e-9 raises
    ValueError ("reduce dt"); that one check covers every state.
    ``method="expm"`` is the exponential itself, by scaling and squaring
    (Moler and Van Loan, SIAM Rev. 45 (2003) 3): s brings ||hT||_1 into
    [1/8, 1/2), or is 0 when ||dt T||_1 is below that already, and d is
    the first degree whose Taylor remainder bound falls below 2^-53.
    It shares no time-stepping error with RK4, and the two agree to
    ~1e-8; any dt and t_end in the double range give a finite trace.

    Each step index is then split as n = a + m b with m the smallest
    power of two such that m^2 exceeds the step count, so rho_n is the
    product of a head row e^T P^a (a < m), stepped as r + r Y, and a
    tail row P^(m b) e, stepped by P^m = I + Y_m with Y_m from
    log2(m) more squarings: about 2 m vector products and a few matrix
    products instead of one vector product per step.  Every squaring
    drops the entries below 2^-500 max|Y| (see ``_square``), and the
    scaling squarings stop once Y no longer changes.  A last
    step past the double range raises ValueError, as do, before any
    allocation, more than 2**24 steps x nodes.
    """
    import numpy as np

    if t_end is None:
        t_end = 40.0 * op.tau
    t_end = _validate_positive(t_end, "t_end")
    if dt is None:
        dt = _default_dt(op)
        if dt > t_end:
            raise ValueError(
                f"t_end = {t_end!r} is shorter than the automatic time step "
                f"{dt!r}: raise t_end or pass a smaller dt"
            )
    dt = _validate_dt(dt, t_end)

    ratio = t_end / dt
    q = op.matrix.shape[0]
    if ratio * q > _MAX_STEP_NODES:
        raise ValueError(
            f"dt = {dt!r} needs {ratio:.3g} steps to reach t_end = {t_end!r}, "
            f"and steps x {q} velocity nodes must stay within "
            f"{_MAX_STEP_NODES}: raise dt or lower t_end"
        )
    steps = max(1, math.ceil(ratio - 1e-12))
    if not math.isfinite(steps * dt):
        raise ValueError(f"{steps} steps of dt = {dt!r} end past the double range")
    times = np.linspace(0.0, steps * dt, steps + 1)

    # The least power of two m >= 2 with m^2 > steps: 2^L > steps >= 2^(L-1)
    # for L = steps.bit_length().
    m = 1 << max(1, (steps.bit_length() + 1) // 2)

    degree, squarings = 4, 0
    if method == "expm":
        # ||dt T||_1 = 4 dt quarter < 2^(e_dt + e_quarter + 2) by frexp,
        # which neither overflows nor rounds; so theta = ||hT||_1 < 1/2.
        quarter = float(abs(0.25 * op.matrix).sum(axis=0).max())
        squarings = max(0, math.frexp(dt)[1] + math.frexp(quarter)[1] + 3)
        theta = 4.0 * quarter * math.ldexp(dt, -squarings)
        # With theta < 1/2 the remainder past degree d = n - 1 is below
        # theta^n/n! / (1 - theta/(n+1)) < 2 theta^n/n!.
        degree = next(n for n in range(2, 64) if theta**n < math.ldexp(math.factorial(n), -54)) - 1
    elif method != "rk4":
        raise ValueError(f"unknown integration method {method!r}")
    h = math.ldexp(dt, -squarings)
    with np.errstate(over="ignore", invalid="ignore"):
        y = (h / degree) * op.matrix
        for j in range(degree - 1, 0, -1):
            c = (h / j) * op.matrix
            y = c + c @ y
    if method == "rk4":
        # ||P||_2 is the root of the largest eigenvalue of P^T P: one
        # symmetric eigensolve in place of a full SVD.  A non-finite P
        # gives a non-finite P^T P, as does an overflowing product.
        with np.errstate(over="ignore", invalid="ignore"):
            p = np.eye(q) + y
            gram = p.T @ p
        norm = math.sqrt(np.linalg.eigvalsh(gram)[-1]) if np.isfinite(gram).all() else math.inf
        if norm > 1.0 + 1e-9:
            raise ValueError(
                f"dt = {dt!r} gives an expansive RK4 step, ||P||_2 = {norm:.6g}: reduce dt"
            )
    for _ in range(squarings):
        y, previous = _square(y), y
        if np.array_equal(y, previous):  # a fixed point stays fixed
            break
    head = np.empty((m, q))
    head[0] = op.density_vector
    for a in range(1, m):
        head[a] = head[a - 1] + head[a - 1] @ y
    for _ in range(m.bit_length() - 1):
        y = _square(y)
    tail = np.empty((math.ceil((steps + 1) / m), q))
    tail[0] = op.density_vector
    for b in range(1, tail.shape[0]):
        tail[b] = tail[b - 1] + y @ tail[b - 1]
    density = (tail @ head.T).reshape(-1)[: steps + 1]
    return times, density


def fit_decay_rate(times, density, fit_start: float | None = None) -> float:
    """Decay rate from a log-linear least-squares fit of |rho(t)|.

    Fits on t >= fit_start (default: the second half of the trace),
    where the fast continuum transient has died out.
    """
    import numpy as np

    times = np.asarray(times, dtype=float)
    density = np.asarray(density)
    if times.ndim != 1 or times.size != density.size or times.size < 2:
        raise ValueError("times and density must be equal-length 1-D arrays")
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
    fit_start = 0.5 * float(times[-1])
    rate = fit_decay_rate(times, density, fit_start)
    return DecayResult(
        rate=rate,
        times=times,
        density=density,
        fit_start=fit_start,
        method=method,
    )
