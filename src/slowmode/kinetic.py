"""Direct kinetic solver: Hermite-grid discretization of one Fourier mode.

For a spatial Fourier mode with wave number k, the kinetic equation in
the square-root-Maxwellian representation g = f / sqrt(M) becomes

    dg/dt = A g,    A = -i k diag(v) - (1/tau) (I - s s^T),

discretized on a Gauss-Hermite velocity grid with nodes v_j and weights
omega_j (sum omega_j = 1), where s_j = sqrt(omega_j).  The symmetrized
collision term makes A normal-minus-antihermitian with numerical range
in Re <= 0, the density moment is rho = s^T g, and the initial state
g(0) = s corresponds to a pure density perturbation.

The operator's spectrum consists of a cluster of modes approximating the
continuum at Re = -1/tau plus, for tau k < sqrt(pi/2), one isolated real
eigenvalue converging spectrally (in the grid size) to the slow decay
rate from :mod:`slowmode.dispersion`.  Time integration of the density
trace therefore measures the decay rate a closure should reproduce.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import _validate_k, _validate_tau

__all__ = [
    "DecayResult",
    "DiscreteOperator",
    "SpectrumResult",
    "VelocityGrid",
    "build_operator",
    "fit_decay_rate",
    "gauss_hermite_grid",
    "operator_spectrum",
    "simulate_decay",
    "simulate_density",
]

_MIN_POINTS = 2
_MAX_POINTS = 256

#: Largest time steps x velocity nodes one simulation may take; the
#: ``expm`` route allocates an array of this size.  Default runs need
#: at most 4000 x 256, about 1e6.
_MAX_STEP_NODES = 2**24


@dataclass(frozen=True)
class VelocityGrid:
    """Gauss-Hermite velocity nodes and unit-Gaussian weights."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def q(self) -> int:
        return self.nodes.size


@dataclass(frozen=True)
class DiscreteOperator:
    """Generator of one Fourier mode on a velocity grid."""

    k: float
    tau: float
    grid: VelocityGrid
    matrix: np.ndarray


@dataclass(frozen=True)
class SpectrumResult:
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


@dataclass(frozen=True)
class DecayResult:
    """Fitted exponential decay of the density trace."""

    rate: float
    times: np.ndarray
    density: np.ndarray
    fit_start: float
    method: str


def gauss_hermite_grid(q: int) -> VelocityGrid:
    """Gauss-Hermite grid with q nodes, exact for unit-Gaussian moments
    of degree < 2q.

    Nodes and weights come from the physicists' Hermite rule rescaled to
    the weight exp(-v^2/2) / sqrt(2 pi): v = sqrt(2) x, omega = w / sqrt(pi).
    """
    q = int(q)
    if not _MIN_POINTS <= q <= _MAX_POINTS:
        raise ValueError(
            f"velocity grid size must be in {_MIN_POINTS}..{_MAX_POINTS}, got {q!r}"
        )
    x, w = np.polynomial.hermite.hermgauss(q)
    return VelocityGrid(nodes=x * math.sqrt(2.0), weights=w / math.sqrt(math.pi))


def build_operator(k: float, tau: float, grid: VelocityGrid) -> DiscreteOperator:
    """Assemble A = -i k diag(v) - (1/tau)(I - s s^T) on the given grid."""
    k = _validate_k(k)
    tau = _validate_tau(tau)
    if not math.isfinite(k * float(np.max(np.abs(grid.nodes)))):
        raise ValueError(
            f"wave number k = {k!r} is too large: k * max|v| overflows "
            f"on the {grid.q}-node velocity grid"
        )
    s = np.sqrt(grid.weights)
    matrix = np.outer(s, s).astype(complex) / tau
    matrix -= np.diag(1.0 / tau + 1j * k * grid.nodes)
    return DiscreteOperator(k=k, tau=tau, grid=grid, matrix=matrix)


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
    resolution = 0.1 / op.tau
    if gap_threshold is None:
        gap_threshold = resolution
    gap_threshold = float(gap_threshold)
    if not (math.isfinite(gap_threshold) and gap_threshold > 0.0):
        raise ValueError(
            f"gap threshold must be positive, got {gap_threshold!r}"
        )
    roundoff = np.finfo(float).eps * op.k * float(np.max(np.abs(op.grid.nodes)))
    if roundoff >= resolution:
        raise ValueError(
            f"wave number k = {op.k!r} is too large: the eigenvalue "
            f"roundoff {roundoff:.3g} reaches 0.1/tau = {resolution:.3g}"
        )
    eigenvalues = np.linalg.eigvals(op.matrix)
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
    v_max = float(np.max(np.abs(op.grid.nodes)))
    return min(0.01 * op.tau, 1.0 / (op.k * v_max + 1.0 / op.tau))


def simulate_density(
    op: DiscreteOperator,
    t_end: float | None = None,
    dt: float | None = None,
    method: str = "rk4",
) -> tuple[np.ndarray, np.ndarray]:
    """Density trace rho(t) = s^T g(t) from g(0) = s.

    ``method="rk4"``: A is constant, so a classical RK4 step is the fixed
    matrix P = sum_{j<=4} (dt A)^j / j!, built once in Horner form and
    applied as one matvec per step.  The exact flow is non-expansive, so
    ||P||_2 > 1 + 1e-9 raises ValueError ("reduce dt"); that one check
    covers every state.  ``method="expm"`` evaluates the exponential
    through the eigendecomposition; it shares no time-stepping error with
    RK4, and the two agree to ~1e-8.  More than 2**24 steps x velocity
    nodes raises ValueError before anything is allocated.
    """
    if t_end is None:
        t_end = 40.0 * op.tau
    t_end = float(t_end)
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ValueError(f"t_end must be positive, got {t_end!r}")
    if dt is None:
        dt = _default_dt(op)
        if dt > t_end:
            raise ValueError(
                f"t_end = {t_end!r} is shorter than the automatic time step "
                f"{dt!r}: raise t_end or pass a smaller dt"
            )
    dt = float(dt)
    if not (math.isfinite(dt) and 0.0 < dt <= t_end):
        raise ValueError(f"dt must be in (0, t_end], got {dt!r}")

    ratio = t_end / dt
    if ratio * op.grid.q > _MAX_STEP_NODES:
        raise ValueError(
            f"dt = {dt!r} needs {ratio:.3g} steps to reach t_end = {t_end!r}, "
            f"and steps x {op.grid.q} velocity nodes must stay within "
            f"{_MAX_STEP_NODES}: raise dt or lower t_end"
        )
    steps = max(1, math.ceil(ratio - 1e-12))
    times = np.linspace(0.0, steps * dt, steps + 1)
    s = np.sqrt(op.grid.weights).astype(complex)

    if method == "expm":
        lam, vectors = np.linalg.eig(op.matrix)
        amplitudes = np.linalg.solve(vectors, s)
        weights = vectors.T @ s  # row of s^T V
        density = (weights * amplitudes) @ np.exp(
            np.outer(lam, times)
        )
        return times, density

    if method != "rk4":
        raise ValueError(f"unknown integration method {method!r}")

    eye = np.eye(op.grid.q)
    with np.errstate(over="ignore", invalid="ignore"):
        p = eye + (dt / 4.0) * op.matrix
        for j in (3.0, 2.0, 1.0):
            p = eye + ((dt / j) * op.matrix) @ p
    norm = float(np.linalg.norm(p, 2)) if np.isfinite(p).all() else math.inf
    if norm > 1.0 + 1e-9:
        raise ValueError(
            f"dt = {dt!r} gives an expansive RK4 step, ||P||_2 = {norm:.6g}: reduce dt"
        )
    g = s
    density = np.empty(steps + 1, dtype=complex)
    density[0] = s @ g
    for n in range(1, steps + 1):
        g = p @ g
        density[n] = s @ g
    return times, density


def fit_decay_rate(times, density, fit_start: float | None = None) -> float:
    """Decay rate from a log-linear least-squares fit of |rho(t)|.

    Fits on t >= fit_start (default: the second half of the trace),
    where the fast continuum transient has died out.
    """
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
    """Integrate the mode and fit the asymptotic density decay rate."""
    times, density = simulate_density(op, t_end=t_end, dt=dt, method=method)
    fit_start = 0.5 * float(times[-1])
    rate = fit_decay_rate(times, density, fit_start)
    return DecayResult(
        rate=rate,
        times=times,
        density=density,
        fit_start=fit_start,
        method=method,
    )
