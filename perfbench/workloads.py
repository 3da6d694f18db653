"""Seeded op lists for the slowmode CLI benchmark.

An op is one ``slowmode`` invocation: the argv after the program name.
``generate(workload, seed)`` returns the same list for the same seed.
The seed moves every float the program sees (tau, wave numbers, grid
ends), the truncation orders, which refusal is sent and the op order;
the slots below fix each op's size, so the work in one list, and with
it every timing, stays nearly the same from seed to seed.

Every workload runs every command at least once, so each one reports
every end-to-end metric and reaches every layer in the traced run; the
ops outside a workload's focus are small "probes", one per command.
Every workload also sends two refusals that must exit 2 without a
traceback.  Each list is kept to about four seconds of ops, so that a
run repeats it often enough for per-op medians to settle.
"""

import math
import random
from dataclasses import dataclass

CRITICAL = math.sqrt(0.5 * math.pi)

#: Where ``--svg`` figures go, relative to the checkout root.
SVG_DIR = ".bench_build/perfbench/svg"

#: Known defects no workload runs, and why.
KNOWN_DEFECTS = (
    {
        "argv": ["ce", "--order", "151..200"],
        "defect": "runs 60-90 s per op, then raises OverflowError and exits 1",
        "why_not_run": "one op would outlast the benchmark's time budget",
    },
    {
        "argv": ["simulate", "--points", "1", "--dt", "1e-9"],
        "defect": "asks for 298 GiB and exits 1 with an uncaught MemoryError",
        "why_not_run": "an allocation that size is unsafe on a shared machine",
    },
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``refusal`` ops must exit 2."""

    argv: tuple[str, ...]
    refusal: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]

    def flag(self, name: str, default=None):
        """Value following ``name`` in argv, or ``default``."""
        if name in self.argv:
            return self.argv[self.argv.index(name) + 1]
        return default


def _f(x: float) -> str:
    return repr(float(x))


class _OpList:
    """Collects ops for one workload from one seeded generator."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.ops: list[Op] = []

    def _tau(self, decades: float = 1.0) -> float:
        return 10.0 ** self.rng.uniform(-decades, decades)

    def _svg(self, argv: list[str]) -> None:
        argv += ["--svg", f"{SVG_DIR}/op{len(self.ops):03d}.svg"]

    def add(self, argv: list[str], fmt: str = "csv", refusal: bool = False) -> None:
        if fmt == "json":
            argv += ["--format", "json"]
        self.ops.append(Op(tuple(argv), refusal))

    def branch(self, points: int, x_hi: float | None, x_lo: float = 0.0, fmt="csv"):
        """Branch on ``points`` nodes of tau k in [x_lo, x_hi) (None: critical)."""
        tau = self._tau()
        points = round(points * self.rng.uniform(0.99, 1.01))
        argv = ["branch", "--tau", _f(tau), "--points", str(points)]
        if x_lo:
            argv += ["--kmin", _f(x_lo / tau)]
        if x_hi is not None:
            argv += ["--kmax", _f(x_hi / tau)]
        self.add(argv, fmt)

    def compare(self, points: int, orders: list[int], svg=False, fmt="csv"):
        argv = ["compare", "--tau", _f(self._tau()), "--points", str(points)]
        argv += ["--orders", ",".join(str(n) for n in orders)]
        if svg:
            self._svg(argv)
        self.add(argv, fmt)

    def low_orders(self) -> tuple[list[int], list[int]]:
        """Two disjoint sets of two odd and two even orders from 1..8.

        The odd pair sums to 8 and the even pair to 10, so the work a
        set costs does not depend on which orders the seed picks.
        """
        odd = self.rng.sample([(1, 7), (3, 5)], 2)
        even = self.rng.sample([(2, 8), (4, 6)], 2)
        return sorted(odd[0] + even[0]), sorted(odd[1] + even[1])

    def high_orders(self, top: int) -> list[int]:
        """``top``, an odd pair summing to ``top`` and one even order."""
        a = self.rng.randrange(1, top // 2, 2)
        return sorted({a, top - a, self.rng.randrange(2, top, 2), top})

    def ce(self, order: int, fmt="csv"):
        self.add(["ce", "--order", str(order)], fmt)

    def simulate(self, q: int, shape: str, method="rk4", fmt="csv"):
        """Two wave numbers: ``sub`` both below tau k = 0.65, ``super``
        both beyond the critical point, ``mixed`` one of each; or
        ``one``, a single one below tau k = 0.3."""
        tau = self._tau(0.5)
        u = self.rng.uniform
        if shape == "one":
            argv = ["simulate", "--tau", _f(tau), "--points", "1"]
            argv += ["--kmin", _f(u(0.05, 0.3) / tau)]
        else:
            x0, x1 = {
                "sub": (u(0.05, 0.3), u(0.35, 0.65)),
                "mixed": (u(0.05, 0.6), u(1.3, 2.4)),
                "super": (u(1.3, 1.8), u(1.9, 2.4)),
            }[shape]
            # A two-node grid is [kmin, kmin + (kmax - kmin) / 2].
            argv = ["simulate", "--tau", _f(tau), "--points", "2"]
            argv += ["--kmin", _f(x0 / tau), "--kmax", _f((2.0 * x1 - x0) / tau)]
        argv += ["--velocities", str(q), "--method", method]
        self.add(argv, fmt)

    def spectrum(self, q: int, x: float, svg=False, fmt="csv"):
        tau = self._tau(0.5)
        argv = ["spectrum", "--tau", _f(tau), "--k", _f(x / tau), "--velocities", str(q)]
        if svg:
            self._svg(argv)
        self.add(argv, fmt)

    def spectrum_x(self) -> float:
        """Scaled wave number well away from where the slow mode merges."""
        if self.rng.random() < 0.7:
            return self.rng.uniform(0.05, 0.65)
        return self.rng.uniform(1.3, 2.5)

    def refusal(self, command: str):
        """One invalid request of ``command``; the argv must exit 2."""
        rng = self.rng
        bad_float = rng.choice(["nan", "inf", "-inf", _f(-rng.uniform(0.1, 10.0)), "0"])
        choices = {
            "branch": [
                ["--tau", bad_float],
                ["--points", str(-rng.randint(0, 5))],
                ["--kmin", "0.5", "--kmax", _f(rng.uniform(0.0, 0.5))],
            ],
            "compare": [
                ["--tau", bad_float],
                ["--points", str(-rng.randint(0, 5))],
                ["--orders", f"0,{rng.randint(1, 8)}"],
            ],
            "ce": [
                ["--order", str(-rng.randint(0, 50))],
                ["--order", str(rng.randint(201, 10**6))],
            ],
            "simulate": [
                ["--tau", bad_float],
                ["--velocities", str(rng.choice([0, 1, rng.randint(257, 4096)]))],
                ["--points", "1", "--dt", _f(-rng.uniform(0.0, 1.0))],
            ],
            "spectrum": [
                ["--k", rng.choice(["nan", "inf", _f(-rng.uniform(0.1, 10.0))])],
                ["--k", "0.5", "--velocities", str(rng.choice([1, rng.randint(257, 4096)]))],
                ["--k", "0.5", "--gap-threshold", bad_float],
            ],
        }[command]
        self.add([command] + rng.choice(choices), refusal=True)

    def probes(self, *commands: str):
        """One small op of each command outside the workload's focus."""
        for command in commands:
            if command == "branch":
                self.branch(600, None)
            elif command == "compare":
                self.compare(300, self.low_orders()[0], svg=True)
            elif command == "ce":
                self.ce(self.rng.randint(2, 8))
            elif command == "simulate":
                # One wave number: the RK4 loop would otherwise make
                # this probe the noisiest figure of its workload.
                self.simulate(16, "one")
            elif command == "spectrum":
                self.spectrum(32, self.rng.uniform(0.05, 0.65), svg=True)

    def done(self) -> list[Op]:
        self.rng.shuffle(self.ops)
        return self.ops


def _branch_sweep(b: _OpList) -> None:
    b.branch(10000, None)
    b.branch(3000, CRITICAL * b.rng.uniform(1.30, 1.35))  # excluded rows
    b.branch(1500, b.rng.uniform(0.02, 0.025), fmt="json")  # erfcx asymptotic region
    first, second = b.low_orders()
    b.compare(2500, first, svg=True)
    b.compare(1500, second, fmt="json")
    b.probes("ce", "simulate", "spectrum")
    b.refusal("branch")
    b.refusal("compare")


def _ce_orders(b: _OpList) -> None:
    # The reversion's cost grows steeply with the order, so the seed
    # moves each order only by one, keeping the list's cost steady.
    r = b.rng.randint
    b.ce(r(11, 13))
    b.ce(r(23, 25), fmt="json")
    b.ce(r(29, 31))
    b.ce(38)
    b.compare(r(55, 65), b.high_orders(30), svg=True)
    b.compare(r(55, 65), b.high_orders(18), fmt="json")
    b.probes("branch", "simulate", "spectrum")
    b.refusal("ce")
    b.refusal("ce")


def _kinetic_sim(b: _OpList) -> None:
    shapes = ["sub", "mixed", b.rng.choice(["sub", "mixed", "super"])]
    b.rng.shuffle(shapes)
    for q, shape in zip((16, 64, 128), shapes):
        b.simulate(q, shape, fmt="json" if q == 64 else "csv")
    b.simulate(256, b.rng.choice(["sub", "mixed"]), method="expm", fmt="json")
    b.spectrum(128, b.spectrum_x(), svg=True)
    b.spectrum(256, b.spectrum_x(), svg=True)
    b.probes("branch", "compare", "ce")
    b.refusal("simulate")
    b.refusal("spectrum")


WORKLOADS = {
    "branch-sweep": _branch_sweep,
    "ce-orders": _ce_orders,
    "kinetic-sim": _kinetic_sim,
}

COMMANDS = ("branch", "compare", "ce", "simulate", "spectrum")


def generate(workload: str, seed: int) -> list[Op]:
    """The op list of ``workload`` for ``seed``; the same seed, the same list."""
    op_list = _OpList(workload, seed)
    WORKLOADS[workload](op_list)
    return op_list.done()
