"""In-process tracing of slowmode's layers from outside the package.

A ``Tracer`` replaces public names at each layer boundary with timing
wrappers, in the namespace the caller reads the name from (for example
``slowmode.cli.sample_branch`` and ``slowmode.dispersion.plasma_z``).
Names are resolved when the wrappers are installed; a boundary none of
whose names exists any more is reported as missing, not an error.

Each call records a span ``[name, start, end, parent, op, info]`` in
memory: ``parent`` is the index of the enclosing span (-1 at the root),
``op`` the index of the op being run, ``info`` what an observer pulled
from the call (an order, a step count, a byte count).
"""

import functools
import importlib
import time

def _iterations(args, kwargs, result):
    return getattr(result, "iterations", None)


def _order(args, kwargs, result):
    return getattr(result, "order", None)


def _rk4(args, kwargs, result):
    """(q, steps) of an RK4 run, None for another method."""
    method = kwargs.get("method", args[3] if len(args) > 3 else "rk4")
    if method != "rk4":
        return None
    op = args[0] if args else kwargs["op"]
    return op.matrix.shape[0], len(result[0]) - 1


def _nbytes(args, kwargs, result):
    return len(result.encode("utf-8"))


#: Span name -> install points (module, attribute) and an observer
#: ``(args, kwargs, result) -> info``.  The span's layer is the part of
#: the name before the first dot.
BOUNDARIES = {
    "cli.main": ([("slowmode.cli", "main")], None),
    "special.plasma_z": ([("slowmode.dispersion", "plasma_z")], None),
    "special.solve_phi": ([("slowmode._backend", "solve_phi")], None),
    "dispersion.sample_branch": ([("slowmode.cli", "sample_branch")], None),
    "dispersion.branch_point": ([("slowmode.dispersion", "branch_point")], _iterations),
    "dispersion.solve_diffusion_mode": ([("slowmode.cli", "solve_diffusion_mode")], None),
    "dispersion.scaled_eigenvalue": (
        [("slowmode.dispersion", "scaled_eigenvalue"), ("slowmode.truncation", "scaled_eigenvalue")],
        None,
    ),
    "ceseries.ce_coefficients": (
        [("slowmode.cli", "ce_coefficients"), ("slowmode.ceseries", "ce_coefficients")],
        _order,
    ),
    "ceseries.a000699": ([("slowmode.cli", "a000699")], None),
    "ceseries.divergence_diagnostics": ([("slowmode.cli", "divergence_diagnostics")], None),
    "truncation.classify_stability": ([("slowmode.cli", "classify_stability")], None),
    "truncation.compare_to_exact": ([("slowmode.cli", "compare_to_exact")], None),
    "kinetic.gauss_hermite_grid": ([("slowmode.cli", "gauss_hermite_grid")], None),
    "kinetic.build_operator": ([("slowmode.cli", "build_operator")], None),
    "kinetic.operator_spectrum": ([("slowmode.cli", "operator_spectrum")], None),
    "kinetic.simulate_decay": ([("slowmode.cli", "simulate_decay")], None),
    "kinetic.simulate_density": ([("slowmode.kinetic", "simulate_density")], _rk4),
    "kinetic.fit_decay_rate": ([("slowmode.kinetic", "fit_decay_rate")], None),
    "svgplot.comparison_svg": ([("slowmode.cli", "comparison_svg")], _nbytes),
    "svgplot.spectrum_svg": ([("slowmode.cli", "spectrum_svg")], _nbytes),
}

LAYERS = ("special", "dispersion", "ceseries", "truncation", "kinetic", "svgplot", "cli")


class Tracer:
    """Records spans while installed; ``uninstall`` restores every name."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn, observe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                try:
                    record[5] = observe(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass
            return result

        return traced

    def install(self, boundaries=BOUNDARIES) -> None:
        self.missing = []
        for name, (points, observe) in boundaries.items():
            found = False
            for module_name, attr in points:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, observe))
                found = True
            if not found:
                self.missing.append(name)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def empty_entry() -> dict:
    return {"calls": 0, "total_s": 0.0, "self_s": 0.0, "info_s": 0.0, "infos": []}


def summarize(spans, into: dict | None = None) -> dict[str, dict]:
    """Per span name: calls, inclusive and self seconds, and the infos
    with the inclusive seconds of the spans that have one.  Adds to
    ``into`` when given, so passes can be summed."""
    out = {} if into is None else into
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _, _, info = span
        entry = out.setdefault(name, empty_entry())
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own
        if info is not None:
            entry["info_s"] += end - start
            entry["infos"].append(info)
    return out


def layer_shares(summary: dict[str, dict]) -> dict[str, float]:
    """Each layer's self time as a share of the root spans' total."""
    root = summary.get("cli.main", {}).get("total_s", 0.0)
    shares = dict.fromkeys(LAYERS, 0.0)
    for name, entry in summary.items():
        shares[name.split(".", 1)[0]] += entry["self_s"]
    return {layer: (s / root if root else 0.0) for layer, s in shares.items()}
