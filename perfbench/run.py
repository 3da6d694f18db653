"""End-to-end and per-layer benchmark of the slowmode CLI.

Run from the root of a checkout::

    python3 perfbench/run.py --workload branch-sweep --seed 1 --seconds 40 --trace 0

``--trace 0`` drives ``python -m slowmode.cli`` as subprocesses from
this one process, one op at a time (closed loop, one client), over the
seeded op list of the workload (see ``workloads.py``).  It repeats the
list in rounds until ``--seconds`` have passed, checks every output
against ``oracles.py`` and reports:

* ``wall_s``: wall time of the whole op list, each op at its median
  over the rounds, process start-up included;
* ``setup_s``: median time of a fresh interpreter running
  ``import slowmode.cli``, sampled once before each round;
* ``<command>_s``: summed time of that command's ops, each op at its
  median over the rounds;
* ``ok_frac``: passed ops / attempted ops (1 - the failed fraction);
* ``peak_rss_mb``: the largest max-RSS of any child process.

The speed of a shared machine drifts by a third over minutes and by
tens of per cent from one process to the next, and every op moves with
it.  So a bare interpreter (``python -c pass``, which runs no slowmode
code) also starts before and after every timed process, and each
sample is scaled by ``REF_INTERP_S`` over the mean of the two starts
around it: seconds on a host where a bare interpreter starts in 60 ms.
On a shared 2-vCPU Xeon host this cut the spread of the figures over
ten seeds by half or more.  The unscaled seconds are printed on the line
before the result.  A round starts only while one of the median round
length still fits in ``--seconds``, so a run ends within its time.

``--trace 1`` runs the same ops in this process through
``slowmode.cli.main`` with timing wrappers at each layer boundary (see
``spans.py``), and reports per-layer counts, self times and shares, the
start-up costs of the interpreter, the package and numpy, per-call
times of the special functions, and the tracing overhead against an
untraced in-process pass.  The spans go to
``.bench_build/perfbench/trace-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program
runs from ``src/`` of the checkout; without it the benchmark exits 2.

The benchmark's own tests: ``python3 -m pytest perfbench``.
"""

import argparse
import contextlib
import io
import json
import logging
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import oracles
import spans
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
OP_TIMEOUT_S = 40
SETUP_SAMPLES_PER_ROUND = 1
INTERP_ARGV = ["-c", "pass"]
#: Start-up time of a bare interpreter on the reference host: end-to-end
#: times are reported as if the run's interpreter started this fast.
REF_INTERP_S = 0.06
KERNEL_ARGS = 1000
KERNEL_REPEATS = 15

UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    **{f"{c}_s": "s" for c in workloads.COMMANDS},
    "ok_frac": "frac",
    "peak_rss_mb": "MiB",
}


def child_env() -> dict:
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def _run(argv: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], env=env, cwd=ROOT, capture_output=True, timeout=OP_TIMEOUT_S
    )
    return time.perf_counter() - start, proc


def environment(env: dict) -> dict:
    """Interpreter, numpy, BLAS, CPU and commit this run measured."""
    probe = (
        "import json, platform, numpy, slowmode\n"
        "try:\n"
        "    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "    blas = f\"{blas.get('name')} {blas.get('version', '')}\".strip()\n"
        "except Exception:\n"
        "    blas = 'unknown'\n"
        "backend = getattr(slowmode, 'backend', None)\n"
        "print(json.dumps({'python': platform.python_version(),\n"
        "    'numpy': numpy.__version__, 'blas': blas,\n"
        "    'slowmode_backend': backend() if backend else 'missing'}))\n"
    )
    record = {}
    try:
        record = json.loads(_run(["-c", probe], env)[1].stdout)
    except (subprocess.SubprocessError, ValueError):
        record["probe"] = "failed"
    record["blas_threads"] = {
        name: os.environ.get(name, "unset")
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    record["nproc"] = len(os.sched_getaffinity(0))
    record["cpu"] = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                record["cpu"] = line.split(":", 1)[1].strip()
                break
    record["commit"] = "unknown"
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env, capture_output=True, text=True
        )
        if git.returncode == 0:
            record["commit"] = git.stdout.strip()
    return record


def _clear_svg(op) -> None:
    svg = op.flag("--svg")
    if svg:
        with contextlib.suppress(FileNotFoundError):
            (ROOT / svg).unlink()


class Tally:
    """Attempted and failed ops, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, op, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"perfbench: FAIL {' '.join(op.argv)}: {reason}", file=sys.stderr)


def _totals(ops, setup: list[list[float]], op_times: list[list[float]]) -> dict:
    """End-to-end seconds from the samples: each op at its median."""
    median = [statistics.median(t) for t in op_times]
    totals = {
        "wall_s": sum(median),
        "setup_s": statistics.median(x for t in setup for x in t),
    }
    for command in workloads.COMMANDS:
        totals[f"{command}_s"] = sum(m for op, m in zip(ops, median) if op.command == command)
    return totals


def end_to_end(ops, seconds: float, env: dict, tally: Tally) -> dict:
    cli = ["-m", "slowmode.cli"]
    setup_argv = ["-c", "import slowmode.cli"]
    start = time.perf_counter()
    _run(setup_argv, env)  # untimed: fills the bytecode and page caches
    # A round times the set-up samples (None) and then every op.
    jobs = [None] * SETUP_SAMPLES_PER_ROUND + list(ops)
    unscaled: list[list[float]] = [[] for _ in jobs]
    scaled: list[list[float]] = [[] for _ in jobs]
    interp, round_times = [], []
    # A round starts only if a round of the median length still fits.
    while not round_times or (
        time.perf_counter() - start + statistics.median(round_times) <= seconds
    ):
        round_start = time.perf_counter()
        results = []
        interp.append(_run(INTERP_ARGV, env)[0])
        for i, op in enumerate(jobs):
            if op is None:
                seconds_taken = _run(setup_argv, env)[0]
            else:
                _clear_svg(op)
                try:
                    seconds_taken, proc = _run(cli + list(op.argv), env)
                except subprocess.TimeoutExpired:
                    seconds_taken, proc = OP_TIMEOUT_S, None
                results.append((op, proc))
            interp.append(_run(INTERP_ARGV, env)[0])
            unscaled[i].append(seconds_taken)
            scaled[i].append(seconds_taken * 2.0 * REF_INTERP_S / (interp[-2] + interp[-1]))
        # Checked after the round, so the checks are not timed; each op
        # writes its own figure, so every one is still there.
        for op, proc in results:
            if proc is None:
                tally.add(op, f"timed out after {OP_TIMEOUT_S} s")
            else:
                out, err = (b.decode("utf-8", "replace") for b in (proc.stdout, proc.stderr))
                tally.add(op, oracles.check(op, proc.returncode, out, err, ROOT))
        round_times.append(time.perf_counter() - round_start)
    n = SETUP_SAMPLES_PER_ROUND
    print(
        json.dumps(
            {
                "rounds": len(round_times),
                "round_s": statistics.median(round_times),
                "interp_s": statistics.median(interp),
                "unscaled": _totals(ops, unscaled[:n], unscaled[n:]),
            }
        )
    )
    metrics = _totals(ops, scaled[:n], scaled[n:])
    metrics["ok_frac"] = (tally.attempted - tally.failed) / tally.attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()}


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


class _CurrentStderr:
    """Log stream that follows ``sys.stderr`` as ops redirect it."""

    def write(self, text):
        return sys.stderr.write(text)

    def flush(self):
        sys.stderr.flush()


def _run_in_process(cli, ops, tracer=None):
    """Run every op through ``cli.main``; returns (seconds, outcomes)."""
    outcomes = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        _clear_svg(op)
        if tracer is not None:
            tracer.op = i
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(op.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                traceback.print_exc()
                code = 1
        outcomes.append((op, code, out.getvalue(), err.getvalue()))
    return time.perf_counter() - start, outcomes


def _importtime(env: dict) -> tuple[float, float]:
    """Seconds spent importing slowmode (with numpy) and numpy alone."""
    proc = _run(["-X", "importtime", "-c", "import slowmode.cli"], env)[1]
    package = numpy = 0.0
    for line in proc.stderr.decode().splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        top_level = name.startswith(" ") and not name.startswith("  ")
        if top_level and name.strip().split(".")[0] == "slowmode":
            package += int(cumulative) * 1e-6
        if name.strip() == "numpy" and not numpy:
            numpy = int(cumulative) * 1e-6
    return package, numpy


def _per_call_ns(fn, args) -> float:
    samples = []
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        for y in args:
            fn(y)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) / len(args) * 1e9


def traced(ops, workload: str, seed: int, seconds: float, env: dict, tally: Tally) -> dict:
    start = time.perf_counter()
    metrics = {}
    interp = [_run(INTERP_ARGV, env)[0] for _ in range(5)]
    imports = [_importtime(env) for _ in range(5)]
    metrics["cli.interp_s"] = (statistics.median(interp), "s")
    metrics["cli.import_s"] = (statistics.median(p for p, _ in imports), "s")
    metrics["cli.import_numpy_s"] = (statistics.median(n for _, n in imports), "s")

    sys.path.insert(0, str(SRC))
    logging.getLogger().addHandler(logging.StreamHandler(_CurrentStderr()))
    import slowmode.cli as cli
    import slowmode.special as special

    # Seeded kernel arguments on both sides of erfcx's switch at y = 25
    # (phi's argument is scaled by 1/sqrt 2 before erfcx sees it).
    rng = random.Random(f"kernels:{seed}")
    half = KERNEL_ARGS // 2
    erfcx_args = [rng.uniform(0.0, 25.0) for _ in range(half)]
    erfcx_args += [rng.uniform(25.0, 60.0) for _ in range(half)]
    phi_args = [y * 2**0.5 for y in erfcx_args]
    metrics["special.erfcx.ns_per_call"] = (_per_call_ns(special.erfcx, erfcx_args), "ns")
    metrics["special.phi.ns_per_call"] = (_per_call_ns(special.phi, phi_args), "ns")

    # Untraced and traced passes alternate, each going first in every
    # other pair, while another pair and its checks fit in the time; the
    # outputs are checked after the pair, so neither pass follows the
    # checks more often than the other.  Every per-layer figure below is
    # per traced pass.
    tracer = spans.Tracer()
    summary: dict[str, dict] = {}
    untraced_times, traced_times, pair_times = [], [], []
    first_outputs, first_spans = None, None
    while not pair_times or time.perf_counter() - start + statistics.median(pair_times) <= seconds:
        pair_start = time.perf_counter()
        for with_tracer in (False, True) if len(traced_times) % 2 == 0 else (True, False):
            if not with_tracer:
                untraced_times.append(_run_in_process(cli, ops)[0])
                continue
            tracer.install()
            try:
                seconds_taken, results = _run_in_process(cli, ops, tracer)
            finally:
                tracer.uninstall()
            traced_times.append(seconds_taken)
            spans.summarize(tracer.spans, into=summary)
            if first_spans is None:
                first_outputs, first_spans = results, list(tracer.spans)
            tracer.spans.clear()
        for op, code, out, err in results:
            tally.add(op, oracles.check(op, code, out, err, ROOT))
        pair_times.append(time.perf_counter() - pair_start)
    (WORK / f"trace-{workload}-{seed}.json").write_text(
        json.dumps({"missing": tracer.missing, "spans": first_spans})
    )
    if tracer.missing:
        print(f"perfbench: missing boundaries: {', '.join(tracer.missing)}")
    passes = len(traced_times)

    def entry(name):
        return summary.get(name, spans.empty_entry())

    for name in (
        "special.plasma_z",
        "dispersion.branch_point",
        "dispersion.scaled_eigenvalue",
        "dispersion.solve_diffusion_mode",
        "ceseries.ce_coefficients",
        "truncation.classify_stability",
        "kinetic.build_operator",
        "kinetic.operator_spectrum",
    ):
        metrics[f"{name}.calls"] = (entry(name)["calls"] / passes, "count")
    for name in (
        "special.plasma_z",
        "dispersion.branch_point",
        "dispersion.scaled_eigenvalue",
        "dispersion.solve_diffusion_mode",
        "ceseries.ce_coefficients",
        "ceseries.a000699",
        "ceseries.divergence_diagnostics",
        "truncation.classify_stability",
        "truncation.compare_to_exact",
        "kinetic.gauss_hermite_grid",
        "kinetic.build_operator",
        "kinetic.operator_spectrum",
        "kinetic.simulate_density",
        "kinetic.fit_decay_rate",
        "svgplot.comparison_svg",
        "svgplot.spectrum_svg",
        "cli.main",
    ):
        metrics[f"{name}.self_s"] = (entry(name)["self_s"] / passes, "s")

    bp = entry("dispersion.branch_point")
    metrics["dispersion.branch_point.us_per_call"] = (
        bp["total_s"] / bp["calls"] * 1e6 if bp["calls"] else 0.0,
        "us",
    )
    iterations = bp["infos"]
    metrics["dispersion.bisect_iters_mean"] = (
        sum(iterations) / len(iterations) if iterations else 0.0,
        "count",
    )
    orders = entry("ceseries.ce_coefficients")["infos"]
    metrics["ceseries.ce_coefficients.order_max"] = (max(orders, default=0), "count")
    metrics["ceseries.orders_total"] = (sum(orders) / passes, "count")

    rk4 = entry("kinetic.simulate_density")
    steps = sum(s for _, s in rk4["infos"])
    flops = sum(32 * q * q * s for q, s in rk4["infos"])
    metrics["kinetic.rk4_steps"] = (steps / passes, "count")
    metrics["kinetic.rk4_step_us"] = (rk4["info_s"] / steps * 1e6 if steps else 0.0, "us")
    metrics["kinetic.rk4_gflops_computed"] = (
        flops / rk4["info_s"] / 1e9 if rk4["info_s"] else 0.0,
        "GFLOP/s",
    )

    svg_bytes = entry("svgplot.comparison_svg")["infos"] + entry("svgplot.spectrum_svg")["infos"]
    metrics["svgplot.bytes"] = (sum(svg_bytes) / passes, "bytes")
    metrics["cli.output_bytes"] = (
        sum(len(out.encode("utf-8")) for _, _, out, _ in first_outputs),
        "bytes",
    )
    for layer, share in spans.layer_shares(summary).items():
        metrics[f"share.{layer}"] = (share, "frac")
    traced_s = statistics.median(traced_times)
    untraced_s = statistics.median(untraced_times)
    metrics["trace.passes"] = (passes, "count")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "frac")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "slowmode" / "cli.py").is_file():
        print(f"perfbench: no slowmode source under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    ops = workloads.generate(args.workload, args.seed)
    (WORK / "svg").mkdir(parents=True, exist_ok=True)
    env = child_env()
    print(json.dumps({"environment": environment(env)}))
    print(json.dumps({"not_run": workloads.KNOWN_DEFECTS}))
    tally = Tally()
    if args.trace:
        metrics = traced(ops, args.workload, args.seed, args.seconds, env, tally)
    else:
        metrics = end_to_end(ops, args.seconds, env, tally)
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
