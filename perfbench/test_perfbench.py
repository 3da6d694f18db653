"""Tests of the benchmark itself: op generator, oracles, span arithmetic.

Run from the checkout root: ``python3 -m pytest perfbench``.
"""

import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


def _cli(*argv: str) -> tuple[Op, str]:
    """Run the CLI from this checkout's src/; returns the op and its stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "slowmode.cli", *argv],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return Op(tuple(argv)), proc.stdout


def _verdict(op: Op, stdout: str, returncode: int = 0, stderr: str = "") -> str | None:
    return oracles.check(op, returncode, stdout, stderr, ROOT)


def _replace_cell(stdout: str, row: int, column: str, new) -> str:
    """Set one cell of the first CSV section (row 0 is the first data row)."""
    lines = stdout.split("\n")
    header = lines[0].split(",")
    cells = lines[1 + row].split(",")
    cells[header.index(column)] = new(cells[header.index(column)])
    lines[1 + row] = ",".join(cells)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(workload):
    first = workloads.generate(workload, 7)
    assert first == workloads.generate(workload, 7)
    assert first != workloads.generate(workload, 8)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_workload_runs_every_command_and_two_refusals(workload):
    ops = workloads.generate(workload, 3)
    assert {op.command for op in ops} == set(workloads.COMMANDS)
    assert sum(op.refusal for op in ops) == 2
    svgs = [op.flag("--svg") for op in ops if op.flag("--svg")]
    assert len(svgs) == len(set(svgs)) >= 2


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def test_reference_math():
    # erfcx on both sides of the switch at y = 25, against its tail series.
    for y in (24.9, 25.1, 40.0):
        u = 1.0 / (2.0 * y * y)
        series = 1 - u + 3 * u**2 - 15 * u**3 + 105 * u**4
        tail = series / (y * math.sqrt(math.pi))
        assert oracles.erfcx(y) == pytest.approx(tail, rel=1e-9)
    assert oracles.coefficients(5) == [-1, 1, -4, 27, -248]
    assert oracles.scaled_rate(0.5) == pytest.approx(-0.2140711558114532, abs=1e-15)


def test_branch_oracle_rejects_a_perturbed_eigenvalue():
    op, out = _cli("branch", "--tau", "0.3", "--points", "50", "--kmax", "6.0")
    assert _verdict(op, out) is None
    bad = _replace_cell(out, 10, "eigenvalue", lambda v: repr(float(v) * (1 + 1e-8)))
    assert "profile defect" in _verdict(op, bad)


def test_ce_oracle_rejects_a_flipped_sign_of_c7():
    op, out = _cli("ce", "--order", "10")
    assert _verdict(op, out) is None
    bad = _replace_cell(out, 6, "coefficient", lambda v: v.lstrip("-"))
    assert _verdict(op, bad) == "sign of c_7"


def test_compare_oracle_rejects_a_moved_t2_root():
    op, out = _cli("compare", "--orders", "1,2,3", "--points", "40", "--format", "json")
    assert _verdict(op, out) is None
    bad = out.replace('"sign_change_x": 1.0,', '"sign_change_x": 1.0000001,')
    assert bad != out
    assert _verdict(op, bad) == "T2 sign change is not at exactly x = 1"


def test_simulate_oracle_rejects_swapped_status():
    argv = ("simulate", "--points", "2", "--kmin", "0.3", "--kmax", "2.3", "--velocities", "16")
    op, out = _cli(*argv)
    assert _verdict(op, out) is None
    bad = out.replace(",ok\n", ",SWAP\n").replace(",no_isolated_mode\n", ",ok\n")
    bad = bad.replace(",SWAP\n", ",no_isolated_mode\n")
    assert bad != out
    assert _verdict(op, bad).startswith("status at tau k=")


def test_spectrum_oracle_rejects_slow_eigenvalue_shifted_by_1e_6():
    op, out = _cli("spectrum", "--k", "0.3", "--velocities", "128")
    assert _verdict(op, out) is None
    shifted = _replace_cell(out, 0, "re", lambda v: repr(float(v) + 1e-6))
    # Keep the gap column consistent, so only the rate oracle can object.
    lines = shifted.split("\n")
    summary = lines.index("") + 1
    header, values = lines[summary].split(","), lines[summary + 1].split(",")
    gap = header.index("gap")
    values[gap] = repr(float(values[gap]) + 1e-6)
    lines[summary + 1] = ",".join(values)
    assert _verdict(op, "\n".join(lines)).startswith("slow eigenvalue off by")


def test_refusal_oracle():
    op = Op(("ce", "--order", "0"), refusal=True)
    assert _verdict(op, "", 2, "slowmode: error: order must be in 1..200") is None
    assert _verdict(op, "", 1, "slowmode: error") == "refusal exited 1, expected 2"
    trace = "Traceback (most recent call last):\nOverflowError"
    assert _verdict(op, "", 2, trace) == "traceback on stderr"


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


def test_self_times_on_a_synthetic_tree():
    #            name                 start end parent op info
    tree = [
        ["cli.main", 0.0, 10.0, -1, 0, None],
        ["dispersion.branch_point", 1.0, 4.0, 0, 0, 12],
        ["special.plasma_z", 2.0, 3.0, 1, 0, None],
        ["dispersion.branch_point", 5.0, 9.0, 0, 0, 14],
        ["special.plasma_z", 5.5, 6.0, 3, 0, None],
        ["special.plasma_z", 7.0, 8.5, 3, 0, None],
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 2.0, 0.5, 1.5]
    summary = spans.summarize(tree)
    assert summary["dispersion.branch_point"]["calls"] == 2
    assert summary["dispersion.branch_point"]["total_s"] == 7.0
    assert summary["dispersion.branch_point"]["self_s"] == 4.0
    assert summary["dispersion.branch_point"]["infos"] == [12, 14]
    assert summary["special.plasma_z"]["self_s"] == 3.0
    shares = spans.layer_shares(summary)
    assert shares["cli"] == 0.3 and shares["dispersion"] == 0.4 and shares["special"] == 0.3
    assert sum(shares.values()) == pytest.approx(1.0)


def test_tracer_records_nesting_and_reports_missing_boundaries(monkeypatch):
    module = types.ModuleType("perfbench_fake")
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    monkeypatch.setitem(sys.modules, "perfbench_fake", module)
    original = module.inner
    tracer = spans.Tracer()
    tracer.install(
        {
            "cli.outer": ([("perfbench_fake", "outer")], None),
            "special.inner": ([("perfbench_fake", "inner")], lambda a, k, r: r),
            "special.gone": ([("perfbench_fake", "gone"), ("no_such_module", "f")], None),
        }
    )
    try:
        assert module.outer(1) == 4
    finally:
        tracer.uninstall()
    assert module.inner is original
    assert tracer.missing == ["special.gone"]
    assert [(s[0], s[3], s[5]) for s in tracer.spans] == [
        ("cli.outer", -1, None),
        ("special.inner", 0, 2),
    ]


# ---------------------------------------------------------------------------
# The metrics a run reports are the ones BENCHMARK.json declares
# ---------------------------------------------------------------------------


def test_reported_metrics_match_benchmark_json(monkeypatch):
    import json

    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS

    monkeypatch.setattr(run, "ROOT", ROOT)
    monkeypatch.setattr(run, "SRC", ROOT / "src")
    monkeypatch.setattr(run, "WORK", ROOT / ".bench_build" / "perfbench")
    (run.WORK / "svg").mkdir(parents=True, exist_ok=True)
    svg = f"{workloads.SVG_DIR}/test.svg"
    ops = [
        Op(("branch", "--points", "40")),
        Op(("ce", "--order", "5")),
        Op(("compare", "--points", "30", "--orders", "1,2", "--svg", svg)),
        Op(("simulate", "--points", "1", "--kmin", "0.2", "--velocities", "16")),
        Op(("spectrum", "--k", "0.3", "--velocities", "16")),
        Op(("spectrum", "--k", "nan"), refusal=True),
    ]
    tally = run.Tally()
    metrics = run.traced(ops, "test", 0, 0.0, run.child_env(), tally)
    assert (tally.attempted, tally.failed) == (len(ops), 0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: m["unit"] for name, m in metrics.items()
    }


def test_totals_take_each_op_at_its_median():
    import run

    ops = [Op(("branch",)), Op(("ce",)), Op(("ce",))]
    setup = [[0.3, 0.1, 0.2]]
    op_times = [[1.0, 3.0, 2.0], [0.5, 0.4, 9.0], [0.1, 0.1, 0.1]]
    totals = run._totals(ops, setup, op_times)
    assert totals["setup_s"] == 0.2
    assert totals["wall_s"] == pytest.approx(2.6)
    assert totals["branch_s"] == 2.0
    assert totals["ce_s"] == pytest.approx(0.6)
    assert totals["compare_s"] == totals["simulate_s"] == totals["spectrum_s"] == 0
    assert set(totals) | {"ok_frac", "peak_rss_mb"} == set(run.UNITS)
