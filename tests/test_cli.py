"""End-to-end command-line tests (subprocess level) and SVG output."""

import errno
import json
import math
import os
import subprocess
import sys
import textwrap
import xml.etree.ElementTree as ET

import pytest

from slowmode import build_operator, cli, comparison_svg, critical_wave_number, spectrum_svg
from slowmode.kinetic import _default_dt

from conftest import a000699, csv_sections, reference_cell, run_cli, run_python, source_env

SVG_NS = "{http://www.w3.org/2000/svg}"


def cli_env(unbuffered: bool = False) -> dict:
    """``source_env()`` with stdout buffered, unless ``unbuffered``,
    and logging at its default level."""
    env = source_env()
    env.pop("PYTHONUNBUFFERED", None)
    env.pop("SLOWMODE_LOG_LEVEL", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.fixture(scope="module")
def branch_csv():
    return run_cli(["branch", "--points", "40"])


@pytest.fixture(scope="module")
def ce_csv():
    return run_cli(["ce"])


@pytest.fixture(scope="module")
def ce_json():
    return run_cli(["ce", "--format", "json"])


@pytest.fixture(scope="module")
def compare_run(tmp_path_factory):
    svg = tmp_path_factory.mktemp("figures") / "compare.svg"
    result = run_cli(["compare", "--points", "50", "--svg", str(svg)])
    return result, svg


@pytest.fixture(scope="module")
def spectrum_csv():
    return run_cli(["spectrum", "--k", "0.5"])


class TestBranchCommand:
    def test_csv_schema(self, branch_csv):
        assert branch_csv.returncode == 0
        assert "\r" not in branch_csv.stdout
        sections = csv_sections(branch_csv.stdout)
        assert len(sections) == 2  # no supercritical points on [0, k_crit)
        table, summary = sections
        assert table[0] == ["k", "tau_k", "eigenvalue", "residual", "near_critical"]
        assert len(table) == 41
        assert summary[0] == ["tau", "critical_k"]
        assert float(summary[1][1]) == critical_wave_number(1.0)

    def test_first_row_is_origin(self, branch_csv):
        row = csv_sections(branch_csv.stdout)[0][1]
        assert float(row[0]) == 0.0
        assert float(row[2]) == 0.0
        assert row[4] == "false"

    def test_eigenvalues_decrease_along_grid(self, branch_csv):
        table = csv_sections(branch_csv.stdout)[0]
        rates = [float(row[2]) for row in table[1:]]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_deterministic_output(self, branch_csv):
        again = run_cli(["branch", "--points", "40"])
        assert again.stdout == branch_csv.stdout

    def test_near_critical_flag(self):
        k_crit = critical_wave_number(1.0)
        result = run_cli(
            [
                "branch",
                "--kmin",
                repr(k_crit - 1e-9),
                "--kmax",
                repr(k_crit),
                "--points",
                "1",
            ]
        )
        assert result.returncode == 0
        table = csv_sections(result.stdout)[0]
        assert len(table) == 2
        assert table[1][4] == "true"

    def test_supercritical_grid_warns_and_lists_excluded(self):
        result = run_cli(
            ["branch", "--kmin", "2.0", "--kmax", "3.0", "--points", "3"]
        )
        assert result.returncode == 0
        assert "no subcritical" in result.stderr
        sections = csv_sections(result.stdout)
        assert len(sections) == 3
        assert sections[0] == [["k", "tau_k", "eigenvalue", "residual", "near_critical"]]
        assert sections[2][0] == ["excluded_k"]
        # Half-open grid [2, 3) with 3 nodes.
        assert [float(r[0]) for r in sections[2][1:]] == [2.0 + i / 3.0 for i in range(3)]

    def test_grid_near_the_double_range(self):
        # span * i overflows at the last node, span * i / points does not.
        result = run_cli(
            ["branch", "--tau", "1e-308", "--kmax", "1.7e308", "--points", "3"]
        )
        assert result.returncode == 0, result.stderr
        table = csv_sections(result.stdout)[0]
        assert [float(row[0]) for row in table[1:]] == [0.0, 1.7e308 / 3, 2 * (1.7e308 / 3)]

    @pytest.mark.parametrize(
        "kmin, kmax, points",
        [(0.0, 1.2533141373155001, 200), (0.3, 3.0, 7), (2.0, 1e300, 999), (1e-310, 3e-310, 3)],
    )
    def test_grid_nodes_are_kmin_plus_span_i_over_points(self, kmin, kmax, points):
        span = kmax - kmin
        expected = [kmin + span * i / points for i in range(points)]
        assert cli._wave_grid(kmin, kmax, points, 1.0) == expected


class TestCeCommand:
    def test_csv_schema(self, ce_csv):
        assert ce_csv.returncode == 0
        sections = csv_sections(ce_csv.stdout)
        assert len(sections) == 2
        table, summary = sections
        assert table[0] == [
            "n",
            "coefficient",
            "magnitude_reference",
            "moment_ratio",
            "root_test",
        ]
        assert len(table) == 31
        assert summary[0] == [
            "order",
            "radius_estimate",
            "root_test_increasing",
            "ratio_min",
            "ratio_max",
        ]

    def test_leading_coefficients(self, ce_csv):
        table = csv_sections(ce_csv.stdout)[0]
        assert [row[1] for row in table[1:6]] == ["-1", "1", "-4", "27", "-248"]

    @pytest.mark.parametrize("order", [30, 200])
    def test_magnitude_reference_is_abs_coefficient(self, order):
        # The column is |c_n| as decimal text, kept for schema
        # compatibility; past n = 150 no double can hold it.
        args = ["ce", "--order", str(order)]
        table = csv_sections(run_cli(args).stdout)[0]
        assert [row[2] for row in table[1:]] == [str(abs(int(row[1]))) for row in table[1:]]
        payload = json.loads(run_cli([*args, "--format", "json"]).stdout)
        expected = [str(abs(int(text))) for text in payload["coefficients"]]
        assert payload["magnitude_reference"] == expected
        assert len(expected) == order

    def test_summary_values(self, ce_csv):
        summary = csv_sections(ce_csv.stdout)[1][1]
        assert summary[0] == "30"
        assert 0.2 < float(summary[1]) < 0.25
        assert summary[2] == "true"

    def test_json_big_integers_survive(self, ce_json):
        assert ce_json.returncode == 0
        payload = json.loads(ce_json.stdout)
        assert payload["order"] == 30
        coefficients = payload["coefficients"]
        assert all(isinstance(c, str) for c in coefficients)
        expected = a000699(30)
        for n, text in enumerate(coefficients, start=1):
            value = int(text)
            assert abs(value) == expected[n - 1]
            assert value == (-1) ** n * expected[n - 1]
        assert abs(int(coefficients[-1])) > 2**53
        assert len(payload["ratio_band"]) == 2

    def test_deterministic_output(self, ce_json):
        again = run_cli(["ce", "--format", "json"])
        assert again.stdout == ce_json.stdout

    def test_order_200(self):
        # Past n = 150 the coefficients exceed double range; the root
        # tests switch to log space and stay finite.
        result = run_cli(["ce", "--order", "200"])
        assert result.returncode == 0
        table = csv_sections(result.stdout)[0]
        assert len(table) == 201
        for row in table[1:]:
            assert math.isfinite(float(row[4]))


class TestCompareCommand:
    def test_csv_schema(self, compare_run):
        result, _ = compare_run
        assert result.returncode == 0
        sections = csv_sections(result.stdout)
        assert len(sections) == 3
        table, stability, meta = sections
        assert table[0] == ["x", "k", "exact", "T1", "T2", "T3", "T4"]
        assert len(table) == 51
        assert stability[0] == [
            "order",
            "stable",
            "sign_change_x",
            "precedes_criticality",
            "sup_error_origin",
            "sup_error_near_critical",
        ]
        assert meta[0] == ["tau", "critical_x", "critical_k"]

    def test_stability_section(self, compare_run):
        result, _ = compare_run
        stability = csv_sections(result.stdout)[1]
        by_order = {row[0]: row for row in stability[1:]}
        assert by_order["1"][1] == "true"
        assert by_order["1"][2] == ""  # stable orders have no sign change
        assert by_order["3"][1] == "true"
        assert by_order["2"][1] == "false"
        assert float(by_order["2"][2]) == 1.0
        assert by_order["2"][3] == "true"
        assert by_order["4"][1] == "false"

    def test_truncations_bracket_exact_curve(self, compare_run):
        # At every subcritical grid point the even truncations lie above
        # the odd ones once divergence kicks in; minimally, T1 <= exact
        # near the origin and T2 >= T1.
        result, _ = compare_run
        table = csv_sections(result.stdout)[0]
        for row in table[1:]:
            x, t1, t2 = float(row[0]), float(row[3]), float(row[4])
            assert t2 >= t1
            if x > 0.0:
                assert t2 > t1

    def test_svg_has_one_path_per_curve(self, compare_run):
        _, svg_path = compare_run
        assert svg_path.read_text(encoding="utf-8").startswith("<?xml")
        root = ET.parse(svg_path).getroot()
        paths = list(root.iter(f"{SVG_NS}path"))
        assert len(paths) == 5  # exact + four truncations
        texts = [t.text for t in root.iter(f"{SVG_NS}text")]
        for label in ("exact", "N=1", "N=2", "N=3", "N=4"):
            assert label in texts

    def test_json_schema(self):
        result = run_cli(
            ["compare", "--points", "10", "--orders", "2,1", "--format", "json"]
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert sorted(payload["truncations"]) == ["1", "2"]
        assert len(payload["x"]) == 10
        stability = {entry["order"]: entry for entry in payload["stability"]}
        assert stability[1]["stable"] is True
        assert stability[1]["sign_change_x"] is None
        assert stability[2]["stable"] is False
        assert stability[2]["sign_change_x"] == 1.0


class TestSimulateCommand:
    def test_table_and_summary(self):
        result = run_cli(
            [
                "simulate",
                "--points",
                "2",
                "--velocities",
                "16",
                "--t-end",
                "8",
                "--method",
                "expm",
            ]
        )
        assert result.returncode == 0
        sections = csv_sections(result.stdout)
        assert len(sections) == 2
        table, summary = sections
        assert table[0] == [
            "k",
            "tau_k",
            "fitted_rate",
            "closure_rate",
            "abs_deviation",
            "rel_deviation",
            "dt",
            "status",
        ]
        assert len(table) == 3
        origin, interior = table[1], table[2]
        # k = 0: the density is conserved and the closure rate is zero,
        # so the relative-deviation cell is empty.
        assert float(origin[0]) == 0.0
        assert abs(float(origin[2])) < 1e-10
        assert float(origin[3]) == 0.0
        assert origin[5] == ""
        assert origin[7] == "ok"
        assert interior[7] == "ok"
        assert float(interior[5]) < 0.05
        assert summary[1] == ["1.0", "16", "8.0", "expm"]

    def test_supercritical_rows_report_missing_mode(self):
        result = run_cli(
            [
                "simulate",
                "--kmin",
                "2.0",
                "--kmax",
                "2.5",
                "--points",
                "1",
                "--velocities",
                "16",
                "--t-end",
                "4",
                "--method",
                "expm",
            ]
        )
        assert result.returncode == 0
        row = csv_sections(result.stdout)[0][1]
        assert row[7] == "no_isolated_mode"
        assert row[3] == "" and row[4] == "" and row[5] == ""

    def test_automatic_dt_near_the_double_range(self):
        # k v_max + 1/tau overflows; the automatic step is still
        # min(0.01 tau, tau / (tau k v_max + 1)) = 0.01 tau.
        result = run_cli(
            ["simulate", "--tau", "1e-308", "--kmin", "5e307", "--kmax", "6e307"]
            + ["--points", "1", "--velocities", "4"]
        )
        assert result.returncode == 0, result.stderr
        assert float(csv_sections(result.stdout)[0][1][6]) == 0.01 * 1e-308

    def test_dt_column_is_the_step_taken(self):
        # The spacing of a grid built to steps * dt can be one ulp off
        # the step; the column reports the step itself.
        result = run_cli(
            ["simulate", "--tau", "7", "--kmin", "0.6", "--kmax", "0.7"]
            + ["--points", "1", "--velocities", "256"]
        )
        assert result.returncode == 0, result.stderr
        step = _default_dt(build_operator(0.6, 7.0, 256))
        assert step == 0.053181792835412925
        assert float(csv_sections(result.stdout)[0][1][6]) == step

    def test_methods_agree_at_256_velocities(self, capsys):
        # RK4 and expm give the same fitted rates on the largest grid.
        rates = []
        for method in ("rk4", "expm"):
            argv = ["simulate", "--points", "2", "--kmin", "0.2", "--kmax", "0.8"]
            argv += ["--velocities", "256", "--method", method, "--format", "json"]
            assert cli.main(argv) == 0
            points = json.loads(capsys.readouterr().out)["points"]
            rates.append([point["fitted_rate"] for point in points])
        assert len(rates[0]) == 2
        assert rates[0] == pytest.approx(rates[1], rel=0.0, abs=1e-8)

    @pytest.mark.parametrize(
        "args", [["--t-end", "0.01", "--dt", "0.01"], ["--dt", "40", "--method", "expm"]]
    )
    def test_one_step_trace_is_refused(self, args):
        # The decay fit needs two steps; the refusal names dt and t_end.
        result = run_cli(["simulate", "--points", "1", *args])
        assert result.returncode == 2
        assert result.stderr.startswith("slowmode: error: dt = ")
        assert "t_end" in result.stderr
        assert "fit window" not in result.stderr


class TestSpectrumCommand:
    def test_subcritical_has_one_marked_mode(self, spectrum_csv):
        assert spectrum_csv.returncode == 0
        sections = csv_sections(spectrum_csv.stdout)
        assert len(sections) == 2
        table, summary = sections
        assert table[0] == ["re", "im", "hydrodynamic"]
        assert len(table) == 65
        flags = [row[2] for row in table[1:]]
        assert flags[0] == "true"
        assert flags.count("true") == 1
        assert summary[0][-1] == "merged"
        assert summary[1][-1] == "false"

    def test_rows_sorted_by_real_part(self, spectrum_csv):
        table = csv_sections(spectrum_csv.stdout)[0]
        reals = [float(row[0]) for row in table[1:]]
        assert all(a >= b - 1e-14 for a, b in zip(reals, reals[1:]))

    def test_supercritical_marks_nothing(self):
        result = run_cli(["spectrum", "--k", "2.0"])
        assert result.returncode == 0
        table, summary = csv_sections(result.stdout)
        assert all(row[2] == "false" for row in table[1:])
        assert summary[1][-1] == "true"

    def test_svg_circle_per_eigenvalue(self, tmp_path):
        svg = tmp_path / "spectrum.svg"
        result = run_cli(
            ["spectrum", "--k", "0.5", "--velocities", "32", "--svg", str(svg)]
        )
        assert result.returncode == 0
        root = ET.parse(svg).getroot()
        circles = list(root.iter(f"{SVG_NS}circle"))
        assert len(circles) == 32
        filled = [c for c in circles if c.get("fill") == "#d62728"]
        assert len(filled) == 1

    def test_json_schema(self):
        result = run_cli(
            ["spectrum", "--k", "0.5", "--velocities", "8", "--format", "json"]
        )
        payload = json.loads(result.stdout)
        assert len(payload["eigenvalues"]) == 8
        assert payload["merged"] is False
        assert sum(e["hydrodynamic"] for e in payload["eigenvalues"]) == 1
        assert payload["essential_rate"] == -1.0


def _table(header, rows):
    return [list(header)] + [[reference_cell(v) for v in row] for row in rows]


def _record_table(header, records):
    # Records carry exactly the CSV header's keys, in its order.
    assert all(list(record) == header for record in records)
    return _table(header, [[record[h] for h in header] for record in records])


def _summary_table(header, payload):
    # Summary keys sit at the top level of the JSON document.
    return _table(header, [[payload[h] for h in header]])


def _branch_sections(payload, headers):
    sections = [
        _record_table(headers[0], payload["points"]),
        _summary_table(headers[1], payload),
    ]
    if payload["excluded"]:
        sections.append(_table(["excluded_k"], [[k] for k in payload["excluded"]]))
    return sections


def _ce_sections(payload, headers):
    columns = [
        range(1, payload["order"] + 1),
        payload["coefficients"],
        payload["magnitude_reference"],
        payload["moment_ratios"],
        payload["root_tests"],
    ]
    low, high = payload["ratio_band"] or (None, None)
    summary = [payload[h] for h in headers[1][:3]] + [low, high]
    return [_table(headers[0], zip(*columns)), _table(headers[1], [summary])]


def _compare_sections(payload, headers):
    orders = sorted(payload["truncations"], key=int)
    columns = [payload["x"], payload["k"], payload["exact"]]
    columns += [payload["truncations"][n] for n in orders]
    return [
        _table(["x", "k", "exact"] + [f"T{n}" for n in orders], zip(*columns)),
        _record_table(headers[1], payload["stability"]),
        _summary_table(headers[2], payload),
    ]


def _simulate_sections(payload, headers):
    return [
        _record_table(headers[0], payload["points"]),
        _summary_table(headers[1], payload),
    ]


def _spectrum_sections(payload, headers):
    return [
        _record_table(headers[0], payload["eigenvalues"]),
        _summary_table(headers[1], payload),
    ]


@pytest.mark.parametrize(
    "args",
    [
        ["branch", "--points", "40"],
        ["branch", "--kmin", "1.0", "--kmax", "1.5", "--points", "4"],
        ["ce", "--order", "12"],
        ["compare", "--points", "10", "--orders", "2,1,3", "--tau", "0.7"],
        [
            "simulate",
            "--kmin",
            "0.5",
            "--kmax",
            "2.5",
            "--points",
            "2",
            "--velocities",
            "16",
            "--t-end",
            "4",
            "--method",
            "expm",
        ],
        ["spectrum", "--k", "0.5", "--velocities", "8"],
        ["spectrum", "--k", "0.5", "--velocities", "16"],
        ["spectrum", "--k", "0.5", "--velocities", "17"],
    ],
    ids=["branch", "branch-excluded", "ce", "compare", "simulate", "spectrum"]
    + ["spectrum-16", "spectrum-17"],
)
def test_json_matches_csv(args):
    # Every CSV cell is the JSON value at its place in the documented
    # layout, rendered with the CSV cell rules, and nothing is left over.
    csv_run = run_cli(args)
    json_run = run_cli(args + ["--format", "json"])
    assert csv_run.returncode == 0
    assert json_run.returncode == 0
    payload = json.loads(json_run.stdout)
    sections = csv_sections(csv_run.stdout)
    headers = [section[0] for section in sections]
    rebuild = {
        "branch": _branch_sections,
        "ce": _ce_sections,
        "compare": _compare_sections,
        "simulate": _simulate_sections,
        "spectrum": _spectrum_sections,
    }[args[0]]
    assert rebuild(payload, headers) == sections
    if args[0] == "branch":
        table = sections[0]
        assert len(payload["points"]) == len(table) - 1
        for row, record in zip(table[1:], payload["points"]):
            assert float(row[0]) == record["k"]
            assert float(row[2]) == record["eigenvalue"]
        excluded = sections[2][1:] if len(sections) == 3 else []
        assert payload["excluded"] == [float(row[0]) for row in excluded]


#: CSV runs across the code paths: tau k where the branch takes Laplace's
#: fraction, q = 2, even and odd q under both methods, grids past the
#: critical wave number, and k near the double range.
CSV_RUNS = [
    "branch --kmin 1e-6 --kmax 2e-6 --points 2",
    "simulate --points 1 --velocities 16",
    "simulate --points 1 --velocities 16 --method expm",
    "simulate --points 1 --velocities 17",
    "simulate --points 1 --velocities 17 --method expm",
    "simulate --points 2 --kmin 1.3 --kmax 3 --velocities 16",
    "simulate --points 2 --kmin 0.2 --kmax 2.4 --velocities 2 --method rk4",
    "simulate --points 2 --kmin 0.2 --kmax 2.4 --velocities 2 --method expm",
    "simulate --tau 1e-308 --kmin 1e308 --kmax 1.7e308 --points 1 --velocities 3 --method expm",
]


@pytest.mark.parametrize(
    "argv",
    [["branch", "--points", "5"], ["compare", "--points", "5", "--orders", "1,2"]]
    + [run.split() for run in CSV_RUNS],
    ids=["branch", "compare", *CSV_RUNS],
)
def test_csv_builds_no_json_payload(argv, monkeypatch, capsys):
    # The JSON renderer runs only for --format json.
    def refuse(*args):
        raise AssertionError("JSON rendered for CSV output")

    monkeypatch.setattr(cli, "_json_pieces", refuse)
    assert cli.main(argv) == 0
    assert csv_sections(capsys.readouterr().out)[0][0][0] in ("k", "x")


#: Each command's namespace when given only its required flags.
OUTPUT_DEFAULTS = {"format": "csv", "out": "-"}
GRID_DEFAULTS = {"tau": 1.0, "kmin": 0.0, "kmax": None}
PARSED_DEFAULTS = {
    ("branch",): {"func": cli.cmd_branch, **GRID_DEFAULTS, "points": 200},
    ("ce",): {"func": cli.cmd_ce, "order": 30},
    ("compare",): {
        "func": cli.cmd_compare,
        "tau": 1.0,
        "points": 200,
        "orders": "1,2,3,4",
        "svg": None,
    },
    ("simulate",): {
        "func": cli.cmd_simulate,
        **GRID_DEFAULTS,
        "points": 8,
        "velocities": 64,
        "t_end": None,
        "dt": None,
        "method": "rk4",
    },
    ("spectrum", "--k", "0.5"): {
        "func": cli.cmd_spectrum,
        "tau": 1.0,
        "k": 0.5,
        "velocities": 64,
        "gap_threshold": None,
        "svg": None,
    },
}


@pytest.mark.parametrize("argv", PARSED_DEFAULTS, ids=lambda argv: argv[0])
def test_parser_defaults(argv):
    # Values, not help text, which differs between Python versions.
    parsed = vars(cli._build_parser().parse_args(list(argv)))
    assert parsed == {"command": argv[0], **PARSED_DEFAULTS[argv], **OUTPUT_DEFAULTS}


#: A grid past the critical wave number: no branch point, one warning.
EMPTY_BRANCH = ["branch", "--kmin", "2", "--kmax", "3", "--points", "3"]
EMPTY_BRANCH_WARNING = (
    "WARNING slowmode: no subcritical wave numbers in the requested grid "
    "(critical k = 1.2533141373155001); emitting an empty table\n"
)


class TestLogging:
    """Warnings go to stderr at the level SLOWMODE_LOG_LEVEL names."""

    @staticmethod
    def run_empty_branch(level):
        env = source_env()
        env.pop("SLOWMODE_LOG_LEVEL", None)
        if level is not None:
            env["SLOWMODE_LOG_LEVEL"] = level
        return subprocess.run(
            [sys.executable, "-m", "slowmode.cli", *EMPTY_BRANCH],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )

    # An unknown level, or a logging attribute that is no level, falls
    # back to WARNING.
    @pytest.mark.parametrize("level", [None, "WARNING", "info", "NOPE", "BASIC_FORMAT"])
    def test_warning_line(self, level):
        result = self.run_empty_branch(level)
        assert result.returncode == 0
        assert result.stderr == EMPTY_BRANCH_WARNING
        assert csv_sections(result.stdout)[0] == [
            ["k", "tau_k", "eigenvalue", "residual", "near_critical"]
        ]

    @pytest.mark.parametrize("level", ["ERROR", "error", "CRITICAL"])
    def test_higher_level_silences_the_warning(self, level):
        result = self.run_empty_branch(level)
        assert result.returncode == 0
        assert result.stderr == ""

    def test_each_in_process_call_warns_once(self):
        script = f"""
            import contextlib, io, logging, os
            from slowmode.cli import main

            os.environ.pop("SLOWMODE_LOG_LEVEL", None)

            for _ in range(2):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main({EMPTY_BRANCH!r}) == 0
            assert len(logging.getLogger().handlers) == 1
        """
        result = run_python(["-c", textwrap.dedent(script)])
        assert result.returncode == 0, result.stderr
        assert result.stderr == EMPTY_BRANCH_WARNING * 2


class TestErrorHandling:
    @pytest.mark.parametrize(
        "args",
        [
            ["branch", "--points", "0"],
            ["branch", "--tau", "-1"],
            ["branch", "--kmin", "2.0", "--kmax", "1.0"],
            ["ce", "--order", "0"],
            ["ce", "--order", "300"],
            ["compare", "--orders", "abc"],
            ["compare", "--orders", ""],
            ["simulate", "--velocities", "1", "--points", "1"],
            ["spectrum", "--k", "0.5", "--gap-threshold", "0.0"],
            ["spectrum", "--k", "0.5", "--velocities", "257"],
            ["spectrum", "--k", "1e308"],
            ["spectrum", "--k", "1e307"],
            ["compare", "--orders", "151"],
            ["branch", "--kmin", "1e-310", "--kmax", "1e-309", "--points", "1"],
            ["simulate", "--kmin", "5e-324", "--kmax", "1e-320", "--points", "1"],
        ],
    )
    def test_invalid_configuration_exits_2(self, args):
        # A traceback ending in ValueError would also mention an error:
        # the refusal is the one prefixed line, with no traceback.
        result = run_cli(args)
        assert result.returncode == 2
        assert result.stderr.startswith("slowmode: error: ")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "args, named",
        [
            (["branch", "--points", "1000000000"], "--points"),
            (["compare", "--points", "1000000000"], "--points"),
            (["simulate", "--points", "1000000000"], "--points"),
            (["compare", "--orders", "140"], "order 140"),
            (["simulate", "--points", "1", "--t-end", "1e-300"], "t_end = 1e-300"),
            (["branch", "--kmin", "5"], "the critical wave number (default --kmax)"),
            (["simulate", "--kmin", "5"], "the critical wave number (default --kmax)"),
            (["branch", "--kmin", "2.0", "--kmax", "1.0"], "--kmax must exceed --kmin"),
            (["simulate", "--points", "1", "--dt", "-1"], "dt must be in (0, t_end], got -1.0"),
            (["ce", "--order", "201"], "order must be in 1..200, got 201"),
            (["compare", "--orders", "1,151", "--points", "2"], "truncation order 151"),
            # A step of 1e307: the density is zero after one step, and at
            # q = 256 the scaling squarings stop at their fixed point.
            (
                "simulate --points 1 --kmin 2 --kmax 3 --velocities 4 --t-end 1e308 --dt 1e307 "
                "--method expm".split(),
                "density trace vanishes inside the fit window",
            ),
            (
                "simulate --points 1 --kmin 0.5 --kmax 0.6 --velocities 256 --t-end 1e308 "
                "--dt 1e307 --method expm".split(),
                "density trace vanishes inside the fit window",
            ),
        ],
    )
    def test_refusal_names_the_input(self, args, named):
        # Refused before the grid is built, or before non-finite
        # truncations reach the output.
        result = run_cli(args)
        assert result.returncode == 2
        assert named in result.stderr
        assert "Traceback" not in result.stderr

    def test_underflowing_tau_k_is_the_origin(self):
        # tau*k underflows to 0: the point is the origin of the branch,
        # reported at the caller's k.
        result = run_cli(
            ["branch", "--tau", "1e-12", "--kmin", "5e-324", "--kmax", "1e-300"]
            + ["--points", "1"]
        )
        assert result.returncode == 0
        row = csv_sections(result.stdout)[0][1]
        assert row[:4] == ["5e-324", "0.0", "0.0", "0.0"]

    def test_oversized_simulation_exits_2(self):
        # 4e10 steps on 64 velocity nodes: refused before any allocation.
        result = run_cli(["simulate", "--points", "1", "--dt", "1e-9"])
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "dt = 1e-09" in result.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ["spectrum", "--tau", "1e-310", "--k", "0.5"],
            ["compare", "--tau", "1e-310", "--orders", "1"],
        ],
    )
    def test_subnormal_tau_exits_2(self, args):
        # 1/tau overflows: refused up front, naming tau, before any
        # numpy arithmetic warns about it.
        result = run_cli(args)
        assert result.returncode == 2
        assert "tau" in result.stderr
        assert "RuntimeWarning" not in result.stderr
        assert "Traceback" not in result.stderr

    def test_tiny_tau_simulates_cleanly(self):
        # tau = 1e-300 puts every sample time near 1e-299, where t^2
        # underflows; the rate fit must still succeed without warnings.
        result = run_cli(
            ["simulate", "--tau", "1e-300", "--points", "1", "--kmax", "1"]
        )
        assert result.returncode == 0
        for noise in ("RuntimeWarning", "DLASCL", "Traceback"):
            assert noise not in result.stderr

    @pytest.mark.parametrize(
        "args, column, expected",
        [
            (["branch", "--tau", "1e-300", "--kmin", "1e-3", "--kmax", "2e-3"], 2, -1e-306),
            (["simulate", "--kmin", "1e-300", "--kmax", "2e-300", "--velocities", "2"], 3, 0.0),
            (["simulate", "--tau", "1e-300", "--kmin", "0.5", "--kmax", "0.6"]
             + ["--velocities", "3"], 3, -2.5e-301),
            (["simulate", "--tau", "0.5", "--kmin", "0", "--velocities", "65", "--method", "expm"]
             + ["--t-end", "1e15", "--dt", "1e14"], 2, 0.0),
        ],
    )
    def test_slow_rate_at_tiny_tau_k(self, args, column, expected):
        # lambda = -tau k^2 to leading order: -1e-306, -1e-600 (which
        # rounds to zero) and -2.5e-301.  x y - 1 cancelled here.  At
        # k = 0, stepped by expm to t = 1e15, the fitted rate is exactly 0.
        result = run_cli(args + ["--points", "1"])
        assert result.returncode == 0
        value = float(csv_sections(result.stdout)[0][1][column])
        assert value == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_missing_required_argument_exits_2(self):
        result = run_cli(["spectrum"])
        assert result.returncode == 2
        assert "the following arguments are required: --k" in result.stderr

    def test_unknown_format_exits_2(self):
        assert run_cli(["ce", "--format", "yaml"]).returncode == 2

    def test_unwritable_output_exits_3(self, tmp_path):
        target = tmp_path / "missing" / "out.csv"
        result = run_cli(["ce", "--order", "2", "--out", str(target)])
        assert result.returncode == 3
        assert "I/O error" in result.stderr

    @pytest.mark.parametrize("shared", [True, False], ids=["shared-pipe", "stdout-pipe"])
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_closed_output_pipe_exits_3(self, shared, unbuffered, fmt):
        # The reader takes one line of a ~400 kB table (~900 kB as JSON)
        # and closes the pipe.  With stderr on the same pipe the message
        # cannot be written.  Under PYTHONUNBUFFERED a short write drops
        # its count, so the error must still surface on a later write.
        proc = subprocess.Popen(
            [sys.executable, "-m", "slowmode.cli", "branch", "--points", "5000", "--format", fmt],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT if shared else subprocess.PIPE,
            env=cli_env(unbuffered),
        )
        assert proc.stdout.readline().startswith(b"{" if fmt == "json" else b"k,tau_k,")
        proc.stdout.close()
        stderr = b"" if shared else proc.stderr.read()
        assert proc.wait(timeout=300) == 3
        if not shared:
            proc.stderr.close()
            assert stderr == b"slowmode: I/O error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("sink", ["dev-full", "closed-pipe"])
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failing_final_flush_exits_3(self, sink, unbuffered, fmt):
        # A table shorter than the stdout buffer reaches the stream only
        # in the last flush; its failure is an I/O error like any other.
        # The pipe's reader is gone before the child starts.
        if sink == "dev-full":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full on this platform")
            stdout = os.open("/dev/full", os.O_WRONLY)
            failure = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        else:
            reader, stdout = os.pipe()
            os.close(reader)
            failure = BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
        try:
            result = subprocess.run(
                [sys.executable, "-m", "slowmode.cli", "ce", "--order", "5", "--format", fmt],
                stdout=stdout,
                stderr=subprocess.PIPE,
                env=cli_env(unbuffered),
                timeout=300,
            )
        finally:
            os.close(stdout)
        assert result.returncode == 3
        assert result.stderr == f"slowmode: I/O error: {failure}\n".encode()

    @staticmethod
    def run_to_dev_full(args, unbuffered) -> subprocess.CompletedProcess:
        """A fresh interpreter running ``args`` with stdout on /dev/full."""
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this platform")
        stdout = os.open("/dev/full", os.O_WRONLY)
        try:
            return subprocess.run(
                [sys.executable, *args],
                stdout=stdout,
                stderr=subprocess.PIPE,
                env=cli_env(unbuffered),
                timeout=300,
            )
        finally:
            os.close(stdout)

    FULL_DEVICE = b"slowmode: I/O error: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_in_process_main_on_a_full_device_exits_3(self, unbuffered, fmt):
        # A caller that exits with main's code: stdout's unwritten bytes
        # are dropped, so the interpreter's final flush cannot fail again
        # (exit 120, "Exception ignored ...").
        script = (
            "import sys; from slowmode.cli import main; "
            f"sys.exit(main(['ce', '--order', '5', '--format', '{fmt}']))"
        )
        result = self.run_to_dev_full(["-c", script], unbuffered)
        assert (result.returncode, result.stderr) == (3, self.FULL_DEVICE)

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("flag", ["--help", "--version"])
    @pytest.mark.parametrize("caller", ["console", "in-process"])
    def test_argparse_output_on_a_full_device_exits_3(self, unbuffered, flag, caller):
        # argparse's own exits get main's stdout flush check, so the CLI
        # and an in-process caller alike; unbuffered, the failing write
        # is raised instead of passed over.
        if caller == "console":
            args = ["-m", "slowmode.cli", flag]
        else:
            args = ["-c", f"import sys; from slowmode.cli import main; sys.exit(main(['{flag}']))"]
        result = self.run_to_dev_full(args, unbuffered)
        assert (result.returncode, result.stderr) == (3, self.FULL_DEVICE)

    @pytest.mark.parametrize("command", ["branch", "ce", "compare", "simulate", "spectrum"])
    def test_command_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: slowmode {command} ")

    def test_argparse_output_still_exits_0(self):
        result = run_cli(["--help"])
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.startswith("usage: slowmode")

    def test_closed_stderr_after_warning_exits_3(self):
        # The warning cannot reach stderr, whose reader is gone: the
        # table is complete, but the run reports the I/O failure.
        reader, writer = os.pipe()
        os.close(reader)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "slowmode.cli", *EMPTY_BRANCH],
                stdout=subprocess.PIPE,
                stderr=writer,
                env=cli_env(),
                timeout=300,
            )
        finally:
            os.close(writer)
        assert result.returncode == 3
        assert result.stdout.startswith(b"k,tau_k,eigenvalue,residual,near_critical\n")

    def test_version(self):
        result = run_cli(["--version"])
        assert result.returncode == 0
        assert result.stdout.strip() == "slowmode 0.1.0"


class TestProcessExit:
    """A CLI process ends in ``os._exit`` once ``main`` has flushed its
    output: no atexit handler, module teardown or final collection
    runs, and nothing the normal exit would have written is lost."""

    ENTRIES = {
        "python-m": 'import runpy; runpy.run_module("slowmode.cli", run_name="__main__")',
        "console-script": "from slowmode.cli import console_entry; console_entry()",
    }

    @staticmethod
    def run(args, cwd=None) -> subprocess.CompletedProcess:
        """A fresh interpreter with buffered stdout, the mode in which
        a hard exit could drop unflushed output."""
        return subprocess.run(
            [sys.executable, *args], cwd=cwd, capture_output=True, env=cli_env(), timeout=300
        )

    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_atexit_handlers_do_not_run(self, entry, capsys):
        script = f"""
            import atexit, sys
            atexit.register(print, "teardown ran")
            sys.argv = ["slowmode", "ce", "--order", "2"]
            {self.ENTRIES[entry]}
        """
        result = self.run(["-c", textwrap.dedent(script)])
        assert cli.main(["ce", "--order", "2"]) == 0
        assert result.returncode == 0, result.stderr
        assert result.stdout.decode() == capsys.readouterr().out
        assert result.stderr == b""

    @pytest.mark.parametrize(
        "argv",
        [
            ["branch", "--points", "5000"],
            ["branch", "--points", "5000", "--format", "json"],
            ["compare", "--points", "300", "--svg", "figure.svg"],
            ["ce", "--order", "5", "--out", "table.csv"],
            ["branch", "--kmin", "2", "--kmax", "3", "--points", "2"],
        ],
        ids=" ".join,
    )
    def test_hard_exit_loses_no_bytes(self, argv, tmp_path):
        # The same run ended normally after an in-process main(argv) is
        # the reference: exit code, stdout, stderr and files.  The empty
        # branch's warning must reach stderr without logging's atexit
        # shutdown.
        def outcome(name, entry):
            cwd = tmp_path / name
            cwd.mkdir()
            proc = self.run([*entry, *argv], cwd=cwd)
            files = {path.name: path.read_bytes() for path in cwd.iterdir()}
            return proc.returncode, proc.stdout, proc.stderr, files

        hard = outcome("hard", ["-m", "slowmode.cli"])
        normal = outcome(
            "normal",
            ["-c", "import sys; from slowmode.cli import main; sys.exit(main(sys.argv[1:]))"],
        )
        assert hard == normal
        assert hard[0] == 0


class TestSvgWriters:
    def test_comparison_deterministic(self):
        xs = [0.0, 0.5, 1.0]
        exact = [0.0, -0.2, -0.6]
        truncations = {1: (0.0, -0.25, -1.0), 2: (0.0, -0.19, 0.0)}
        a = comparison_svg(xs, exact, truncations, critical_x=1.2533141373155003)
        b = comparison_svg(xs, exact, truncations, critical_x=1.2533141373155003)
        assert a == b
        assert a.count("<path") == 3

    def test_comparison_breaks_path_outside_window(self):
        # A truncation value far below the window must lift the pen: the
        # path restarts with a second M command instead of drawing
        # through the frame.
        xs = [0.0, 0.5, 1.0]
        exact = [0.0, -0.2, -0.6]
        truncations = {4: (0.0, -9.0, 0.1)}
        text = comparison_svg(xs, exact, truncations, critical_x=1.2)
        truncation_path = text.splitlines()[-3]
        assert truncation_path.count("M") == 2
        assert "L" not in truncation_path.split('d="')[1].split('"')[0]

    def test_comparison_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            comparison_svg([], [], {}, critical_x=1.0)

    def test_comparison_rejects_curves_off_the_grid(self):
        # zip would draw the exact curve through one point and N=1
        # through three of its four, without a word.
        truncations = {1: (-0.01, -0.04, -0.09, -0.16)}
        with pytest.raises(ValueError, match="exact must hold one value per grid point: 1 for 3"):
            comparison_svg([0.1, 0.2, 0.3], [-0.01], truncations, 1.25)
        with pytest.raises(ValueError, match="truncation N=1 must hold one value per grid point"):
            comparison_svg([0.1, 0.2, 0.3], [-0.01, -0.04, -0.09], truncations, 1.25)

    def test_spectrum_rejects_empty(self):
        with pytest.raises(ValueError):
            spectrum_svg([], -1.0, None)

    def test_writers_refuse_non_finite_markers(self):
        # A non-finite marker would be written into the figure as "nan".
        with pytest.raises(ValueError, match="critical_x must be finite, got nan"):
            comparison_svg([0.1, 0.5], [-0.01, -0.2], {}, math.nan)
        with pytest.raises(ValueError, match="essential_rate must be finite, got nan"):
            spectrum_svg([-0.2, -1 + 0.5j], math.nan, None)
        with pytest.raises(ValueError, match="hydrodynamic must be finite"):
            spectrum_svg([-0.2, -1 + 0.5j], -1.0, complex(math.inf, 0.0))

    def test_writers_refuse_non_finite_data_points(self):
        # A non-finite grid point or eigenvalue would be written into the
        # figure as "nan" or "inf"; a non-finite y value only lifts the pen.
        with pytest.raises(ValueError, match="x must be finite, got inf"):
            comparison_svg([0.1, math.inf], [-0.01, -0.2], {}, 1.25)
        with pytest.raises(ValueError, match=r"eigenvalues must be finite, got \(nan\+0j\)"):
            spectrum_svg([-0.2, complex(math.nan, 0)], -1.0, None)
        with pytest.raises(ValueError, match="eigenvalues must be finite"):
            spectrum_svg([-0.2, complex(-1.0, math.inf)], -1.0, None)
        text = comparison_svg([0.1, 0.5, 0.9], [-0.01, math.nan, -0.5], {}, 1.25)
        assert "nan" not in text and text.splitlines()[-3].count("M") == 2

    def test_spectrum_marks_hydrodynamic(self):
        eigs = [complex(-0.2, 0.0), complex(-1.0, 0.4), complex(-1.0, -0.4)]
        text = spectrum_svg(eigs, -1.0, complex(-0.2, 0.0))
        assert text.count("<circle") == 3
        assert text.count('fill="#d62728"') == 1
