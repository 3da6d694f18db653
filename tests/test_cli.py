"""End-to-end command-line tests (subprocess level) and SVG output."""

import json
import math
import subprocess
import sys
import textwrap
import xml.etree.ElementTree as ET

import pytest

from slowmode import a000699, cli, comparison_svg, critical_wave_number, spectrum_svg

from conftest import csv_sections, run_cli, run_python, source_env

SVG_NS = "{http://www.w3.org/2000/svg}"


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
        for row in table[1:]:
            assert row[2] == str(abs(int(row[1])))

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
            assert str(abs(int(row[1]))) == row[2]
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


def _render(value) -> str:
    """A JSON value in the README's CSV cell convention."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _table(header, rows):
    return [list(header)] + [[_render(v) for v in row] for row in rows]


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
    ],
    ids=["branch", "branch-excluded", "ce", "compare", "simulate", "spectrum"],
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


@pytest.mark.parametrize(
    "argv",
    [["branch", "--points", "5"], ["compare", "--points", "5", "--orders", "1,2"]],
    ids=["branch", "compare"],
)
def test_csv_builds_no_json_payload(argv, monkeypatch, capsys):
    # The JSON document is built only for --format json.
    def refuse(*args):
        raise AssertionError("JSON payload built for CSV output")

    monkeypatch.setattr(cli, "_records", refuse)
    monkeypatch.setattr(cli, "_columns", refuse)
    assert cli.main(argv) == 0
    assert csv_sections(capsys.readouterr().out)[0][0][0] in ("k", "x")


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
        result = run_cli(args)
        assert result.returncode == 2
        assert "error" in result.stderr.lower()

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

    def test_missing_required_argument_exits_2(self):
        assert run_cli(["spectrum"]).returncode == 2

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
        env = source_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "slowmode.cli", "branch", "--points", "5000", "--format", fmt],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT if shared else subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline().startswith(b"{" if fmt == "json" else b"k,tau_k,")
        proc.stdout.close()
        stderr = b"" if shared else proc.stderr.read()
        assert proc.wait(timeout=300) == 3
        if not shared:
            proc.stderr.close()
            assert stderr == b"slowmode: I/O error: [Errno 32] Broken pipe\n"

    def test_version(self):
        result = run_cli(["--version"])
        assert result.returncode == 0
        assert result.stdout.strip() == "slowmode 0.1.0"


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
