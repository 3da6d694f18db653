"""The CLI's document writer against the renderers it replaced.

``slowmode.cli`` renders each table a column at a time, CSV and JSON
alike, and writes both in batched writes.
The reference for CSV is the renderer it replaced:
``csv.writer(lineterminator="\\n")`` over ``reference_cell``.  The
reference for JSON is ``json.dumps(document, indent=2) + "\\n"`` with
each table as its list of records.  Sections are drawn from the cells
the commands emit: floats of every class, ints, coefficient-sized
decimal strings, booleans, missing values and header identifiers, in
columns of one type and of mixed types.  JSON documents take every shape
the commands emit (scalars, arrays, tables as records, objects of
arrays, empty arrays and tables) and strings and keys that need escapes.
"""

import csv
import io
import json
import math
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import reference_cell
from slowmode import cli

#: Header identifiers and status words the commands write.
IDENTIFIERS = [
    "k", "tau_k", "eigenvalue", "residual", "near_critical", "tau", "critical_k",
    "excluded_k", "n", "coefficient", "magnitude_reference", "moment_ratio",
    "root_test", "order", "radius_estimate", "root_test_increasing", "ratio_min",
    "ratio_max", "x", "exact", "T1", "T30", "stable", "sign_change_x",
    "precedes_criticality", "sup_error_origin", "sup_error_near_critical",
    "critical_x", "fitted_rate", "closure_rate", "abs_deviation", "rel_deviation",
    "dt", "status", "velocities", "t_end", "method", "re", "im", "hydrodynamic",
    "essential_rate", "gap", "gap_threshold", "merged", "ok", "no_isolated_mode",
    "rk4", "expm",
]

EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308,
    math.nan, math.inf, -math.inf,
]

CELLS = st.one_of(
    st.floats(),
    st.sampled_from(EDGE_FLOATS),
    st.integers(),
    st.builds(
        lambda digits, negative: ("-" if negative else "") + str(digits),
        st.integers(10**40, 10**41 - 1),
        st.booleans(),
    ),
    st.booleans(),
    st.none(),
    st.sampled_from(IDENTIFIERS),
)


#: Cells of a single type, for columns the writer renders with one map.
KINDS = [
    st.floats(),
    st.integers(),
    CELLS.filter(lambda cell: isinstance(cell, str)),
    st.booleans(),
    st.none(),
]

#: JSON also takes strings and keys that need escapes: quotes,
#: backslashes, control and non-ASCII characters, and % (the records
#: template's own marker).
JSON_CELLS = st.one_of(CELLS, st.text(max_size=8))
KEYS = st.one_of(st.sampled_from(IDENTIFIERS), st.text(max_size=8))


@st.composite
def table(draw, cells=CELLS, keys=st.sampled_from(IDENTIFIERS)):
    """A table of one to six columns, each of one type or mixed.  Header
    names may repeat: a JSON record, like a dict, keeps one value per
    key."""
    width = draw(st.integers(1, 6))
    header = draw(st.lists(keys, min_size=width, max_size=width))
    length = draw(st.integers(0, 40))
    columns = []
    for _ in range(width):
        kind = draw(st.sampled_from([cells] + KINDS))
        columns.append(draw(st.lists(kind, min_size=length, max_size=length)))
    return cli._Table(header, columns)


def sections():
    """One to three tables."""
    return st.lists(table(), min_size=1, max_size=3)


#: A JSON document of every shape the commands emit.
JSON_VALUES = st.one_of(
    JSON_CELLS,
    st.lists(JSON_CELLS, max_size=40),
    st.lists(JSON_CELLS, max_size=40).map(tuple),
    table(JSON_CELLS, KEYS),
    st.dictionaries(KEYS, st.lists(JSON_CELLS, max_size=10), max_size=4),
)
DOCUMENTS = st.dictionaries(KEYS, JSON_VALUES, max_size=8)


def rows(table) -> list[tuple]:
    return list(zip(*table.columns))


def reference_csv(sections) -> str:
    """Write the tables ``sections`` separated by blank lines."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for index, table in enumerate(sections):
        if index:
            writer.writerow([])
        writer.writerow(table.header)
        for row in rows(table):
            writer.writerow([reference_cell(v) for v in row])
    return out.getvalue()


def plain(value):
    """The document ``json.dumps`` writes: each table as its records."""
    if isinstance(value, cli._Table):
        return [dict(zip(value.header, row)) for row in rows(value)]
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    return list(value) if isinstance(value, tuple) else value


def reference_json(document) -> str:
    return json.dumps(plain(document), indent=2) + "\n"


def render_json(document) -> list[str]:
    return render(cli._json_pieces(document, "\n", "\n"))


class Recorder:
    """A text stream that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


def render(pieces) -> list[str]:
    stream = Recorder()
    cli._write_batched(stream, pieces)
    return stream.writes


def assert_batched(writes, text) -> None:
    """The writes spell ``text``, and every write but the last is at
    least ``_WRITE_CHARS`` long."""
    assert "".join(writes) == text
    assert all(len(w) >= cli._WRITE_CHARS for w in writes[:-1])


SMALL = {"_BLOCK_ROWS": 3, "_WRITE_CHARS": 64}
SHIPPED = {name: getattr(cli, name) for name in SMALL}

WRITER_SETTINGS = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@WRITER_SETTINGS
@given(sections())
def test_writer_matches_the_reference_renderers(drawn):
    # Once as shipped and once with blocks and writes small enough that
    # the drawn sections cross their boundaries.  The sections are also
    # one JSON document of tables, columns and objects of columns.
    columns = dict(zip(drawn[0].header, drawn[0].columns))
    document = {"tables": {f"t{i}": t for i, t in enumerate(drawn)}, "columns": columns}
    for sizes in (SHIPPED, SMALL):
        with mock.patch.multiple(cli, **sizes):
            assert_batched(render(cli._csv_pieces(drawn)), reference_csv(drawn))
            assert_batched(render_json(document), reference_json(document))


@WRITER_SETTINGS
@given(DOCUMENTS)
def test_json_matches_the_reference_on_every_shape(document):
    for sizes in (SHIPPED, SMALL):
        with mock.patch.multiple(cli, **sizes):
            assert_batched(render_json(document), reference_json(document))


def test_json_edge_documents():
    # Empty containers, non-finite floats, escapes, a % in a key and a
    # repeated key, which keeps its first place and its last column.
    empty = cli._Table(["k", "x"], [(), ()])
    repeated = cli._Table(["a", "b", "a"], [[1, 4], [2, 5], [3, 6]])
    escaped = cli._Table(['a"b', "%s", "\u00e9", "tab\t"], [["\n"], ["\\"], ["\x7f"], ["%"]])
    document = {
        "empty_table": empty,
        "empty_list": [],
        "empty_object": {},
        "non_finite": [math.nan, math.inf, -math.inf, -0.0],
        "escaped": escaped,
        "nested": {"1": (), "2": (None, True, 3)},
        "repeated": repeated,
    }
    text = "".join(render_json(document))
    assert text == reference_json(document)
    assert json.loads(text)["repeated"] == [{"a": 3, "b": 2}, {"a": 6, "b": 5}]
    assert "".join(render_json({})) == "{}\n"


def test_writer_batches_a_long_table():
    # Past two CSV blocks and many writes at the shipped sizes.
    header = ["k", "tau_k", "eigenvalue", "residual", "near_critical"]
    rows = [[i / 7, i / 3, -i / 11, None if i % 5 else 1e-17, i % 2 == 0] for i in range(5000)]
    drawn = [
        cli._rows_table(header, rows),
        cli._rows_table(["tau", "critical_k"], [[1.0, 1.25]]),
        cli._Table(["excluded_k"], [[2.0]]),
    ]
    writes = render(cli._csv_pieces(drawn))
    assert len(writes) > 2
    assert_batched(writes, reference_csv(drawn))
    document = {"points": drawn[0], "summary": drawn[1], "n": range(5000), "excluded": [2.0]}
    document["n"] = list(document["n"])
    writes = render_json(document)
    assert len(writes) > 2
    assert_batched(writes, reference_json(document))


def test_one_empty_cell_is_quoted_like_the_csv_module():
    drawn = [cli._Table(["ratio_min"], [[None, "", 1.0]]), cli._Table(["x"], [[]])]
    expected = 'ratio_min\n""\n""\n1.0\n\nx\n'
    assert "".join(render(cli._csv_pieces(drawn))) == reference_csv(drawn) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["branch", "--points", "2500"],
        ["branch", "--kmin", "1.2", "--kmax", "1.3", "--points", "4"],
        ["branch", "--kmin", "2", "--kmax", "3", "--points", "2"],
        ["branch", "--kmin", "1.2533141", "--points", "2"],
        ["ce", "--order", "30"],
        ["ce", "--order", "5"],
        # Coefficients past the double range, as decimal strings.
        ["ce", "--order", "200"],
        ["compare", "--points", "1500", "--orders", "1,2,3,8"],
        ["compare", "--points", "3"],
        # The last orders whose coefficients are doubles.
        ["compare", "--orders", "1,150", "--points", "2"],
        ["compare", "--orders", "1,2,149,150", "--points", "2"],
        ["simulate", "--points", "2", "--kmin", "1.2", "--kmax", "1.4", "--velocities", "16"],
        ["simulate"],
        ["simulate", "--points", "1", "--velocities", "16"],
        ["simulate", "--points", "2", "--velocities", "256", "--method", "rk4"],
        ["simulate", "--points", "2", "--velocities", "256", "--method", "expm"],
        ["spectrum", "--k", "0.5", "--velocities", "16"],
        # Merged: no hydrodynamic mode, a conjugate pair on top.
        ["spectrum", "--k", "2"],
    ],
    ids=" ".join,
)
def test_each_command_writes_what_json_dumps_writes(argv, capsys):
    # The document a command emits, parsed and written again by json.
    assert cli.main([*argv, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
