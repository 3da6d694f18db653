"""The CLI's document writer against the renderers it replaced.

``slowmode.cli`` writes CSV from a table of cell types and JSON from
``json.JSONEncoder.iterencode``, both in batched writes.  The reference
for CSV is the renderer it replaced: ``csv.writer(lineterminator="\\n")``
over ``reference_cell``.  The reference for JSON is
``json.dumps(document, indent=2) + "\\n"``.  Sections are drawn from the
cells the commands emit: floats of every class, ints, coefficient-sized
decimal strings, booleans, missing values and header identifiers.
"""

import csv
import io
import json
import math
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


@st.composite
def sections(draw):
    """One to three sections, each a header and rows of its width."""
    drawn = []
    for _ in range(draw(st.integers(1, 3))):
        width = draw(st.integers(1, 6))
        header = draw(st.lists(st.sampled_from(IDENTIFIERS), min_size=width, max_size=width))
        row = st.lists(CELLS, min_size=width, max_size=width)
        drawn.append((header, draw(st.lists(row, max_size=40))))
    return drawn


def reference_cell(value) -> str:
    """CSV cell rendering: None -> empty, bool -> true/false, floats via repr."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def reference_csv(sections) -> str:
    """Write ``sections = [(header, rows), ...]`` separated by blank lines."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for index, (header, rows) in enumerate(sections):
        if index:
            writer.writerow([])
        writer.writerow(header)
        for row in rows:
            writer.writerow([reference_cell(v) for v in row])
    return out.getvalue()


def reference_json(document) -> str:
    return json.dumps(document, indent=2) + "\n"


def document(sections) -> list:
    """A JSON document of the drawn sections, as records and as rows."""
    return [
        {"header": header, "rows": rows, "records": [dict(zip(header, row)) for row in rows]}
        for header, rows in sections
    ]


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


SMALL = {"_BLOCK_ROWS": 3, "_JSON_CHUNKS": 4, "_WRITE_CHARS": 64}
SHIPPED = {name: getattr(cli, name) for name in SMALL}


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(sections())
def test_writer_matches_the_reference_renderers(drawn):
    # Once as shipped and once with blocks, joins and writes small
    # enough that the drawn sections cross their boundaries.
    for sizes in (SHIPPED, SMALL):
        with mock.patch.multiple(cli, **sizes):
            assert_batched(render(cli._csv_pieces(drawn)), reference_csv(drawn))
            assert_batched(render(cli._json_pieces(document(drawn))), reference_json(document(drawn)))


def test_writer_batches_a_long_table():
    # Past two CSV blocks and many writes at the shipped sizes.
    header = ["k", "tau_k", "eigenvalue", "residual", "near_critical"]
    rows = [[i / 7, i / 3, -i / 11, None if i % 5 else 1e-17, i % 2 == 0] for i in range(5000)]
    drawn = [(header, rows), (["tau", "critical_k"], [[1.0, 1.25]]), (["excluded_k"], [[2.0]])]
    writes = render(cli._csv_pieces(drawn))
    assert len(writes) > 2
    assert_batched(writes, reference_csv(drawn))
    writes = render(cli._json_pieces(document(drawn)))
    assert len(writes) > 2
    assert_batched(writes, reference_json(document(drawn)))


def test_one_empty_cell_is_quoted_like_the_csv_module():
    drawn = [(["ratio_min"], [[None], [""], [1.0]]), (["x"], [])]
    assert "".join(render(cli._csv_pieces(drawn))) == reference_csv(drawn) == 'ratio_min\n""\n""\n1.0\n\nx\n'
