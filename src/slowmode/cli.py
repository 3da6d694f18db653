"""Command-line interface.

Subcommands::

    branch    sample the slow decay branch over a wave-number grid
    ce        exact expansion coefficients with growth diagnostics
    compare   truncations versus the exact branch (optional SVG figure)
    simulate  kinetic decay simulation versus the dispersion solver
    spectrum  eigenvalues of the discrete generator (optional SVG figure)

Output goes to ``--out`` (default stdout) as CSV (default) or JSON.  CSV
documents may contain several sections separated by one blank line,
each with its own header row; the section order per command is fixed
and documented in the README.  JSON documents hold the same tables,
each as an array of records, and are written byte for byte as
``json.dumps(document, indent=2)`` writes them, without the :mod:`json`
module; this module writes both formats.
Expansion coefficients are emitted as decimal strings in both formats:
they exceed 2**53 long before the interesting orders and must not pass
through binary floating point.

Exit codes: 0 success; 2 invalid usage or configuration; 3 I/O failure;
4 internal self-check failure.
"""

import argparse
import contextlib
import importlib
import math
import os
import sys
from typing import NoReturn

from . import __version__
from .errors import (
    SelfCheckError,
    _validate_count,
    _validate_dt,
    _validate_nonnegative,
    _validate_positive,
)

#: Largest grid a command builds; larger ones are refused before allocation.
MAX_POINTS = 10**6

def _load(*layers) -> None:
    """Import ``layers`` and bind here every name in each one's
    ``__all__``, the one list of what a layer exports.  A name already
    bound here, say a wrapper installed from outside, is kept."""
    for layer in layers:
        module = importlib.import_module(f"{__package__}.{layer}")
        for name in module.__all__:
            globals().setdefault(name, getattr(module, name))


def __getattr__(name):
    """A layer's public name read before any command has run, found
    through the package's ``__all__``.  A dunder name is refused first:
    the import system probes ``__path__``, and the lookup would import
    every layer."""
    package = sys.modules[__package__]
    if name.startswith("__") or name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(package, name)


def _warn(message: str, *args) -> None:
    """Log a warning to stderr at the level SLOWMODE_LOG_LEVEL names
    (default WARNING).  Only a warning imports and configures logging."""
    import logging

    level = getattr(logging, os.environ.get("SLOWMODE_LOG_LEVEL", "WARNING").upper(), None)
    level = level if isinstance(level, int) else logging.WARNING
    logging.basicConfig(
        stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s"
    )
    logging.getLogger("slowmode").warning(message, *args)


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


class _Table:
    """A table: its header and one sequence of cells per column.  It is
    a CSV section, and in a JSON document an array of records, each a
    dict of the header and one row (:func:`_json_pieces`)."""

    def __init__(self, header, columns):
        self.header, self.columns = header, columns


def _rows_table(header, rows) -> _Table:
    """The table of ``rows``, each a sequence of ``len(header)`` cells."""
    return _Table(header, list(zip(*rows)) or [()] * len(header))


def _summary_section(summary: dict) -> _Table:
    """A one-row table whose header is the summary's keys."""
    return _rows_table(list(summary), [summary.values()])


#: Text of each cell type the commands emit in CSV: floats in ``repr``'s
#: shortest round-trip form, booleans as true/false, None as an empty
#: cell.
_CSV_TEXT = {
    float: float.__repr__,
    int: int.__repr__,
    str: str,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: ""}.__getitem__,
}


def _json_str(text: str) -> str:
    """``text`` as a JSON string literal, ``json``'s ASCII escapes
    included.  A string that needs no escape is quoted as it is, so
    :mod:`json` is imported only for one that does."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    import json

    return json.dumps(text)


def _json_float(value: float) -> str:
    """``value`` as ``json`` writes it: NaN and the infinities by name."""
    text = float.__repr__(value)
    return text if value - value == 0.0 else _NON_FINITE[text]


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

#: Text of each cell type in JSON: ints and booleans as in CSV, None as
#: null.
_JSON_TEXT = {
    **_CSV_TEXT,
    float: _json_float,
    str: _json_str,
    type(None): {None: "null"}.__getitem__,
}

#: Rows rendered per piece of a document, and the least characters per
#: write.
_BLOCK_ROWS = 1024
_WRITE_CHARS = 1 << 16


def _blocks(columns, cell_text):
    """The rows of ``columns`` in runs of ``_BLOCK_ROWS``, each run as
    one list of cell texts per column, each cell written by the entry of
    ``cell_text`` for its type."""
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        yield [
            [cell_text[type(value)](value) for value in column[start : start + _BLOCK_ROWS]]
            for column in columns
        ]


def _csv_lines(texts) -> str:
    """The rows whose cell texts ``texts`` holds column by column, as CSV
    lines, each ending in a newline.  No cell holds a comma, quote or
    line break, so none is quoted; like the ``csv`` module, a row of one
    empty cell is written ``""``."""
    if len(texts) == 1:
        texts = [[cell or '""' for cell in texts[0]]]
    return "\n".join(map(",".join, zip(*texts))) + "\n"


def _csv_pieces(sections):
    """The tables ``sections`` as CSV, one blank line between them,
    ``_BLOCK_ROWS`` rows per piece."""
    for index, table in enumerate(sections):
        yield ("\n" if index else "") + _csv_lines([[name] for name in table.header])
        yield from map(_csv_lines, _blocks(table.columns, _CSV_TEXT))


def _json_pieces(value, end, indent):
    """``value`` as JSON, then ``end``, byte for byte as
    ``json.dumps(value, indent=2)`` writes it; ``indent`` starts each
    line of ``value``'s items.  A dict is an object, a list or tuple an
    array of cells, a :class:`_Table` an array of records, and anything
    else one cell.  Arrays and tables come ``_BLOCK_ROWS`` items per
    piece: each record of a block is one ``%`` template filled in, and
    each block one join."""
    inner = indent + "  "
    if isinstance(value, dict):
        for index, (key, item) in enumerate(value.items()):
            yield ("," if index else "{") + inner + _json_str(key) + ": "
            yield from _json_pieces(item, "", inner)
        yield (indent + "}" if value else "{}") + end
        return
    table = isinstance(value, _Table)
    if not table and not isinstance(value, (list, tuple)):
        yield _JSON_TEXT[type(value)](value) + end
        return
    columns = [value]
    if table:
        # A record is a dict: each key where it first appears, holding
        # the cells of its last column.  "%" in a key is doubled, not
        # read as a marker.
        last = {key: index for index, key in enumerate(value.header)}
        columns = [value.columns[index] for index in last.values()]
        fields = [f"{inner}  {_json_str(key).replace('%', '%%')}: %s" for key in last]
        template = "{" + ",".join(fields) + inner + "}"
    for start, texts in enumerate(_blocks(columns, _JSON_TEXT)):
        items = map(template.__mod__, zip(*texts)) if table else texts[0]
        yield ("," if start else "[") + inner + ("," + inner).join(items)
    yield (indent + "]" if columns[0] else "[]") + end


def _write_batched(stream, pieces) -> None:
    """Write the strings ``pieces`` to ``stream`` in writes of at least
    ``_WRITE_CHARS`` characters; only the last may be shorter.  One
    write per document would lose a closed pipe: unbuffered, a short
    write drops the count and ``BrokenPipeError`` never comes."""
    batch, size = [], 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= _WRITE_CHARS:
            # Drop the pieces before the stream copies the joined text.
            text, batch, size = "".join(batch), [], 0
            stream.write(text)
    if batch:
        stream.write("".join(batch))


@contextlib.contextmanager
def _open_out(path: str):
    """The output stream, flushed or closed on the way out, so a
    failing last write is raised here and ``main`` reports it."""
    if path in (None, "-"):
        try:
            yield sys.stdout
        finally:
            sys.stdout.flush()
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _emit(args, document: dict, sections) -> None:
    """Write the tables ``sections`` as CSV, or ``document``, which
    holds the same tables and cells, as JSON."""
    if args.format == "json":
        pieces = _json_pieces(document, "\n", "\n")
    else:
        pieces = _csv_pieces(sections)
    with _open_out(args.out) as stream:
        _write_batched(stream, pieces)


def _write_svg(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Shared argument handling
# ---------------------------------------------------------------------------


def _wave_grid(kmin: float, kmax: float | None, points: int, tau: float) -> list[float]:
    """Uniform half-open grid [kmin, kmax) with ``points`` nodes."""
    points = _validate_count(points, "--points", 1, MAX_POINTS)
    kmin = _validate_nonnegative(kmin, "--kmin")
    named = "--kmax"
    if kmax is None:
        named = "the critical wave number (default --kmax)"
        kmax = critical_wave_number(tau)
    if not (math.isfinite(kmax) and kmax > kmin):
        raise ValueError(f"{named} must exceed --kmin, got {kmax!r}")
    span = kmax - kmin
    # Dividing a span > 1 by a power of two above ``points`` and scaling
    # back is exact and changes no rounding, but keeps span * i finite.
    scale = 2.0 ** points.bit_length() if span > 1.0 else 1.0
    return [kmin + span / scale * i / points * scale for i in range(points)]


def _parse_orders(text: str) -> list[int]:
    try:
        orders = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"--orders must be comma-separated integers, got {text!r}")
    if not orders:
        raise ValueError("--orders must list at least one truncation order")
    return orders


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_branch(args) -> int:
    _load("dispersion")
    tau = _validate_positive(args.tau, "--tau")
    grid = _wave_grid(args.kmin, args.kmax, args.points, tau)
    table = sample_branch(tau, grid)
    if not table.points:
        _warn(
            "no subcritical wave numbers in the requested grid "
            "(critical k = %r); emitting an empty table",
            table.critical_k,
        )
    fields = list(zip(*table.points)) or [()] * len(BranchPoint._fields)
    k, _, eigenvalue, residual, near_critical, *_ = fields
    points = _Table(
        ["k", "tau_k", "eigenvalue", "residual", "near_critical"],
        [k, [tau * value for value in k], eigenvalue, residual, near_critical],
    )
    summary = {"tau": table.tau, "critical_k": table.critical_k}
    sections = [points, _summary_section(summary)]
    if table.excluded:
        sections.append(_Table(["excluded_k"], [table.excluded]))
    _emit(args, {**summary, "points": points, "excluded": table.excluded}, sections)
    return 0


def cmd_ce(args) -> int:
    _load("ceseries")
    series = ce_coefficients(args.order)
    diagnostics = divergence_diagnostics(series)
    # Decimal strings: the coefficients exceed 2**53 early on.  The
    # magnitude column, |c_n| as text, stays for schema compatibility.
    coefficients = list(map(str, series.coefficients))
    magnitudes = [text.lstrip("-") for text in coefficients]
    table = _Table(
        ["n", "coefficient", "magnitude_reference", "moment_ratio", "root_test"],
        [
            range(1, series.order + 1),
            coefficients,
            magnitudes,
            diagnostics.ratios,
            diagnostics.root_tests,
        ],
    )
    band = diagnostics.ratio_band
    summary = {
        "order": series.order,
        "radius_estimate": diagnostics.radius_estimate,
        "root_test_increasing": diagnostics.root_test_increasing,
        "ratio_min": band[0] if band else None,
        "ratio_max": band[1] if band else None,
    }
    document = {
        "order": series.order,
        "coefficients": coefficients,
        "magnitude_reference": magnitudes,
        "moment_ratios": diagnostics.ratios,
        "root_tests": diagnostics.root_tests,
        "radius_estimate": diagnostics.radius_estimate,
        "root_test_increasing": diagnostics.root_test_increasing,
        "ratio_band": band,
    }
    _emit(args, document, [table, _summary_section(summary)])
    return 0


def cmd_compare(args) -> int:
    _load("dispersion", "ceseries", "truncation")
    tau = _validate_positive(args.tau, "--tau")
    orders = _parse_orders(args.orders)
    x_grid = _wave_grid(0.0, CRITICAL_COUPLING, args.points, tau)
    series = ce_coefficients(max(orders))
    comparison = compare_to_exact(x_grid, orders, series)
    reports = [classify_stability(series, order) for order in comparison.orders]
    truncations = [comparison.truncations[n] for n in comparison.orders]
    columns = [comparison.x, [x / tau for x in comparison.x], comparison.exact]
    table = _Table(
        ["x", "k", "exact"] + [f"T{n}" for n in comparison.orders], columns + truncations
    )
    origin, critical = comparison.sup_error_origin, comparison.sup_error_critical
    stability = _rows_table(
        [*TruncationReport._fields, "sup_error_origin", "sup_error_near_critical"],
        [(*report, origin[report.order], critical[report.order]) for report in reports],
    )
    summary = {
        "tau": tau,
        "critical_x": CRITICAL_COUPLING,
        "critical_k": critical_wave_number(tau),
    }
    document = {
        **summary,
        **dict(zip(table.header, columns)),
        "truncations": dict(zip(map(str, comparison.orders), truncations)),
        "stability": stability,
    }
    _emit(args, document, [table, stability, _summary_section(summary)])
    if args.svg:
        _load("svgplot")
        _write_svg(
            args.svg,
            comparison_svg(
                comparison.x,
                comparison.exact,
                comparison.truncations,
                critical_x=CRITICAL_COUPLING,
            ),
        )
    return 0


def cmd_simulate(args) -> int:
    # The layers load once the command's own checks pass; the grid
    # loads dispersion first when it needs the critical wave number.
    tau = _validate_positive(args.tau, "--tau")
    if args.kmax is None:
        _load("dispersion")
    grid = _wave_grid(args.kmin, args.kmax, args.points, tau)
    t_end = args.t_end if args.t_end is not None else 40.0 * tau
    t_end = _validate_positive(t_end, "t_end")
    if args.dt is not None:
        _validate_dt(args.dt, t_end)
    _load("dispersion", "kinetic")
    header = [
        "k",
        "tau_k",
        "fitted_rate",
        "closure_rate",
        "abs_deviation",
        "rel_deviation",
        "dt",
        "status",
    ]
    rows = []
    for k in grid:
        op = build_operator(k, tau, args.velocities)
        decay = simulate_decay(op, t_end=t_end, dt=args.dt, method=args.method)
        closure = solve_diffusion_mode(k, tau)
        if closure is None:
            status = "no_isolated_mode"
            abs_dev = rel_dev = None
        else:
            status = "ok"
            abs_dev = abs(decay.rate - closure)
            rel_dev = abs_dev / abs(closure) if closure != 0.0 else None
        dt_used = float(decay.times[1] - decay.times[0])
        rows.append((k, tau * k, decay.rate, closure, abs_dev, rel_dev, dt_used, status))
    summary = {
        "tau": tau,
        "velocities": args.velocities,
        "t_end": t_end,
        "method": args.method,
    }
    table = _rows_table(header, rows)
    _emit(args, {**summary, "points": table}, [table, _summary_section(summary)])
    return 0


def cmd_spectrum(args) -> int:
    tau = _validate_positive(args.tau, "--tau")
    if args.gap_threshold is not None:
        _validate_positive(args.gap_threshold, "gap threshold")
    _load("kinetic")
    op = build_operator(args.k, tau, args.velocities)
    spectrum = operator_spectrum(op, gap_threshold=args.gap_threshold)
    eigenvalues = spectrum.eigenvalues
    marked = [spectrum.hydrodynamic is not None] + [False] * (len(eigenvalues) - 1)
    table = _Table(
        ["re", "im", "hydrodynamic"],
        [eigenvalues.real.tolist(), eigenvalues.imag.tolist(), marked],
    )
    summary = {
        "tau": tau,
        "k": op.k,
        "velocities": args.velocities,
        "essential_rate": spectrum.essential_rate,
        "gap": spectrum.gap,
        "gap_threshold": spectrum.gap_threshold,
        "merged": spectrum.hydrodynamic is None,
    }
    _emit(args, {**summary, "eigenvalues": table}, [table, _summary_section(summary)])
    if args.svg:
        _load("svgplot")
        _write_svg(
            args.svg,
            spectrum_svg(
                spectrum.eigenvalues,
                spectrum.essential_rate,
                spectrum.hydrodynamic,
            ),
        )
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse, but a failing write of usage, help or version text
    raises, where argparse would pass over it in silence."""

    def _print_message(self, message, file=None):
        if message:
            (file or sys.stderr).write(message)


#: Each flag's argparse settings; ``--points`` takes its default and
#: help from its command.
_FLAGS = {
    "--tau": dict(type=float, default=1.0, help="relaxation time"),
    "--kmin": dict(type=float, default=0.0, help="grid start (default 0)"),
    "--kmax": dict(type=float, help="grid end, exclusive (default: the critical wave number)"),
    "--points": dict(type=int),
    "--order": dict(type=int, default=30, help="expansion order (default 30)"),
    "--orders": dict(
        default="1,2,3,4", help="comma-separated truncation orders (default 1,2,3,4)"
    ),
    "--k": dict(type=float, required=True, help="wave number"),
    "--velocities": dict(type=int, default=64, help="velocity grid size (default 64)"),
    "--t-end": dict(type=float, help="integration horizon (default 40 tau)"),
    "--dt": dict(type=float, help="time step (default: auto-stable)"),
    "--method": dict(
        choices=("rk4", "expm"), default="rk4", help="integration route (default rk4)"
    ),
    "--gap-threshold": dict(
        type=float, help="isolation gap for the slow mode (default 0.1/tau)"
    ),
    "--svg": dict(help="also write an SVG figure here"),
    "--format": dict(choices=("csv", "json"), default="csv", help="output format"),
    "--out": dict(default="-", help="output path, or - for stdout (default)"),
}

#: Each command's handler, help, flags in help order, and the default
#: and help of its ``--points``.  ``--format`` and ``--out`` close every
#: command.
_COMMANDS = {
    "branch": (
        cmd_branch,
        "sample the slow decay branch over a wave-number grid",
        "--tau --kmin --kmax --points",
        dict(default=200, help="grid size (default 200)"),
    ),
    "ce": (cmd_ce, "exact expansion coefficients with growth diagnostics", "--order", {}),
    "compare": (
        cmd_compare,
        "truncations versus the exact scaled branch",
        "--tau --points --orders --svg",
        dict(default=200, help="grid size on [0, critical) (default 200)"),
    ),
    "simulate": (
        cmd_simulate,
        "kinetic decay simulation versus the dispersion solver",
        "--tau --kmin --kmax --points --velocities --t-end --dt --method",
        dict(default=8, help="grid size (default 8; each point runs one simulation)"),
    ),
    "spectrum": (
        cmd_spectrum,
        "eigenvalues of the discrete generator",
        "--tau --k --velocities --gap-threshold --svg",
        {},
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="slowmode",
        description=(
            "Slow decay modes of a kinetic relaxation model: dispersion "
            "branch, exact expansion coefficients, truncation stability, "
            "and direct kinetic simulation."
        ),
        epilog=(
            "exit codes: 0 success, 2 invalid configuration, "
            "3 I/O failure, 4 internal self-check failure"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (func, text, flags, points) in _COMMANDS.items():
        sp = subparsers.add_parser(command, help=text)
        for flag in f"{flags} --format --out".split():
            sp.add_argument(flag, **_FLAGS[flag], **(points if flag == "--points" else {}))
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    """Run one command in-process and return its exit code, with its
    output flushed.  Only argparse exits, on usage errors, ``--help``
    and ``--version``, with stdout flushed as well; a failed flush is an
    I/O error like any other, and the exit code 3."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # Before numpy loads, which reads it: one OpenBLAS thread runs the
        # small kinetic matrices faster than several.  A user's value wins.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
        return args.func(args)
    except SelfCheckError as exc:
        print(f"slowmode: self-check failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"slowmode: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        return _io_error(exc)
    except SystemExit:
        try:
            sys.stdout.flush()
        except OSError as exc:
            raise SystemExit(_io_error(exc)) from None
        raise


def _io_error(exc: OSError) -> int:
    """Report a failed read or write on stderr; the exit code 3.  A
    stream whose flush fails still holds its unwritten bytes, and the
    interpreter's final flush would fail on them again (exit 120), so
    its descriptor is pointed at devnull, as the note on SIGPIPE in the
    Python signal docs recommends."""
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is sys.stderr:
                print(f"slowmode: I/O error: {exc}", file=stream)
            stream.flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    return 3


def console_entry() -> NoReturn:
    """Run ``main`` on the process's arguments and end the process with
    its exit code, skipping interpreter teardown: the final garbage
    collection, module teardown and atexit handlers.  ``main`` has
    flushed stdout, also before argparse's own exits (usage errors,
    ``--help``, ``--version``).  stderr is flushed last, and a failure
    to flush it turns success into exit 3.  Uncaught exceptions leave
    through the normal path."""
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    try:
        sys.stderr.flush()
    except OSError:  # a warning never reached a closed stderr
        code = code or 3
    os._exit(code)


if __name__ == "__main__":
    console_entry()
