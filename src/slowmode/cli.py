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
and documented in the README.  Expansion coefficients are emitted as
decimal strings in both formats: they exceed 2**53 long before the
interesting orders and must not pass through binary floating point.

Exit codes: 0 success; 2 invalid usage or configuration; 3 I/O failure;
4 internal self-check failure.
"""

import argparse
import contextlib
import importlib
import itertools
import math
import os
import sys

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


#: Text of each cell type the commands emit: floats in ``repr``'s shortest
#: round-trip form, booleans as true/false, None as an empty cell.
_CELL_TEXT = {
    float: float.__repr__,
    int: int.__repr__,
    str: str,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda value: "",
}

#: Rows rendered per CSV block, encoder chunks joined per JSON piece, and
#: the least characters per write.
_BLOCK_ROWS = 1024
_JSON_CHUNKS = 256
_WRITE_CHARS = 1 << 16


def _csv_block(rows) -> str:
    """``rows`` as CSV lines, each ending in a newline.  No cell holds a
    comma, quote or line break, so none is quoted; like the ``csv``
    module, a row of one empty cell is written ``""``."""
    text = _CELL_TEXT
    lines = [
        ",".join([text[type(value)](value) for value in row]) or ('""' if row else "")
        for row in rows
    ]
    lines.append("")
    return "\n".join(lines)


def _csv_pieces(sections):
    """``sections = [(header, rows), ...]`` as CSV, one blank line between
    sections, ``_BLOCK_ROWS`` rows per piece."""
    for index, (header, rows) in enumerate(sections):
        yield ("\n" if index else "") + _csv_block([header])
        for start in range(0, len(rows), _BLOCK_ROWS):
            yield _csv_block(rows[start : start + _BLOCK_ROWS])


def _json_pieces(document):
    """``document`` as indented JSON and a final newline.  The encoder
    yields a few characters at a time; they are joined
    ``_JSON_CHUNKS`` at a time without a Python step per chunk."""
    import json

    chunks = iter(json.JSONEncoder(indent=2).iterencode(document))
    yield from map("".join, iter(lambda: list(itertools.islice(chunks, _JSON_CHUNKS)), []))
    yield "\n"


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


def _summary_section(summary: dict):
    """A one-row CSV section whose header is the summary's keys."""
    return list(summary), [list(summary.values())]


def _records(header, rows) -> list[dict]:
    """A table as JSON records keyed by its CSV header."""
    return [dict(zip(header, row)) for row in rows]


def _columns(header, rows) -> list[list]:
    """A table as one list per CSV column."""
    return [[row[i] for row in rows] for i in range(len(header))]


@contextlib.contextmanager
def _open_out(path: str):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _emit(args, payload, sections) -> None:
    """Write ``sections`` as CSV, or ``payload()`` as JSON: the JSON
    document is built only when it is the format asked for."""
    with _open_out(args.out) as stream:
        pieces = _json_pieces(payload()) if args.format == "json" else _csv_pieces(sections)
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
    header = ["k", "tau_k", "eigenvalue", "residual", "near_critical"]
    rows = [
        (p.k, tau * p.k, p.eigenvalue, p.residual, p.near_critical)
        for p in table.points
    ]
    summary = {"tau": table.tau, "critical_k": table.critical_k}
    sections = [(header, rows), _summary_section(summary)]
    if table.excluded:
        sections.append((["excluded_k"], [(k,) for k in table.excluded]))
    _emit(
        args,
        lambda: {
            **summary,
            "points": _records(header, rows),
            "excluded": table.excluded,
        },
        sections,
    )
    return 0


def cmd_ce(args) -> int:
    _load("ceseries")
    series = ce_coefficients(args.order)
    reference = a000699(args.order)
    diagnostics = divergence_diagnostics(series)
    header = ["n", "coefficient", "magnitude_reference", "moment_ratio", "root_test"]
    rows = [
        (
            n,
            str(series.coefficients[n - 1]),
            str(reference[n - 1]),
            diagnostics.ratios[n - 1],
            diagnostics.root_tests[n - 1],
        )
        for n in range(1, series.order + 1)
    ]
    band = diagnostics.ratio_band
    summary = {
        "order": series.order,
        "radius_estimate": diagnostics.radius_estimate,
        "root_test_increasing": diagnostics.root_test_increasing,
        "ratio_min": band[0] if band else None,
        "ratio_max": band[1] if band else None,
    }

    def payload():
        _, coefficients, magnitudes, ratios, root_tests = _columns(header, rows)
        return {
            "order": summary["order"],
            "coefficients": coefficients,
            "magnitude_reference": magnitudes,
            "moment_ratios": ratios,
            "root_tests": root_tests,
            "radius_estimate": summary["radius_estimate"],
            "root_test_increasing": summary["root_test_increasing"],
            "ratio_band": list(band) if band else None,
        }

    _emit(args, payload, [(header, rows), _summary_section(summary)])
    return 0


def cmd_compare(args) -> int:
    _load("dispersion", "ceseries", "truncation")
    tau = _validate_positive(args.tau, "--tau")
    orders = _parse_orders(args.orders)
    x_grid = _wave_grid(0.0, CRITICAL_COUPLING, args.points, tau)
    series = ce_coefficients(max(orders))
    comparison = compare_to_exact(x_grid, orders, series)
    reports = [classify_stability(series, order) for order in comparison.orders]
    for report in reports:
        if report.precedes_criticality is False:
            _warn(
                "truncation order %d changes sign at x = %r, beyond the "
                "critical point %r",
                report.order,
                report.sign_change_x,
                CRITICAL_COUPLING,
            )

    header = ["x", "k", "exact"] + [f"T{n}" for n in comparison.orders]
    rows = list(
        zip(
            comparison.x,
            [x / tau for x in comparison.x],
            comparison.exact,
            *(comparison.truncations[n] for n in comparison.orders),
        )
    )
    stability_header = [
        "order",
        "stable",
        "sign_change_x",
        "precedes_criticality",
        "sup_error_origin",
        "sup_error_near_critical",
    ]
    stability_rows = [
        (
            r.order,
            r.stable,
            r.sign_change_x,
            r.precedes_criticality,
            comparison.sup_error_origin[r.order],
            comparison.sup_error_critical[r.order],
        )
        for r in reports
    ]
    summary = {
        "tau": tau,
        "critical_x": CRITICAL_COUPLING,
        "critical_k": critical_wave_number(tau),
    }

    def payload():
        columns = _columns(header, rows)
        return {
            **summary,
            **dict(zip(header[:3], columns)),
            "truncations": dict(zip(map(str, comparison.orders), columns[3:])),
            "stability": _records(stability_header, stability_rows),
        }

    sections = [
        (header, rows),
        (stability_header, stability_rows),
        _summary_section(summary),
    ]
    _emit(args, payload, sections)
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
    _load("dispersion", "kinetic")
    tau = _validate_positive(args.tau, "--tau")
    grid = _wave_grid(args.kmin, args.kmax, args.points, tau)
    t_end = args.t_end if args.t_end is not None else 40.0 * tau
    t_end = _validate_positive(t_end, "t_end")
    if args.dt is not None:
        _validate_dt(args.dt, t_end)
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
    _emit(
        args,
        lambda: {**summary, "points": _records(header, rows)},
        [(header, rows), _summary_section(summary)],
    )
    return 0


def cmd_spectrum(args) -> int:
    _load("kinetic")
    tau = _validate_positive(args.tau, "--tau")
    k = _validate_nonnegative(args.k, "wave number k")
    if args.gap_threshold is not None:
        _validate_positive(args.gap_threshold, "gap threshold")
    op = build_operator(k, tau, args.velocities)
    spectrum = operator_spectrum(op, gap_threshold=args.gap_threshold)
    header = ["re", "im", "hydrodynamic"]
    rows = [
        (
            float(e.real),
            float(e.imag),
            spectrum.hydrodynamic is not None and i == 0,
        )
        for i, e in enumerate(spectrum.eigenvalues)
    ]
    summary = {
        "tau": tau,
        "k": k,
        "velocities": args.velocities,
        "essential_rate": spectrum.essential_rate,
        "gap": spectrum.gap,
        "gap_threshold": spectrum.gap_threshold,
        "merged": spectrum.hydrodynamic is None,
    }
    _emit(
        args,
        lambda: {**summary, "eigenvalues": _records(header, rows)},
        [(header, rows), _summary_section(summary)],
    )
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


def _add_output_options(sp) -> None:
    sp.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    sp.add_argument(
        "--out", default="-", help="output path, or - for stdout (default)"
    )


def _add_grid_options(sp, points: int, points_help: str) -> None:
    """--tau and the wave-number grid of ``branch`` and ``simulate``."""
    sp.add_argument("--tau", type=float, default=1.0, help="relaxation time")
    sp.add_argument("--kmin", type=float, default=0.0, help="grid start (default 0)")
    sp.add_argument(
        "--kmax",
        type=float,
        default=None,
        help="grid end, exclusive (default: the critical wave number)",
    )
    sp.add_argument("--points", type=int, default=points, help=points_help)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    sp = subparsers.add_parser(
        "branch", help="sample the slow decay branch over a wave-number grid"
    )
    _add_grid_options(sp, 200, "grid size (default 200)")
    _add_output_options(sp)
    sp.set_defaults(func=cmd_branch)

    sp = subparsers.add_parser(
        "ce", help="exact expansion coefficients with growth diagnostics"
    )
    sp.add_argument(
        "--order", type=int, default=30, help="expansion order (default 30)"
    )
    _add_output_options(sp)
    sp.set_defaults(func=cmd_ce)

    sp = subparsers.add_parser(
        "compare", help="truncations versus the exact scaled branch"
    )
    sp.add_argument("--tau", type=float, default=1.0, help="relaxation time")
    sp.add_argument(
        "--points",
        type=int,
        default=200,
        help="grid size on [0, critical) (default 200)",
    )
    sp.add_argument(
        "--orders",
        default="1,2,3,4",
        help="comma-separated truncation orders (default 1,2,3,4)",
    )
    sp.add_argument("--svg", default=None, help="also write an SVG figure here")
    _add_output_options(sp)
    sp.set_defaults(func=cmd_compare)

    sp = subparsers.add_parser(
        "simulate", help="kinetic decay simulation versus the dispersion solver"
    )
    _add_grid_options(sp, 8, "grid size (default 8; each point runs one simulation)")
    sp.add_argument(
        "--velocities", type=int, default=64, help="velocity grid size (default 64)"
    )
    sp.add_argument(
        "--t-end", type=float, default=None, help="integration horizon (default 40 tau)"
    )
    sp.add_argument(
        "--dt", type=float, default=None, help="time step (default: auto-stable)"
    )
    sp.add_argument(
        "--method",
        choices=("rk4", "expm"),
        default="rk4",
        help="integration route (default rk4)",
    )
    _add_output_options(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = subparsers.add_parser(
        "spectrum", help="eigenvalues of the discrete generator"
    )
    sp.add_argument("--tau", type=float, default=1.0, help="relaxation time")
    sp.add_argument("--k", type=float, required=True, help="wave number")
    sp.add_argument(
        "--velocities", type=int, default=64, help="velocity grid size (default 64)"
    )
    sp.add_argument(
        "--gap-threshold",
        type=float,
        default=None,
        help="isolation gap for the slow mode (default 0.1/tau)",
    )
    sp.add_argument("--svg", default=None, help="also write an SVG figure here")
    _add_output_options(sp)
    sp.set_defaults(func=cmd_spectrum)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Before numpy loads, which reads it: one OpenBLAS thread runs the
    # small kinetic matrices faster than several.  A user's value wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        return args.func(args)
    except SelfCheckError as exc:
        print(f"slowmode: self-check failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"slowmode: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # Point a stream whose reader has gone at devnull, as the note on
        # SIGPIPE in the Python signal docs recommends, so the
        # interpreter's final flush cannot raise again (exit 120).
        if isinstance(exc, BrokenPipeError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        try:
            print(f"slowmode: I/O error: {exc}", file=sys.stderr, flush=True)
        except OSError:  # stderr shares the closed pipe
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
        return 3


if __name__ == "__main__":
    sys.exit(main())
