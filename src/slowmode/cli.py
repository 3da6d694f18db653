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
import csv
import json
import logging
import math
import os
import sys

from . import __version__
from .ceseries import a000699, ce_coefficients, divergence_diagnostics
from .dispersion import (
    CRITICAL_COUPLING,
    critical_wave_number,
    sample_branch,
    solve_diffusion_mode,
)
from .errors import SelfCheckError
from .svgplot import comparison_svg, spectrum_svg
from .truncation import classify_stability, compare_to_exact

log = logging.getLogger("slowmode")

#: Largest grid a command builds; larger ones are refused before allocation.
MAX_POINTS = 10**6

#: Names from :mod:`slowmode.kinetic`, the one module that needs numpy.
#: They are bound on first use, so ``branch``, ``ce`` and ``compare``
#: never load numpy.
_KINETIC_NAMES = (
    "build_operator",
    "gauss_hermite_grid",
    "operator_spectrum",
    "simulate_decay",
)


def _bind_kinetic() -> None:
    """Import the kinetic names into this module's namespace.

    ``setdefault`` keeps a name that is already bound, such as a wrapper
    installed from outside through ``slowmode.cli.<name>``.
    """
    from . import kinetic

    namespace = globals()
    for name in _KINETIC_NAMES:
        namespace.setdefault(name, getattr(kinetic, name))


def __getattr__(name: str):
    if name in _KINETIC_NAMES:
        _bind_kinetic()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _configure_logging() -> None:
    """Log level comes from SLOWMODE_LOG_LEVEL (default WARNING)."""
    name = os.environ.get("SLOWMODE_LOG_LEVEL", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s"
    )


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    """CSV cell rendering: None -> empty, bool -> true/false, floats via repr."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(stream, sections) -> None:
    """Write ``sections = [(header, rows), ...]`` separated by blank lines."""
    writer = csv.writer(stream, lineterminator="\n")
    for index, (header, rows) in enumerate(sections):
        if index:
            writer.writerow([])
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


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


def _emit(args, payload: dict, sections) -> None:
    with _open_out(args.out) as stream:
        if args.format == "json":
            json.dump(payload, stream, indent=2)
            stream.write("\n")
        else:
            _write_csv(stream, sections)


def _write_svg(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Shared argument handling
# ---------------------------------------------------------------------------


def _positive_tau(args) -> float:
    tau = float(args.tau)
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"--tau must be positive, got {args.tau!r}")
    return tau


def _wave_grid(kmin: float, kmax: float | None, points: int, tau: float) -> list[float]:
    """Uniform half-open grid [kmin, kmax) with ``points`` nodes."""
    if points < 1:
        raise ValueError(f"--points must be >= 1, got {points!r}")
    if points > MAX_POINTS:
        raise ValueError(f"--points must be <= {MAX_POINTS}, got {points!r}")
    if not (math.isfinite(kmin) and kmin >= 0.0):
        raise ValueError(f"--kmin must be >= 0, got {kmin!r}")
    named = "--kmax"
    if kmax is None:
        named = "the critical wave number (default --kmax)"
        kmax = critical_wave_number(tau)
    if not (math.isfinite(kmax) and kmax > kmin):
        raise ValueError(f"{named} must exceed --kmin, got {kmax!r}")
    span = kmax - kmin
    return [kmin + span * i / points for i in range(points)]


def _parse_orders(text: str) -> list[int]:
    try:
        orders = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"--orders must be comma-separated integers, got {text!r}")
    if not orders:
        raise ValueError("--orders must list at least one truncation order")
    return sorted(set(orders))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_branch(args) -> int:
    tau = _positive_tau(args)
    grid = _wave_grid(args.kmin, args.kmax, args.points, tau)
    table = sample_branch(tau, grid)
    if not table.points:
        log.warning(
            "no subcritical wave numbers in the requested grid "
            "(critical k = %r); emitting an empty table",
            table.critical_k,
        )
    header = ["k", "tau_k", "eigenvalue", "residual", "near_critical"]
    rows = [
        [p.k, tau * p.k, p.eigenvalue, p.residual, p.near_critical]
        for p in table.points
    ]
    summary = {"tau": table.tau, "critical_k": table.critical_k}
    sections = [(header, rows), _summary_section(summary)]
    if table.excluded:
        sections.append((["excluded_k"], [[k] for k in table.excluded]))
    payload = {**summary, "points": _records(header, rows), "excluded": table.excluded}
    _emit(args, payload, sections)
    return 0


def cmd_ce(args) -> int:
    series = ce_coefficients(args.order)
    reference = a000699(args.order)
    diagnostics = divergence_diagnostics(series)
    header = ["n", "coefficient", "magnitude_reference", "moment_ratio", "root_test"]
    rows = [
        [
            n,
            str(series.coefficients[n - 1]),
            str(reference[n - 1]),
            diagnostics.ratios[n - 1],
            diagnostics.root_tests[n - 1],
        ]
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
    _, coefficients, magnitudes, ratios, root_tests = _columns(header, rows)
    payload = {
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
    tau = _positive_tau(args)
    orders = _parse_orders(args.orders)
    x_grid = _wave_grid(0.0, CRITICAL_COUPLING, args.points, tau)
    series = ce_coefficients(orders[-1])
    comparison = compare_to_exact(x_grid, orders, series=series)
    reports = [classify_stability(series, order) for order in orders]
    for report in reports:
        if report.precedes_criticality is False:
            log.warning(
                "truncation order %d changes sign at x = %r, beyond the "
                "critical point %r",
                report.order,
                report.sign_change_x,
                CRITICAL_COUPLING,
            )

    header = ["x", "k", "exact"] + [f"T{n}" for n in comparison.orders]
    rows = [
        [x, x / tau, comparison.exact[i]]
        + [comparison.truncations[n][i] for n in comparison.orders]
        for i, x in enumerate(comparison.x)
    ]
    stability_header = [
        "order",
        "stable",
        "sign_change_x",
        "precedes_criticality",
        "sup_error_origin",
        "sup_error_near_critical",
    ]
    stability_rows = [
        [
            r.order,
            r.stable,
            r.sign_change_x,
            r.precedes_criticality,
            comparison.sup_error_origin[r.order],
            comparison.sup_error_critical[r.order],
        ]
        for r in reports
    ]
    summary = {
        "tau": tau,
        "critical_x": CRITICAL_COUPLING,
        "critical_k": critical_wave_number(tau),
    }
    columns = _columns(header, rows)
    payload = {
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
    _bind_kinetic()
    tau = _positive_tau(args)
    grid = _wave_grid(args.kmin, args.kmax, args.points, tau)
    velocity_grid = gauss_hermite_grid(args.velocities)
    t_end = args.t_end if args.t_end is not None else 40.0 * tau
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
        op = build_operator(k, tau, velocity_grid)
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
        rows.append(
            [k, tau * k, decay.rate, closure, abs_dev, rel_dev, dt_used, status]
        )
    summary = {
        "tau": tau,
        "velocities": args.velocities,
        "t_end": t_end,
        "method": args.method,
    }
    payload = {**summary, "points": _records(header, rows)}
    _emit(args, payload, [(header, rows), _summary_section(summary)])
    return 0


def cmd_spectrum(args) -> int:
    _bind_kinetic()
    tau = _positive_tau(args)
    k = float(args.k)
    velocity_grid = gauss_hermite_grid(args.velocities)
    op = build_operator(k, tau, velocity_grid)
    spectrum = operator_spectrum(op, gap_threshold=args.gap_threshold)
    header = ["re", "im", "hydrodynamic"]
    rows = [
        [
            float(e.real),
            float(e.imag),
            spectrum.hydrodynamic is not None and i == 0,
        ]
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
    payload = {**summary, "eigenvalues": _records(header, rows)}
    _emit(args, payload, [(header, rows), _summary_section(summary)])
    if args.svg:
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
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SelfCheckError as exc:
        print(f"slowmode: self-check failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"slowmode: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"slowmode: I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
