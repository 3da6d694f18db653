"""Property test of the command-line contract over hostile flag values.

``slowmode.cli.main`` runs in-process on flag values drawn from pools
of edge cases.  Whatever the values, it must return 0, 2, 3 or 4 (or
argparse must exit with 2), no other exception may escape, and every
successful JSON document must be standard JSON: no NaN, no Infinity.
"""

import argparse
import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slowmode.cli import _build_parser, main

FLOATS = [
    "nan",
    "inf",
    "-inf",
    "0",
    "-0.0",
    "5e-324",
    "1e-310",
    "1e-300",
    "1e308",
    "-1",
    "0.5",
    "1.0",
    "2.0",
]
POINTS = ["1", "3", "0", "-1", "1000000000"]
VELOCITIES = ["1", "2", "16", "0", "-4", "257"]
#: Flags passed on every run: ``spectrum`` requires --k, and an explicit
#: --velocities keeps runs off the default 64 nodes.
REQUIRED = {"simulate": {"velocities"}, "spectrum": {"velocities", "k"}}

#: Flag pools per command.  Sizes stay small (at most 16 velocities,
#: grids no larger than the defaults) so the file runs in seconds.
FLAGS = {
    "branch": {"tau": FLOATS, "kmin": FLOATS, "kmax": FLOATS, "points": POINTS},
    "ce": {"order": ["1", "2", "9", "30", "0", "-1", "151", "300"]},
    "compare": {
        "tau": FLOATS,
        "points": POINTS,
        "orders": ["1", "2,1", "4,3", "140", "151", "0", "-2", "abc", ""],
    },
    "simulate": {
        "tau": FLOATS,
        "kmin": FLOATS,
        "kmax": FLOATS,
        "points": POINTS,
        "velocities": VELOCITIES,
        "t-end": FLOATS + ["4"],
        "dt": FLOATS + ["0.1"],
        "method": ["rk4", "expm"],
    },
    "spectrum": {
        "tau": FLOATS,
        "k": FLOATS,
        "velocities": VELOCITIES,
        "gap-threshold": FLOATS,
    },
}


#: Value-taking flags with no pool: output paths, not numbers to break.
UNPOOLED = {"format", "out", "svg"}


def test_flag_pools_track_the_parser():
    # A flag added to a command must get a pool of hostile values here.
    subparsers = next(
        action
        for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    declared = {
        command: {
            action.option_strings[0][2:]
            for action in parser._actions
            if action.option_strings and action.nargs != 0
        }
        - UNPOOLED
        for command, parser in subparsers.choices.items()
    }
    assert declared == {command: set(pool) for command, pool in FLAGS.items()}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command, "--format", "json"]
    for flag, pool in FLAGS[command].items():
        if flag in REQUIRED.get(command, ()) or draw(st.booleans()):
            # --flag=value, so that argparse takes "-inf" as a value.
            argv.append(f"--{flag}={draw(st.sampled_from(pool))}")
    return argv


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("argparse", exc.code)
    return code, stdout.getvalue(), stderr.getvalue()


@settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argvs())
def test_every_input_gets_an_answer_or_a_documented_exit(argv):
    code, stdout, stderr = _run(argv)
    assert code in (0, 2, 3, 4, ("argparse", 2)), (argv, code)
    assert "Traceback" not in stderr
    if code == 0:
        json.loads(stdout, parse_constant=_reject_constant)
