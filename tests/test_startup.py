"""numpy is loaded only by the kinetic layer's functions.

Only :mod:`slowmode.kinetic` needs numpy, and it imports numpy inside
the functions that build arrays.  So ``import slowmode``, ``import
slowmode.kinetic``, the ``branch``, ``ce`` and ``compare`` commands, and
the kinetic commands' refusals of a bad tau, grid, velocity count, k,
time step, horizon or gap threshold must run without it, while the
kinetic names stay plain attributes of the package and of
``slowmode.cli``.  Each check runs in a fresh
interpreter: another test in this process may already have imported
numpy.
"""

import textwrap

import pytest

from conftest import run_python

CHECKS = {
    "light_commands_skip_numpy": """
        import contextlib, io, sys
        from slowmode.cli import main

        for argv in (
            ["branch", "--points", "3"],
            ["ce", "--order", "5"],
            ["compare", "--points", "3"],
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
        assert "numpy" not in sys.modules
    """,
    "kinetic_refusals_skip_numpy": """
        import contextlib, io, sys
        from slowmode.cli import main

        for argv, message in (
            (["simulate", "--tau", "nan"], "--tau must be positive, got nan"),
            (["simulate", "--velocities", "1"], "velocity grid size must be in 2..256, got 1"),
            (["spectrum", "--k", "nan"], "wave number k must be >= 0, got nan"),
            (
                ["spectrum", "--k", "0.5", "--velocities", "300"],
                "velocity grid size must be in 2..256, got 300",
            ),
            (["simulate", "--dt", "-1"], "dt must be in (0, t_end], got -1.0"),
            (["simulate", "--t-end", "-1"], "t_end must be positive, got -1.0"),
            (
                ["spectrum", "--k", "0.5", "--gap-threshold", "-1"],
                "gap threshold must be positive, got -1.0",
            ),
        ):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main(argv) == 2, argv
            assert err.getvalue() == f"slowmode: error: {message}\\n", err.getvalue()
        assert "numpy" not in sys.modules
    """,
    "package_names": """
        import sys
        import slowmode

        assert getattr(slowmode, "backend", None) is None
        assert set(slowmode.__all__) <= set(dir(slowmode))
        assert "numpy" not in sys.modules
        # Looking a kinetic name up loads nothing; the first call that
        # builds an array loads numpy.
        assert slowmode.kinetic.build_operator is slowmode.build_operator
        assert "numpy" not in sys.modules
        slowmode.gauss_hermite_grid(4)
        assert "numpy" in sys.modules
    """,
    "kinetic_import_and_grid_refusal_skip_numpy": """
        import sys
        import slowmode.kinetic

        assert "numpy" not in sys.modules
        try:
            slowmode.kinetic.gauss_hermite_grid(300)
        except ValueError as exc:
            assert str(exc) == "velocity grid size must be in 2..256, got 300", exc
        else:
            raise AssertionError("a 300-node grid was accepted")
        assert "numpy" not in sys.modules
    """,
    "star_import": """
        import slowmode
        from slowmode import *

        missing = [name for name in slowmode.__all__ if name not in globals()]
        assert not missing, missing
    """,
    "cli_names_before_any_command": """
        import slowmode.cli as cli
        import slowmode.kinetic as kinetic

        for name in (
            "build_operator",
            "gauss_hermite_grid",
            "operator_spectrum",
            "simulate_decay",
        ):
            value = getattr(cli, name)
            assert callable(value), name
            assert value is getattr(kinetic, name), name
        assert getattr(cli, "backend", None) is None
    """,
    "cli_keeps_a_name_bound_from_outside": """
        import contextlib, io
        import slowmode.cli as cli

        original = cli.build_operator
        calls = []

        def wrapped(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        cli.build_operator = wrapped
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["simulate", "--points", "1", "--velocities", "8"]) == 0
        assert len(calls) == 1
        assert cli.build_operator is wrapped
    """,
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_in_fresh_interpreter(name):
    result = run_python(["-c", textwrap.dedent(CHECKS[name])])
    assert result.returncode == 0, result.stderr
