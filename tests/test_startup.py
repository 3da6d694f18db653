"""Start-up stays light: each command loads only the layers it runs,
numpy only in the kinetic layer's functions, and no dataclass machinery
at all.

Layers load on first use.  ``import slowmode`` binds only
``__version__``, and ``import slowmode.cli`` adds only
:mod:`slowmode.errors`; each command imports its own layers when it
runs, :mod:`json` only for a JSON string that needs an escape (the
commands' strings need none; the CLI writes JSON and CSV itself, and no
command imports :mod:`csv`), and :mod:`logging` only to emit a warning.
A command
binds at ``slowmode.cli`` every name in its layers' ``__all__``, the one
list of what a layer exports.  Every such name is readable there before
any command has run, as the layer's own object, without a dunder probe
such as ``__path__`` loading a layer; a name rebound from outside is the
one the command calls.

Only :mod:`slowmode.kinetic` needs numpy, and it imports numpy inside
the functions that build arrays.  So ``import slowmode``, ``import
slowmode.kinetic``, the ``branch``, ``ce`` and ``compare`` commands, and
the kinetic commands' refusals of a bad tau, velocity count, k, time
step, horizon or gap threshold must run without it, while the kinetic
names stay plain attributes of the package and of ``slowmode.cli``.
The CLI sets ``OPENBLAS_NUM_THREADS`` to 1 before numpy loads, unless
the user set it; the library leaves it alone.  Each check
runs in a fresh interpreter: another test in this process may already
have imported numpy.

The result records are ``typing.NamedTuple`` classes, so no command
imports :mod:`dataclasses` or the :mod:`inspect` it pulls in; the record
test pins their fields and the immutability they had as frozen
dataclasses.

Layering: a ``_``-prefixed name stays inside its module.  Only the
input checks that every layer shares cross a module boundary, and they
live in :mod:`slowmode.errors`.
"""

import ast
import pathlib
import textwrap

import pytest

from conftest import run_python
from slowmode import ceseries, dispersion, kinetic, svgplot, truncation

CHECKS = {
    "cli_import_skips_dataclasses": """
        import sys
        import slowmode.cli

        assert "dataclasses" not in sys.modules
        assert "inspect" not in sys.modules
    """,
    "cli_import_loads_no_layer": """
        import sys
        import slowmode.cli

        loaded = {name for name in sys.modules if name.startswith("slowmode.")}
        assert loaded == {"slowmode.cli", "slowmode.errors"}, loaded
        assert not {"logging", "json", "csv"} & set(sys.modules)
    """,
    "ce_loads_only_ceseries": """
        import contextlib, io, sys
        from slowmode.cli import main

        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["ce", "--order", "5"]) == 0
        loaded = {name for name in sys.modules if name.startswith("slowmode.")}
        assert loaded == {"slowmode.ceseries", "slowmode.cli", "slowmode.errors"}, loaded
    """,
    "branch_csv_skips_other_layers": """
        import contextlib, io, sys
        from slowmode.cli import main

        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["branch", "--points", "3"]) == 0
        skipped = {
            "csv",
            "json",
            "slowmode.ceseries",
            "slowmode.truncation",
            "slowmode.kinetic",
            "slowmode.svgplot",
        }
        assert not skipped & set(sys.modules), skipped & set(sys.modules)
        assert "slowmode.dispersion" in sys.modules
    """,
    "json_output_skips_csv": """
        import contextlib, io, sys
        from slowmode.cli import main

        for argv in (["branch", "--points", "3"], ["ce", "--order", "5"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([*argv, "--format", "json"]) == 0, argv
        assert "csv" not in sys.modules
    """,
    "json_output_skips_json": """
        import contextlib, io, sys
        from slowmode.cli import main

        for argv in (["branch", "--points", "3"], ["ce", "--order", "5"], ["compare"]):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main([*argv, "--format", "json"]) == 0, argv
            assert out.getvalue().startswith("{"), argv
        assert "json" not in sys.modules
    """,
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

        def refuse(argv, message):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main(argv) == 2, argv
            assert err.getvalue() == f"slowmode: error: {message}\\n", err.getvalue()

        # A bad tau, horizon, step or gap threshold is refused before
        # the kinetic layer loads, and, with --kmax given, before the
        # dispersion layer does too.
        for argv, message in (
            (["simulate", "--tau", "nan"], "--tau must be positive, got nan"),
            (["simulate", "--kmax", "1", "--dt", "-1"], "dt must be in (0, t_end], got -1.0"),
            (["simulate", "--kmax", "1", "--t-end", "0"], "t_end must be positive, got 0.0"),
            (
                "simulate --tau 1e307 --points 1 --kmax 1e-307 --velocities 4".split(),
                "the default t_end = 40 tau overflows for tau = 1e+307: give t_end explicitly",
            ),
            (["spectrum", "--k", "0.5", "--tau", "-1"], "--tau must be positive, got -1.0"),
            (
                ["spectrum", "--k", "0.5", "--gap-threshold", "-1"],
                "gap threshold must be positive, got -1.0",
            ),
        ):
            refuse(argv, message)
        assert not {"slowmode.dispersion", "slowmode.kinetic"} & set(sys.modules)
        for argv, message in (
            (["simulate", "--dt", "-1"], "dt must be in (0, t_end], got -1.0"),
            (["simulate", "--t-end", "-1"], "t_end must be positive, got -1.0"),
            (
                ["simulate", "--points", "1", "--t-end", "0.01", "--dt", "0.02"],
                "dt must be in (0, t_end], got 0.02",
            ),
        ):
            refuse(argv, message)
        assert "slowmode.kinetic" not in sys.modules
        for argv, message in (
            (["simulate", "--velocities", "1"], "velocity grid size must be in 2..256, got 1"),
            (
                ["simulate", "--points", "1", "--velocities", "871"],
                "velocity grid size must be in 2..256, got 871",
            ),
            (
                ["spectrum", "--k", "0.5", "--velocities", "1"],
                "velocity grid size must be in 2..256, got 1",
            ),
            (["spectrum", "--k", "nan"], "wave number k must be >= 0, got nan"),
            (
                ["spectrum", "--k", "0.5", "--velocities", "300"],
                "velocity grid size must be in 2..256, got 300",
            ),
        ):
            refuse(argv, message)
        assert "numpy" not in sys.modules
    """,
    "package_names": """
        import os, sys
        import slowmode
        from slowmode import ceseries, dispersion, errors, kinetic, special, svgplot, truncation

        assert getattr(slowmode, "backend", None) is None
        # Each public name is declared once, by its layer.
        layers = (ceseries, dispersion, errors, kinetic, special, svgplot, truncation)
        names = ["__version__", *(name for layer in layers for name in layer.__all__)]
        assert len(set(names)) == len(names), names
        assert slowmode.__all__ == sorted(names)
        assert set(slowmode.__all__) <= set(dir(slowmode))
        assert "numpy" not in sys.modules
        # Looking a kinetic name up loads nothing; the first call that
        # builds an array loads numpy.
        assert slowmode.kinetic.build_operator is slowmode.build_operator
        assert "numpy" not in sys.modules
        threads = os.environ.get("OPENBLAS_NUM_THREADS")
        slowmode.simulate_decay(slowmode.build_operator(0.5, 1.0, 4))
        assert "numpy" in sys.modules
        # Only the kinetic commands pin the BLAS threads, not the library.
        assert os.environ.get("OPENBLAS_NUM_THREADS") == threads
    """,
    "kinetic_import_and_grid_refusal_skip_numpy": """
        import sys
        import slowmode.kinetic

        assert "numpy" not in sys.modules
        for args, message in (
            ((0.5, 1.0, 300), "velocity grid size must be in 2..256, got 300"),
            ((-1.0, 1.0, 4), "wave number k must be >= 0, got -1.0"),
            ((0.5, 1e-310, 4), "relaxation time tau = 1e-310 is too small: 1/tau overflows"),
            (
                (1e308, 1.0, 4),
                "wave number k = 1e+308 is too large: k * max|v| overflows "
                "on the 4-node velocity grid",
            ),
        ):
            try:
                slowmode.kinetic.build_operator(*args)
            except ValueError as exc:
                assert str(exc) == message, exc
            else:
                raise AssertionError(f"build_operator{args} was accepted")
        assert "numpy" not in sys.modules
    """,
    "kinetic_commands_default_to_one_blas_thread": """
        import contextlib, io, os, sys
        from slowmode.cli import main

        class Watch:
            \"\"\"Records the variable when numpy's import starts.\"\"\"

            seen = []

            def find_spec(self, name, path=None, target=None):
                if name == "numpy":
                    self.seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))

        os.environ.pop("OPENBLAS_NUM_THREADS", None)
        sys.meta_path.insert(0, Watch())
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["spectrum", "--k", "0.5", "--velocities", "8"]) == 0
        assert Watch.seen == ["1"], Watch.seen
    """,
    "kinetic_commands_keep_a_users_blas_threads": """
        import contextlib, io, os, sys
        from slowmode.cli import main

        class Watch:
            \"\"\"Records the variable when numpy's import starts.\"\"\"

            seen = []

            def find_spec(self, name, path=None, target=None):
                if name == "numpy":
                    self.seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))

        os.environ["OPENBLAS_NUM_THREADS"] = "2"
        sys.meta_path.insert(0, Watch())
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--points", "1", "--velocities", "8"]) == 0
        assert Watch.seen == ["2"], Watch.seen
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
    """,
    "star_import": """
        import slowmode
        from slowmode import *

        missing = [name for name in slowmode.__all__ if name not in globals()]
        assert not missing, missing
    """,
    "cli_names_before_any_command": """
        import slowmode
        import slowmode.cli as cli

        # Every name a tracer wraps at slowmode.cli, by its layer.
        for layer, names in {
            "ceseries": ("ce_coefficients", "divergence_diagnostics"),
            "dispersion": ("sample_branch", "solve_diffusion_mode"),
            "kinetic": ("build_operator", "operator_spectrum", "simulate_decay"),
            "svgplot": ("comparison_svg", "spectrum_svg"),
            "truncation": ("classify_stability", "compare_to_exact"),
        }.items():
            for name in names:
                value = getattr(cli, name)
                assert callable(value), name
                assert value is getattr(getattr(slowmode, layer), name), name
        assert getattr(cli, "backend", None) is None
    """,
    "cli_binds_every_layer_name": """
        import sys
        import slowmode.cli as cli

        # The import system's dunder probe loads no layer.
        assert not hasattr(cli, "__path__")
        loaded = {name for name in sys.modules if name.startswith("slowmode.")}
        assert loaded == {"slowmode.cli", "slowmode.errors"}, loaded
        from slowmode import ceseries, dispersion, errors, kinetic, special, svgplot, truncation

        for layer in (ceseries, dispersion, errors, kinetic, special, svgplot, truncation):
            for name in layer.__all__:
                assert getattr(cli, name) is getattr(layer, name), (layer.__name__, name)
    """,
    "cli_keeps_a_name_bound_from_outside": """
        import contextlib, io, os, tempfile
        import slowmode.cli as cli

        svg = os.path.join(tempfile.mkdtemp(), "spectrum.svg")
        # One command of each layer, with a name it calls through cli.
        runs = {
            "sample_branch": ["branch", "--points", "3"],
            "ce_coefficients": ["ce", "--order", "5"],
            "compare_to_exact": ["compare", "--points", "3"],
            "build_operator": ["simulate", "--points", "1", "--velocities", "8"],
            "spectrum_svg": ["spectrum", "--k", "0.5", "--velocities", "8", "--svg", svg],
        }
        calls = dict.fromkeys(runs, 0)
        wrappers = {}
        for name in runs:
            original = getattr(cli, name)

            def wrapped(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            wrappers[name] = wrapped
            setattr(cli, name, wrapped)
        for name, argv in runs.items():
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
            assert calls[name] == 1, (name, calls)
            assert getattr(cli, name) is wrappers[name], name
        with open(svg, encoding="utf-8") as fh:
            assert fh.read(5) == "<?xml"
    """,
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_in_fresh_interpreter(name):
    result = run_python(["-c", textwrap.dedent(CHECKS[name])])
    assert result.returncode == 0, result.stderr


#: Each record with the field order it had as a frozen dataclass.
RECORDS = {
    ceseries.CeSeries: ("order", "coefficients"),
    ceseries.DivergenceReport: (
        "order",
        "ratios",
        "root_tests",
        "radius_estimate",
        "root_test_increasing",
        "ratio_band",
    ),
    dispersion.BranchPoint: (
        "k",
        "tau",
        "eigenvalue",
        "residual",
        "near_critical",
        "bracket_width",
        "iterations",
    ),
    dispersion.BranchTable: ("tau", "critical_k", "points", "excluded"),
    kinetic.DiscreteOperator: ("k", "tau", "v_max", "matrix", "density_vector"),
    kinetic.SpectrumResult: (
        "eigenvalues",
        "hydrodynamic",
        "gap",
        "gap_threshold",
        "essential_rate",
    ),
    kinetic.DecayResult: ("rate", "times", "density", "fit_start", "method"),
    svgplot._Frame: ("x0", "x1", "y0", "y1"),
    truncation.TruncationReport: (
        "order",
        "stable",
        "sign_change_x",
        "precedes_criticality",
    ),
    truncation.TruncationComparison: (
        "x",
        "orders",
        "exact",
        "truncations",
        "sup_error_origin",
        "sup_error_critical",
        "excluded",
    ),
}


@pytest.mark.parametrize("record", list(RECORDS), ids=lambda record: record.__name__)
def test_record_fields_and_immutability(record):
    fields = RECORDS[record]
    assert record._fields == fields
    values = {name: index for index, name in enumerate(fields)}
    first, second = record(**values), record(**values)
    assert first == second
    with pytest.raises(AttributeError):
        setattr(first, fields[0], -1)
    assert repr(first).startswith(f"{record.__name__}(")
    # The hand-written docstring survives, not the generated signature.
    assert not record.__doc__.startswith(f"{record.__name__}(")


def test_frame_defaults():
    # The figure size is fixed by module constants, not settable per frame.
    assert svgplot._Frame._field_defaults == {}
    assert (svgplot._WIDTH, svgplot._HEIGHT, svgplot._MARGIN) == (640, 440, 50)


def test_private_names_stay_in_their_module():
    package = pathlib.Path(dispersion.__file__).parent
    crossings = [
        f"{path.name}: from .{node.module} import {alias.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level and node.module != "errors"
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert crossings == []
