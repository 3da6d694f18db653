"""README's library quick start prints what the README shows, and its
entry-point table names every public function."""

import doctest
import inspect
import pathlib
import re

import pytest

import slowmode
from slowmode import kinetic

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quick_start_examples() -> list[doctest.Example]:
    """The ``pycon`` block under "Library quick start", as doctest examples."""
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = section.split("```pycon\n", 1)[1].split("```", 1)[0]
    return doctest.DocTestParser().get_examples(block)


def is_kinetic(example: doctest.Example) -> bool:
    return any(name in example.source for name in kinetic.__all__)


def test_numpy_free_quick_start_lines_match_exactly():
    # The kinetic lines go through LAPACK, whose last digits vary by
    # build; every other line must print exactly what the README shows.
    examples = [example for example in quick_start_examples() if not is_kinetic(example)]
    assert len(examples) >= 5
    test = doctest.DocTest(examples, {}, "README quick start", str(README), None, None)
    assert doctest.DocTestRunner().run(test).failed == 0


def test_kinetic_quick_start_lines_match_to_1e_12():
    # LAPACK's last digits vary by build, so the kinetic values are
    # compared to 1e-12 relative instead of character for character.
    namespace: dict = {}
    checked = 0
    for example in quick_start_examples():
        if example.want and is_kinetic(example):
            value = eval(example.source, namespace)
            assert value == pytest.approx(float(example.want), rel=1e-12), example.source
            checked += 1
        else:
            exec(example.source, namespace)
    assert checked >= 2


def test_entry_point_table_names_every_public_function():
    section = README.read_text(encoding="utf-8").split("Main entry points", 1)[1]
    rows = section.split("\n\n", 2)[1].splitlines()[2:]
    named = {name for row in rows for name in re.findall(r"`(\w+)`", row.split("|")[1])}
    public = {name for name in slowmode.__all__ if inspect.isfunction(getattr(slowmode, name))}
    assert named == public
