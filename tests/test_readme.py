"""README's library quick start prints what the README shows."""

import doctest
import pathlib

from slowmode import kinetic

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quick_start_examples() -> list[doctest.Example]:
    """The ``pycon`` block under "Library quick start", as doctest examples."""
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = section.split("```pycon\n", 1)[1].split("```", 1)[0]
    return doctest.DocTestParser().get_examples(block)


def test_numpy_free_quick_start_lines_match_exactly():
    # The kinetic lines go through LAPACK, whose last digits vary by
    # build; every other line must print exactly what the README shows.
    examples = [
        example
        for example in quick_start_examples()
        if not any(name in example.source for name in kinetic.__all__)
    ]
    assert len(examples) >= 5
    test = doctest.DocTest(examples, {}, "README quick start", str(README), None, None)
    assert doctest.DocTestRunner().run(test).failed == 0
