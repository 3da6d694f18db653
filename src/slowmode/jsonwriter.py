"""JSON text of the command-line documents, without the :mod:`json` module.

:func:`json_pieces` writes a document byte for byte as
``json.dumps(document, indent=2)`` writes it.  A dict is an object, a
list or tuple an array of cells, a :class:`slowmode.cli._Table` an array
of records, each a dict of the header and one row, and anything else
one cell.  Arrays and tables are rendered a block of rows at a time by
the caller's ``blocks(columns, cell_text)``, the CLI's column renderer,
as one list of cell texts per column: each record of a block is one
``%`` template filled in, and each block one join.  A string that needs no escape is quoted as it is, so :mod:`json`
is imported only for one that does.

The CLI loads this module only for ``--format json``.
"""

__all__ = ["json_pieces"]


def _json_str(text: str) -> str:
    """``text`` as a JSON string literal, ``json``'s ASCII escapes
    included."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    import json

    return json.dumps(text)


def _json_float(value: float) -> str:
    """``value`` as ``json`` writes it: NaN and the infinities by name."""
    text = float.__repr__(value)
    return text if value - value == 0.0 else _NON_FINITE[text]


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

#: Text of each cell type the commands emit.
_CELL_TEXT = {
    float: _json_float,
    int: int.__repr__,
    str: _json_str,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def json_pieces(document, blocks):
    """``document`` as JSON and a newline, in pieces of at most one
    block of array items, each block rendered by ``blocks``."""
    return _pieces(document, blocks, "\n", "\n")


def _pieces(value, blocks, end, indent):
    """``value`` as JSON, then ``end``; ``indent`` starts each line of
    ``value``'s items."""
    inner = indent + "  "
    if isinstance(value, dict):
        for index, (key, item) in enumerate(value.items()):
            yield ("," if index else "{") + inner + _json_str(key) + ": "
            yield from _pieces(item, blocks, "", inner)
        yield (indent + "}" if value else "{}") + end
        return
    header = getattr(value, "header", None)
    if header is None and not isinstance(value, (list, tuple)):
        yield _CELL_TEXT[type(value)](value) + end
        return
    columns = [value]
    if header is not None:
        # A record is a dict: each key where it first appears, holding
        # the cells of its last column.  "%" in a key is doubled, not
        # read as a marker.
        last = {key: index for index, key in enumerate(header)}
        columns = [value.columns[index] for index in last.values()]
        fields = [f"{inner}  {_json_str(key).replace('%', '%%')}: %s" for key in last]
        template = "{" + ",".join(fields) + inner + "}"
    for start, texts in enumerate(blocks(columns, _CELL_TEXT)):
        items = texts[0] if header is None else map(template.__mod__, zip(*texts))
        yield ("," if start else "[") + inner + ("," + inner).join(items)
    yield (indent + "]" if columns[0] else "[]") + end
