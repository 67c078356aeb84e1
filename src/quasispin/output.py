"""Deterministic CSV and JSON bytes of column tables, a block of rows at a time.

:func:`serialize_blocks` writes a table (:data:`quasispin.base.Table`), or a
sequence of tables as their concatenation, to CSV or JSON in one loop: for
each table it renders every coded column's values once (once for
consecutive tables that share the list), and for each block of rows it
boxes only that block of an array column, gathers a coded column's texts by
code, and encodes the block's lines. CSV float columns format inside a row
template, and rows of text cells only are joined with commas. So a sweep, a
figure or a phase map written from its row blocks holds one block of rows,
whatever its size. :func:`serialize` joins the blocks.

The module imports no numpy: it reads an array column through its ``dtype``
and ``tolist()``, and imports numpy only to render a
:class:`~quasispin.base.Coded` column, whose codes are a numpy array, so
numpy is loaded already. A table of lists, such as the one ``micro`` writes,
is serialized without it.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Callable, Iterable, Iterator

from .base import Coded, DomainError, Table

__all__ = ["serialize", "serialize_blocks"]

# Sweeps are solved (quasispin.sweep takes this size from here), and tables are
# serialized, this many rows at a time, and each block is written before the
# next is made, so neither a sweep's columns nor the output's text and bytes
# exist whole. On a 12000-point CSV sweep of both variants (2-vCPU VM) the
# process peaked at 30.3 / 31.2 / 33.5 MB with 1024 / 2048 / 4096 rows (35.2 MB
# with whole tables); 1024 rows took about 20 ms more than 4096 in process, as
# each block runs its own gap_solve Newton loop and its own per-column set-up
# in the serializer.
_ROW_BLOCK = 2048


# A string cell needs RFC 4180 quotes when it holds one of these characters.
_NEEDS_QUOTES = re.compile('[,"\r\n]')
# json.dumps spellings of the non-finite floats.
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _cell_text(value: object, fmt: str) -> str:
    # CSV text of a cell in a column that is neither all floats nor all strings
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt % value
    return "" if value is None else str(value)


def _csv_quote(text: str, lone: bool) -> str:
    # RFC 4180 quoting; the one cell of a one-column row is quoted when empty,
    # so that the row does not read as a blank line.
    if _NEEDS_QUOTES.search(text) or (lone and not text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _column_kind(column) -> type | None:
    # float or str when every cell of the column is one, else None; an
    # array's dtype answers without a pass over its cells
    dtype = getattr(column, "dtype", None)
    if dtype is not None and dtype.kind in "fU":
        return float if dtype.kind == "f" else str
    kinds = set(map(type, column))
    return float if kinds <= {float} else str if kinds <= {str} else None


def _row_count(table: Table, names: list[str]) -> int:
    # The rows of a table with the columns names, all of one length
    if list(table) != names:
        raise ValueError(f"tables to serialize must have the same columns, got {list(table)}")
    lengths = [len(column.codes if isinstance(column, Coded) else column)
               for column in table.values()]
    if len(set(lengths)) > 1:
        raise ValueError(f"table columns differ in length: {lengths}")
    return lengths[0] if lengths else 0


def _csv_field(kind: type | None, cells: list, fmt: str, lone: bool) -> tuple[str, Iterable]:
    # (row-template field, cells for it) of one column's row block: floats
    # format in the template, other cells become their quoted texts
    if kind is float:
        return fmt, cells
    if kind is None:
        cells = [_cell_text(value, fmt) for value in cells]
    quoted = {text: _csv_quote(text, lone) for text in set(cells)}
    if any(text != cell for text, cell in quoted.items()):
        cells = list(map(quoted.__getitem__, cells))
    return "%s", cells


def _json_texts(kind: type | None, cells: list, fmt: str) -> tuple[str, Iterable[str]]:
    # ("%s", texts) of one column's row block, as json.dumps writes each cell
    # rounded to fmt
    import json

    if kind is str:
        return "%s", map({text: json.dumps(text) for text in set(cells)}.__getitem__, cells)
    if kind is None:
        return "%s", [json.dumps(float(fmt % value)) if isinstance(value, float)
                      else json.dumps(value) for value in cells]
    # the translation also covers a finite cell that rounds to inf
    # (1.797...e308 at precision 10)
    spelled = map(repr, map(float, map(fmt.__mod__, cells)))
    return "%s", (_JSON_NON_FINITE.get(text, text) for text in spelled)


def _csv_line(fields: list[str]) -> Callable[[tuple], str]:
    # The CSV line of a row of one block's cells: floats format in a row
    # template, and a row of text cells only is joined with commas
    if all(field == "%s" for field in fields):
        return ",".join
    return ",".join(fields).__mod__


def _encoded(
    tables: Iterable[Table], names: list[str], render: Callable, line: Callable,
    head: str, sep: str, tail: str, empty: str,
) -> Iterator[bytes]:
    # UTF-8 of head, the lines of every row block of every table joined by
    # sep, and tail, one block at a time: each block after the first starts
    # with sep. Without any line it is the UTF-8 of empty alone. render(kind,
    # cells) turns a column's block into (row-template field, cells), and
    # line(fields) maps a row's cells to its line. An array's block becomes a
    # list here, so only one block of it is boxed at a time. A coded column's
    # values are rendered as a plain column of them would be, once for
    # consecutive tables that hold the same list object in that column, and
    # each block gathers their texts by code.
    rendered: dict[int, tuple[list, numpy.ndarray]] = {}  # column index -> (values, texts)
    lead = None
    for table in tables:
        count = _row_count(table, names)
        columns = list(table.values())
        for index, column in enumerate(columns):
            if isinstance(column, Coded):
                if rendered.get(index, (None,))[0] is not column.values:
                    import numpy as np  # loaded already: the codes are an array

                    field, cells = render(_column_kind(column.values), column.values)
                    texts = np.array([field % (cell,) for cell in cells], dtype=object)
                    rendered[index] = column.values, texts
                columns[index] = Coded(column.codes, rendered[index][1])
        kinds = [None if isinstance(column, Coded) else _column_kind(column)
                 for column in columns]
        for start in range(0, count, _ROW_BLOCK):
            fields = []
            for column, kind in zip(columns, kinds):
                if isinstance(column, Coded):
                    codes = column.codes[start : start + _ROW_BLOCK]
                    fields.append(("%s", column.values.take(codes).tolist()))
                else:
                    cells = column[start : start + _ROW_BLOCK]
                    cells = cells.tolist() if hasattr(cells, "tolist") else cells
                    fields.append(render(kind, cells))
            if lead is None:
                yield head.encode("utf-8")
            # The lines come straight from the lazy row iterator: a list of
            # row tuples would stop zip from reusing its tuple.
            rows = zip(*(cells for _, cells in fields))
            lines = map(line([field for field, _ in fields]), rows)
            yield sep.join(chain(lead or (), lines)).encode("utf-8")
            lead = ("",)
    yield (empty if lead is None else tail).encode("utf-8")


def serialize_blocks(
    tables: Table | Iterable[Table],
    output_format: str = "csv",
    precision: int = 9,
) -> Iterator[bytes]:
    """Deterministic CSV or JSON bytes of a column table, a block of rows at a time.

    ``tables`` is one table, or an iterable of tables with the same columns
    whose rows are written in order, as one table of all their rows would
    be. Yields the encoded header, each block of up to 2048 rows
    (``_ROW_BLOCK``) of a table, then the tail; their concatenation is the
    whole text. The first table's keys name the columns, in order; every
    column is a list, a 1-D numpy array or a :class:`~quasispin.base.Coded`
    column with one cell per row, and an array's or a coded column's cells
    are those of its ``tolist()``. Floats are written in round-trip ``g``
    form limited to ``precision`` significant digits (6..17, default 9),
    booleans as ``true``/``false``, ``None`` as an empty CSV field or JSON
    ``null``. CSV has LF line endings and RFC 4180 quotes around any string
    cell holding a comma, quote, CR or LF; JSON is a list of objects in
    column order, indented by two spaces, with ``NaN`` and ``Infinity`` for
    non-finite floats. This call checks the format, the precision and the
    first table, and picks the CSV or JSON cell renderer and line builder;
    one loop then takes each table when its rows are due (a later table
    whose columns differ raises ``ValueError``), renders its coded columns'
    values once, cuts it into row blocks, and yields each block's lines as
    they are built. Identical inputs give byte-identical output.
    """
    if not 6 <= precision <= 17 or int(precision) != precision:  # NaN and inf fail the range
        raise DomainError(f"precision must be an integer in [6, 17], got {precision}")
    if output_format not in ("csv", "json"):
        raise DomainError(f"output format must be 'csv' or 'json', got {output_format!r}")
    fmt = f"%.{int(precision)}g"  # 9.0 and np.int64(9) format as 9
    tables = iter((tables,) if isinstance(tables, dict) else tables)
    first = next(tables, None)
    if first is None:
        raise ValueError("no tables to serialize")
    names = list(first)
    _row_count(first, names)
    tables = chain((first,), tables)
    if output_format == "csv":
        lone = len(names) == 1
        header = ",".join(_csv_quote(name, lone) for name in names) + "\n"
        return _encoded(tables, names, lambda kind, cells: _csv_field(kind, cells, fmt, lone),
                        _csv_line, header, "\n", "\n", header)
    import json

    keys = ("    %s: %%s" % json.dumps(name).replace("%", "%%") for name in names)
    template = "  {\n" + ",\n".join(keys) + "\n  }"
    return _encoded(tables, names, lambda kind, cells: _json_texts(kind, cells, fmt),
                    lambda fields: template.__mod__, "[\n", ",\n", "\n]\n", "[]\n")


def serialize(
    tables: Table | Iterable[Table],
    output_format: str = "csv",
    precision: int = 9,
) -> bytes:
    """The whole output of :func:`serialize_blocks` as one ``bytes``."""
    return b"".join(serialize_blocks(tables, output_format, precision))
