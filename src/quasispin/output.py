"""Deterministic CSV and JSON bytes of column tables, a block of rows at a time.

:func:`serialize_blocks` writes a table (:data:`quasispin.base.Table`), or a
sequence of tables as their concatenation, to CSV or JSON in one loop. It
picks each column's reader once per table: a coded column's values are
rendered once (once for consecutive tables that share the list) and a row
block gathers their texts by code; an array column is read one block at a
time. CSV is built as bytes: a row with float fields is formatted by a bytes
row template, a row of text cells only is joined with commas, and each
distinct text cell is quoted and encoded once; JSON is built as text and
encoded a block at a time. A block of a float array column whose cells share
one bit pattern (a sweep's constant couplings, say) renders that cell once,
as a literal of the block's CSV row or JSON record template. So a sweep, a
figure or a phase map written from its row blocks holds one block of rows,
whatever its size. :func:`serialize` joins the blocks.

The module imports no numpy: it reads an array column through its ``dtype``,
``view()``, its buffer (a ``memoryview``) and ``tolist()``, and imports numpy
only to render a :class:`~quasispin.base.Coded` column, whose codes are a
numpy array, so numpy is loaded already. A table of lists, such as the one
``micro`` writes, is serialized without it.
"""

from __future__ import annotations

import re
import sys
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator

from .base import Coded, DomainError, Table

__all__ = ["serialize", "serialize_blocks"]

# Sweeps are solved (quasispin.sweep takes this size from here), and tables are
# serialized, at most this many rows at a time, and each block is written before the
# next is made, so neither a sweep's columns nor the output's text and bytes
# exist whole. On a 12000-point CSV sweep of both variants (2-vCPU VM) the
# process peaked at 30.3 / 31.2 / 33.5 MB with 1024 / 2048 / 4096 rows (35.2 MB
# with whole tables); 1024 rows took about 20 ms more than 4096 in process, as
# each block runs its own gap_solve Newton loop and its own per-column set-up
# in the serializer.
_ROW_BLOCK = 2048
# A serializer block also holds at most this many cells: a 10-column sweep
# block about 800 rows, a 4-column phase-map block its whole 2048 rows. The
# 12000-point CSV sweep above peaked at 30.4 MB without the cap and 30.0 MB
# with it (medians of 7, 2 vCPUs).
_BLOCK_CELLS = 2**13


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


def _plain_array(column) -> bool:
    # A numpy ndarray, not a subclass: a masked array's tolist() cells are
    # None where masked, whatever its dtype. numpy is loaded if it is one.
    numpy = sys.modules.get("numpy")
    return numpy is not None and type(column) is numpy.ndarray


def _kind_and_cells(column) -> tuple[type | None, object]:
    # (float or str when every cell of the column is one, else None; its
    # cells): a plain array's dtype answers without a pass over its cells,
    # and a list's numpy scalars (cells with a tolist(): the module imports
    # no numpy) become their tolist() values, as an array's cells are.
    if _plain_array(column) and column.dtype.kind in "fU":
        return float if column.dtype.kind == "f" else str, column
    kinds = set(map(type, column))
    if not hasattr(column, "tolist") and any(hasattr(kind, "tolist") for kind in kinds):
        column = [cell.tolist() if hasattr(cell, "tolist") else cell for cell in column]
    return float if kinds <= {float} else str if kinds <= {str} else None, column


def _row_count(table: Table, names: list[str]) -> int:
    # The rows of a table with the columns names, all of one length
    if list(table) != names:
        raise ValueError(f"tables to serialize must have the same columns, got {list(table)}")
    lengths = [len(column.codes if isinstance(column, Coded) else column)
               for column in table.values()]
    if len(set(lengths)) > 1:
        raise ValueError(f"table columns differ in length: {lengths}")
    return lengths[0] if lengths else 0


def _csv_field(kind: type | None, cells: Iterable, fmt: str, lone: bool) -> tuple[bytes, Iterable]:
    # (row-template field, cells for it) of one column's row block, as bytes:
    # floats format in the template, other cells become their quoted UTF-8,
    # encoded once for each distinct text
    if kind is float:
        return fmt.encode(), cells
    if kind is None:
        cells = [_cell_text(value, fmt) for value in cells]
    quoted = {text: _csv_quote(text, lone).encode("utf-8") for text in set(cells)}
    return b"%s", list(map(quoted.__getitem__, cells))


def _json_texts(kind: type | None, cells: Iterable, fmt: str) -> tuple[str, Iterable[str]]:
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


def _csv_line(fields: list[bytes]) -> Callable[[tuple], bytes]:
    # The CSV line of a row of one block's cells: a row of text cells only is
    # joined with commas, any other formats in a bytes row template
    if fields.count(b"%s") == len(fields):
        return b",".join
    return b",".join(fields).__mod__


def _reader(column, render: Callable, percent, rendered: dict, index: int) -> Callable:
    # Column index's read path, chosen once per table: a function of a row
    # block (start, stop) to render's (row-template field, cells) of it. A
    # coded column's values are rendered once as a list of them would be
    # (once for consecutive tables holding the same list: rendered keeps it),
    # and a block gathers their texts by code. A plain float array's block
    # of one bit pattern (so 0.0 and -0.0, or two NaN payloads, differ)
    # renders that cell, whose text (it holds no %) is the field, a literal
    # of the row template, with cells None. A block of a plain native
    # float64/float32 array is read through its buffer, which boxes one cell
    # at a time, of another array by tolist(), and of a list as a list.
    if isinstance(column, Coded):
        values, texts = rendered.get(index, (None, None))
        if values is not column.values:
            import numpy as np  # loaded already: the codes are an array

            field, cells = render(*_kind_and_cells(column.values))
            texts = np.array([field % (cell,) for cell in cells], dtype=object)
            rendered[index] = column.values, texts
        return lambda start, stop: (percent, texts.take(column.codes[start:stop]).tolist())
    kind, column = _kind_and_cells(column)
    flt = _plain_array(column) and column.dtype.kind == "f"
    bits = column.view(f"u{column.itemsize}") if flt and column.itemsize <= 8 else None
    buffer = flt and column.dtype.isnative and column.dtype.char in "df"
    load = memoryview if buffer else getattr(type(column), "tolist", list)

    def read(start: int, stop: int) -> tuple:
        one = bits is not None and bits[start] == bits[stop - 1]
        one = one and (bits[start:stop] == bits[start]).all()
        field, cells = render(kind, load(column[start : start + 1 if one else stop]))
        return (field % tuple(cells), None) if one else (field, cells)

    return read


def _encoded(
    tables: Iterable[Table], names: list[str], render: Callable, line: Callable,
    head: str, sep: str, tail: str, empty: str, binary: bool,
) -> Iterator[bytes]:
    # UTF-8 of head, the lines of every row block of every table joined by
    # sep, and tail, one block at a time: each block after the first starts
    # with sep. Without any line it is the UTF-8 of empty alone. A block
    # holds at most _ROW_BLOCK rows and _BLOCK_CELLS cells, each column
    # read by its _reader. render(kind, cells) turns a column's block into
    # (row-template field, cells), and line(fields) maps a row's cells to its
    # line; both are bytes when binary (CSV), else str, encoded per block.
    rendered: dict[int, tuple] = {}  # coded column index -> (values, texts)
    step = min(_ROW_BLOCK, max(1, _BLOCK_CELLS // max(1, len(names))))
    percent = b"%s" if binary else "%s"
    joiner = sep.encode("utf-8") if binary else sep
    started = False
    for table in tables:
        count = _row_count(table, names)
        readers = [_reader(column, render, percent, rendered, index)
                   for index, column in enumerate(table.values())]
        for start in range(0, count, step):
            stop = min(start + step, count)
            fields, blocks = zip(*(reader(start, stop) for reader in readers))
            blocks = [cells for cells in blocks if cells is not None]
            if not started:
                yield head.encode("utf-8")
            # The lines come straight from the lazy row iterator: a list of
            # row tuples would stop zip from reusing its tuple.
            rows = zip(*blocks) if blocks else repeat((), stop - start)
            block = joiner.join(chain((joiner[:0],) if started else (), map(line(fields), rows)))
            yield block if binary else block.encode("utf-8")
            started = True
    yield (tail if started else empty).encode("utf-8")


def serialize_blocks(
    tables: Table | Iterable[Table],
    output_format: str = "csv",
    precision: int = 9,
) -> Iterator[bytes]:
    """Deterministic CSV or JSON bytes of a column table, a block of rows at a time.

    ``tables`` is one table, or an iterable of tables with the same columns
    whose rows are written in order, as one table of all their rows would
    be. Yields the encoded header, each block of a table's rows, then the
    tail; their concatenation is the whole text. A block holds up to 2048
    rows (``_ROW_BLOCK``) and up to 8192 cells (``_BLOCK_CELLS``), so about
    800 rows of a 10-column sweep. The first table's keys name the columns,
    in order; every column is a list, a 1-D numpy array or a
    :class:`~quasispin.base.Coded` column with one cell per row, and an
    array's or a coded column's cells are those of its ``tolist()`` (a
    longdouble array's as the floats they round to; a masked array's masked
    cells are ``None``). Floats are written in round-trip ``g``
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
                        _csv_line, header, "\n", "\n", header, binary=True)
    import json

    keys = ["    %s: " % json.dumps(name).replace("%", "%%") for name in names]

    def record(fields: list[str]) -> Callable[[tuple], str]:
        # the JSON object template of a row of one block's cells
        return ("  {\n" + ",\n".join(map(str.__add__, keys, fields)) + "\n  }").__mod__

    return _encoded(tables, names, lambda kind, cells: _json_texts(kind, cells, fmt),
                    record, "[\n", ",\n", "\n]\n", "[]\n", binary=False)


def serialize(
    tables: Table | Iterable[Table],
    output_format: str = "csv",
    precision: int = 9,
) -> bytes:
    """The whole output of :func:`serialize_blocks` as one ``bytes``."""
    return b"".join(serialize_blocks(tables, output_format, precision))
