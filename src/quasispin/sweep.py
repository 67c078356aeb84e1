"""Temperature sweeps, figure datasets, phase maps, and their serialization.

Every grid is solved in one array call to the physics core (couplings,
ordering measure and gap solve of :mod:`quasispin.meanfield`), or in one
call per block of rows or columns. Results leave only as column tables
(:data:`quasispin.base.Table`): a ``dict`` of equal-length columns, each a
list, a 1-D numpy array or a :class:`~quasispin.base.Coded` column (codes
into a list of distinct cells), whose key order is the column order.
:func:`sweep_table` keeps the core's arrays as columns, with the phase and
variant columns coded. :func:`sweep_blocks` gives the rows of
:func:`sweep_table`, and :func:`figure1_blocks` and :func:`figure2_blocks`
the figure datasets (figure 1's ratio column coded), as sequences of
row-block tables, each solved when it is asked for; every check runs in the
call, before the first block. The cell table of :func:`phase_map` is coded
throughout, its ratios and temperatures by grid line; its boundary holds
lists, as do ``meanfield.critical_temperatures`` and
``exact.compare_meanfield``. :func:`serialize_blocks` writes a table, or a
sequence of tables as their concatenation, to CSV or JSON one block of rows
at a time, boxing only that block of an array column: a coded column's
values are rendered once per table and gathered by code, float columns
format inside a row template, and rows of text cells only are joined with
commas. So a sweep or a figure written from its row blocks holds one block
of rows and its grids, whatever its length. :func:`serialize` joins the
blocks. Nothing here draws randomness or runs threads, so identical inputs
give identical output bytes.
"""

from __future__ import annotations

import math
import re
from dataclasses import replace
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .base import FIG1_POINTS, FIG2_POINTS, ROOT_TOL, Coded, DomainError, Table
from .meanfield import (
    MAX_PHASE_CELLS,
    NoCriticalPointError,
    Phase,
    _PHASE_NAMES,
    _sign_change_roots,
    gap_solve,
    ordering_measure,
    population_inversion,
    rz_relaxation,
    transition_roots,
    uniform_grid,
)
from .thermal import ModelParams, Variant, _check_float_chi, couplings_at

__all__ = [
    "THERMO_COLUMNS",
    "sweep_table",
    "sweep_blocks",
    "proposed_normalizer",
    "figure1_blocks",
    "figure2_blocks",
    "phase_map",
    "serialize",
    "serialize_blocks",
    "plot_script",
]

# Phase maps are classified in blocks of whole columns holding about this
# many cells, so each float temporary stays near 0.5 MB whatever the grid size.
_BLOCK_CELLS = 1 << 16
# Sweeps are solved, and tables are serialized, this many rows at a time, and
# each block is written before the next is made, so neither a sweep's columns
# nor the output's text and bytes exist whole. On a 12000-point CSV sweep of
# both variants (2-vCPU VM) the process peaked at 30.3 / 31.2 / 33.5 MB with
# 1024 / 2048 / 4096 rows (35.2 MB with whole tables); 1024 rows took about
# 20 ms more than 4096 in process, as each block runs its own gap_solve Newton
# loop and its own per-column set-up in the serializer.
_ROW_BLOCK = 2048

# Columns of a sweep table, in order.
THERMO_COLUMNS = (
    "theta",
    "nbar",
    "lambda",
    "varpi",
    "c_abs",
    "f_per_atom",
    "rz_eq10",
    "rz_eq4",
    "phase",
    "variant",
)

# Normalized figure-1 axis runs to 1.05 so the transition sits just inside.
FIG1_AXIS_MAX = 1.05
# Figure-2 grids span twice the critical temperature: coincidence below,
# separation above, with theta_cr exactly on the grid.
FIG2_AXIS_MAX = 2.0

# Critical-point searches scan (1e-4, 2)*omega21: every transition of either
# variant with chi/omega21 in (0, 1) and omega_k = omega21/2 lies well below
# the upper end.
_SCAN_FLOOR = 1e-4
_SCAN_CEIL = 2.0
_SCAN_GRID = 1024


def _sweep_grid(
    params: ModelParams, theta_min: float, theta_max: float, points: int, theta_cr: float | None
) -> np.ndarray:
    # The checked nodes of a sweep
    _check_float_chi(params, "sweep_table")
    if theta_cr is not None and not 0.0 < theta_cr < math.inf:
        raise DomainError(f"theta_cr must be positive and finite, got {theta_cr}")
    if not 0.0 <= theta_min < theta_max < math.inf:
        raise DomainError(f"need 0 <= theta_min < theta_max, got [{theta_min}, {theta_max}]")
    if points < 2:
        raise DomainError(f"points must be >= 2, got {points}")
    return uniform_grid(theta_min, theta_max, points)


def _sweep_rows(params: ModelParams, thetas: np.ndarray, theta_cr: float | None) -> Table:
    # The sweep table of the nodes thetas, from one couplings_at -> gap_solve call
    cpl = couplings_at(params, thetas)
    sol = gap_solve(cpl)
    normalized = {} if theta_cr is None else {"theta_norm": thetas / theta_cr}
    return {
        **normalized,
        "theta": thetas,
        "nbar": cpl.nbar,
        "lambda": cpl.lam,
        "varpi": cpl.varpi,
        "c_abs": sol.c_abs,
        "f_per_atom": sol.free_energy_per_atom,
        "rz_eq10": population_inversion(cpl, sol),
        "rz_eq4": rz_relaxation(cpl),
        "phase": Coded((sol.phase == Phase.ORDERED.value).view(np.uint8), _PHASE_NAMES.tolist()),
        "variant": Coded(np.zeros(thetas.size, np.uint8), [params.variant.value]),
    }


def sweep_table(
    params: ModelParams,
    theta_min: float,
    theta_max: float,
    points: int,
    theta_cr: float | None = None,
) -> Table:
    """Column table of one sweep, with the :data:`THERMO_COLUMNS` columns.

    One row per node of a ``uniform_grid`` of ``points >= 2`` temperatures
    with ``0 <= theta_min < theta_max`` (finite), all solved in one array
    call; ``theta = 0`` takes the saturated limit. With ``theta_cr`` (positive,
    finite) the table starts with ``theta_norm = theta / theta_cr``. ``params.chi``
    must be a float.
    """
    grid = _sweep_grid(params, theta_min, theta_max, points, theta_cr)
    return _sweep_rows(params, grid, theta_cr)


def sweep_blocks(
    params: ModelParams,
    theta_min: float,
    theta_max: float,
    points: int,
    theta_cr: float | None = None,
) -> Iterator[Table]:
    """The rows of :func:`sweep_table`, as tables of consecutive row blocks.

    The arguments are checked and the grid is made by this call; each block
    of up to 2048 nodes (``_ROW_BLOCK``) is solved in one array call when it
    is asked for, so a sweep of any length needs memory for one block of rows
    and the grid. The blocks' rows, in order, are those of
    :func:`sweep_table` with the same arguments, and :func:`serialize_blocks`
    writes the sequence as it would write that table.
    """
    grid = _sweep_grid(params, theta_min, theta_max, points, theta_cr)
    # each block's nodes are a copy: a view of the grid would keep the whole
    # grid alive for as long as the caller holds the block
    starts = range(0, grid.size, _ROW_BLOCK)
    return (
        _sweep_rows(params, grid[start : start + _ROW_BLOCK].copy(), theta_cr) for start in starts
    )


def _largest_roots(params: ModelParams, tol: float) -> list[float]:
    # Largest transition temperature of each chi lane of params, scanned on
    # the figure window (1e-4, 2)*omega21; a lane without one raises.
    lo, hi = _SCAN_FLOOR * params.omega21, _SCAN_CEIL * params.omega21
    roots = transition_roots(params, uniform_grid(lo, hi, _SCAN_GRID), tol)
    largest = {lane: root for root, _, lane in roots}  # by lane, then theta: the last wins
    ratios = np.atleast_1d(params.chi / params.omega21).tolist()
    for lane, ratio in enumerate(ratios):
        if lane not in largest:
            raise NoCriticalPointError(
                f"no critical temperature for chi/omega21 = {ratio!r} "
                f"({params.variant.value} variant) with theta/omega21 in "
                f"[{_SCAN_FLOOR:g}, {_SCAN_CEIL:g}]"
            )
    return [largest[lane] for lane in range(len(ratios))]


def proposed_normalizer(params: ModelParams, tol: float = ROOT_TOL) -> float:
    """Largest transition temperature of the Proposed-variant counterpart.

    Normalized figure axes divide theta by this root. Raises
    :class:`NoCriticalPointError` when the scan range
    ``(1e-4, 2) * omega21`` contains no transition. ``params.chi`` must be a float.
    """
    _check_float_chi(params, "proposed_normalizer")
    (theta_cr,) = _largest_roots(replace(params, variant=Variant.PROPOSED), tol)
    return theta_cr


def figure1_blocks(
    chi_ratios: Sequence[float],
    points: int = FIG1_POINTS,
    omega_k: float | None = None,
    tol: float = ROOT_TOL,
) -> Iterator[Table]:
    """Order-parameter curves of both variants on a shared normalized axis.

    For each ratio the theta grid spans ``[0, 1.05 * theta_cr]``, where
    ``theta_cr`` is the Proposed variant's largest transition temperature
    (:func:`proposed_normalizer`), so ``theta_norm = theta/theta_cr`` covers
    [0, 1.05] and the Proposed curve reaches zero at 1.0. The row blocks of
    these sweeps, as :func:`sweep_blocks` gives them, have the columns
    ``chi_ratio``, ``theta_norm``, then :data:`THERMO_COLUMNS`; rows run per
    ratio, the Proposed sweep before the Traditional one. Every check runs in
    this call: it raises :class:`NoCriticalPointError` for a ratio without a
    Proposed transition, and the errors of :func:`sweep_blocks`.
    """
    if not chi_ratios:
        raise DomainError("chi_ratios must not be empty")
    for ratio in chi_ratios:
        if not 0.0 < ratio < 1.0:
            raise DomainError(f"each chi ratio must lie in (0, 1), got {ratio}")
    # One scan finds every normalizer first, so a ratio without a transition
    # is reported before an oversized grid is.
    base = ModelParams(omega21=1.0, chi=np.array(chi_ratios, dtype=float), omega_k=omega_k)
    scales = _largest_roots(base, tol)
    # a list: every sweep checks its grid before the first block is asked for
    sweeps = [
        (ratio, sweep_blocks(replace(base, chi=ratio, variant=variant),
                             0.0, FIG1_AXIS_MAX * theta_cr, points, theta_cr))
        for ratio, theta_cr in zip(chi_ratios, scales)
        for variant in Variant
    ]
    return (
        {"chi_ratio": Coded(np.zeros(len(block["theta"]), np.uint8), [ratio]), **block}
        for ratio, blocks in sweeps
        for block in blocks
    )


def figure2_blocks(
    chi_ratio: float,
    points: int = FIG2_POINTS,
    variant: Variant = Variant.PROPOSED,
    omega_k: float | None = None,
    tol: float = ROOT_TOL,
) -> Iterator[Table]:
    """Equilibrium vs relaxation polarization across the variant's transition.

    The row blocks, as :func:`sweep_blocks` gives them, of a ``theta,
    rz_eq10, rz_eq4, variant`` table on ``[0, 2 * theta_cr]`` of the
    requested variant: below the transition the two polarizations agree to
    solver tolerance; above it they separate. Every check runs in this call:
    it raises :class:`NoCriticalPointError` when the variant has no
    transition at this ratio, and the errors of :func:`sweep_blocks`.
    """
    if not 0.0 < chi_ratio < 1.0:
        raise DomainError(f"chi_ratio must lie in (0, 1), got {chi_ratio}")
    variant = Variant(variant)
    params = ModelParams(omega21=1.0, chi=chi_ratio, omega_k=omega_k, variant=variant)
    (theta_cr,) = _largest_roots(params, tol)
    blocks = sweep_blocks(params, 0.0, FIG2_AXIS_MAX * theta_cr, points)
    return ({name: block[name] for name in ("theta", "rz_eq10", "rz_eq4", "variant")}
            for block in blocks)


def phase_map(
    variant: Variant,
    chi_ratio_range: tuple[float, float],
    theta_range: tuple[float, float],
    nx: int,
    ny: int,
    omega_k: float | None = None,
    tol: float = ROOT_TOL,
) -> tuple[Table, Table]:
    """Classify the phase on a coupling-ratio x temperature grid.

    Returns ``(cells, boundary)``. ``cells`` has the columns ``chi_ratio,
    theta, phase, variant`` in row-major order: one row of ``nx`` ratios per
    temperature, temperatures ascending. Each is a
    :class:`~quasispin.base.Coded` column, whose values are the ``nx``
    ratios, the ``ny`` temperatures, the two phase names and the variant,
    so a map costs a few bytes a cell. A cell is ordered where the ordering
    measure is positive. ``boundary`` has the columns ``chi_ratio, theta_cr,
    kind, variant``: the sign changes of that same measure along each ratio
    column's theta grid, by ratio and then by temperature, found as
    :func:`transition_roots` finds them. Cells and roots come a block of
    whole columns at a time, whose ratios are the lanes of one scan, and the
    measure is evaluated once per block for both.

    Energies are in units of the bare splitting; ``omega_k`` defaults to
    half of it.
    """
    variant = Variant(variant)
    ratio_lo, ratio_hi = chi_ratio_range
    theta_lo, theta_hi = theta_range
    if not 0.0 < ratio_lo < ratio_hi:
        raise DomainError(f"need 0 < lo < hi for chi_ratio_range, got {chi_ratio_range}")
    if not 0.0 < theta_lo < theta_hi:
        raise DomainError(f"need 0 < lo < hi for theta_range, got {theta_range}")
    if nx < 2 or ny < 2:
        raise DomainError(f"nx and ny must be >= 2, got nx={nx}, ny={ny}")
    if nx * ny > MAX_PHASE_CELLS:
        raise DomainError(f"grid of {nx}x{ny} cells exceeds the cap of {MAX_PHASE_CELLS}")
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    ratios = uniform_grid(ratio_lo, ratio_hi, nx)
    thetas = uniform_grid(theta_lo, theta_hi, ny)
    ratio_list = ratios.tolist()
    ordered = np.empty((ny, nx), dtype=bool)
    boundary: Table = {"chi_ratio": [], "theta_cr": [], "kind": []}
    width = max(1, _BLOCK_CELLS // ny)
    for start in range(0, nx, width):
        block = ModelParams(
            omega21=1.0, chi=ratios[start : start + width], omega_k=omega_k, variant=variant
        )
        # the measure of the cells is the node measure of the block's scan
        measure = ordering_measure(couplings_at(block, thetas[:, None]))
        ordered[:, start : start + width] = measure > 0.0
        for root, kind, lane in _sign_change_roots(block, block.chi, thetas, tol, measure):
            boundary["chi_ratio"].append(ratio_list[start + lane])
            boundary["theta_cr"].append(root)
            boundary["kind"].append(kind.value)
    boundary["variant"] = [variant.value] * len(boundary["kind"])
    # the codes of each cell's ratio and temperature, in the smallest dtype
    column_codes = np.arange(nx, dtype=np.min_scalar_type(nx - 1))
    row_codes = np.arange(ny, dtype=np.min_scalar_type(ny - 1))
    cells = {
        "chi_ratio": Coded(np.tile(column_codes, ny), ratio_list),
        "theta": Coded(np.repeat(row_codes, nx), thetas.tolist()),
        "phase": Coded(ordered.ravel().view(np.uint8), _PHASE_NAMES.tolist()),
        "variant": Coded(np.zeros(nx * ny, np.uint8), [variant.value]),
    }
    return cells, boundary


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


def _column_blocks(column, count: int, render: Callable) -> Iterator[tuple[str, Iterable]]:
    # (row-template field, cells for it) of each row block of one column, from
    # render(kind, cells). An array's block becomes a list here, so only one
    # block of it is boxed at a time. A coded column's values are rendered
    # once, and each block gathers their texts by code.
    if isinstance(column, Coded):
        field, cells = render(_column_kind(column.values), column.values)
        texts = np.array([field % (cell,) for cell in cells], dtype=object)
        for start in range(0, count, _ROW_BLOCK):
            yield "%s", texts.take(column.codes[start : start + _ROW_BLOCK]).tolist()
        return
    kind = _column_kind(column)
    for start in range(0, count, _ROW_BLOCK):
        cells = column[start : start + _ROW_BLOCK]
        yield render(kind, cells.tolist() if isinstance(cells, np.ndarray) else cells)


def _row_blocks(tables: Iterable[Table], names: list[str], render: Callable) -> Iterator[tuple]:
    # The (field, cells) of every column, one row block of one table at a time
    for table in tables:
        count = _row_count(table, names)
        yield from zip(*(_column_blocks(column, count, render) for column in table.values()))


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


def _csv_lines(blocks: Iterable[tuple]) -> Iterator[Iterator[str]]:
    # The CSV lines of each row block, without their line ends
    for fields in blocks:
        rows = zip(*(cells for _, cells in fields))
        if all(field == "%s" for field, _ in fields):
            yield map(",".join, rows)
        else:
            yield map(",".join(field for field, _ in fields).__mod__, rows)


def _json_lines(blocks: Iterable[tuple], names: list[str]) -> Iterator[Iterator[str]]:
    # The JSON objects of each row block
    import json

    keys = ("    %s: %%s" % json.dumps(name).replace("%", "%%") for name in names)
    template = "  {\n" + ",\n".join(keys) + "\n  }"
    for fields in blocks:
        yield map(template.__mod__, zip(*(cells for _, cells in fields)))


def _encoded(
    blocks: Iterable[Iterable[str]], head: str, sep: str, tail: str, empty: str
) -> Iterator[bytes]:
    # UTF-8 of head, every line of every block joined by sep, and tail, one
    # block at a time: each block after the first starts with sep. Without
    # any line it is the UTF-8 of empty alone. The lines come straight from
    # the lazy row iterator: a list of row tuples would stop zip from reusing
    # its tuple.
    lead = None
    for lines in blocks:
        if lead is None:
            yield head.encode("utf-8")
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
    are those of its ``tolist()``. Floats are written in
    round-trip ``g`` form limited to ``precision`` significant digits (6..17,
    default 9), booleans as ``true``/``false``, ``None`` as an empty CSV field
    or JSON ``null``. CSV has LF line endings and RFC 4180 quotes around any
    string cell holding a comma, quote, CR or LF; JSON is a list of objects in
    column order, indented by two spaces, with ``NaN`` and ``Infinity`` for
    non-finite floats. A coded column's values are rendered once per table,
    as a plain column of those cells would be, and each row block gathers
    their texts by code. CSV float columns format inside a row template, and
    a CSV row of text cells only is joined with commas. The format, the
    precision and the first table are taken and checked by this call, before
    the first block is asked for; a later table is taken when its rows are
    due, and raises ``ValueError`` if its columns differ. Identical inputs
    give byte-identical output.
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
        blocks = _row_blocks(tables, names, lambda kind, cells: _csv_field(kind, cells, fmt, lone))
        return _encoded(_csv_lines(blocks), header, "\n", "\n", header)
    blocks = _row_blocks(tables, names, lambda kind, cells: _json_texts(kind, cells, fmt))
    return _encoded(_json_lines(blocks, names), "[\n", ",\n", "\n]\n", "[]\n")


def serialize(
    tables: Table | Iterable[Table],
    output_format: str = "csv",
    precision: int = 9,
) -> bytes:
    """The whole output of :func:`serialize_blocks` as one ``bytes``."""
    return b"".join(serialize_blocks(tables, output_format, precision))


_PLOT_HEADER = """\
#!/usr/bin/env python3
# Plot {what} from {csv_path} (columns referenced by name).
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

rows = list(csv.DictReader(open({csv_path!r}, newline="")))
"""

_PLOT_BODIES = {
    "fig1": """\
series = defaultdict(list)
for row in rows:
    series[(row["chi_ratio"], row["variant"])].append(row)
for (ratio, variant), pts in sorted(series.items()):
    style = "--" if variant == "traditional" else "-"
    plt.plot([float(p["theta_norm"]) for p in pts],
             [float(p["c_abs"]) for p in pts],
             style, label=f"ratio {ratio} ({variant})")
plt.xlabel("theta / theta_cr")
plt.ylabel("c_abs")
""",
    "fig2": """\
series = defaultdict(list)
for row in rows:
    series[row["variant"]].append(row)
for variant, pts in sorted(series.items()):
    thetas = [float(p["theta"]) for p in pts]
    plt.plot(thetas, [float(p["rz_eq10"]) for p in pts], "-",
             label=f"equilibrium ({variant})")
    plt.plot(thetas, [float(p["rz_eq4"]) for p in pts], ":",
             label=f"relaxation ({variant})")
plt.xlabel("theta")
plt.ylabel("polarization per atom")
""",
}

_PLOT_FOOTER = """\
plt.legend()
plt.tight_layout()
plt.show()
"""


def plot_script(figure: str, csv_path: str) -> str:
    """Plain-text plotting script for a written CSV (fig1 or fig2)."""
    if figure not in _PLOT_BODIES:
        raise DomainError(f"unknown figure kind {figure!r}; expected one of {sorted(_PLOT_BODIES)}")
    header = _PLOT_HEADER.format(what=figure, csv_path=csv_path)
    return header + _PLOT_BODIES[figure] + _PLOT_FOOTER
