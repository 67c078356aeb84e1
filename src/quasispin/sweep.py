"""Temperature sweeps, figure datasets, phase maps, and their serialization.

Every grid is solved in one array call to the physics core (couplings,
ordering measure and gap solve of :mod:`quasispin.meanfield`). Results leave
only as column tables (:data:`quasispin.base.Table`): a ``dict`` of
equal-length lists whose key order is the column order, built from the
``.tolist()`` columns of the core's arrays (:func:`sweep_table`,
:func:`figure1_table`, :func:`figure2_table` and the ``(cells, boundary)``
pair of :func:`phase_map` here; ``meanfield.critical_temperatures`` and
``exact.compare_meanfield`` return tables of the same kind).
:func:`serialize` writes a table to CSV or JSON: a float column that repeats
few values is formatted once per distinct value, other float columns format
inside a row template, rows of text cells only are joined with commas, and
rows are encoded one bounded block at a time. Nothing here draws randomness
or runs threads, so identical inputs give identical output bytes.
"""

from __future__ import annotations

import math
import re
from dataclasses import replace
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .base import FIG1_POINTS, FIG2_POINTS, DomainError, Table
from .meanfield import (
    MAX_PHASE_CELLS,
    NoCriticalPointError,
    Phase,
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
    "proposed_normalizer",
    "figure1_table",
    "figure2_table",
    "phase_map",
    "concat_tables",
    "serialize",
    "plot_script",
]

# Phase maps are classified in blocks of whole columns holding about this
# many cells, so each float temporary stays near 0.5 MB whatever the grid size.
_BLOCK_CELLS = 1 << 16

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
    _check_float_chi(params, "sweep_table")
    if theta_cr is not None and not 0.0 < theta_cr < math.inf:
        raise DomainError(f"theta_cr must be positive and finite, got {theta_cr}")
    if not 0.0 <= theta_min < theta_max < math.inf:
        raise DomainError(f"need 0 <= theta_min < theta_max, got [{theta_min}, {theta_max}]")
    if points < 2:
        raise DomainError(f"points must be >= 2, got {points}")
    thetas = uniform_grid(theta_min, theta_max, points)
    cpl = couplings_at(params, thetas)
    sol = gap_solve(cpl)
    normalized = {} if theta_cr is None else {"theta_norm": (thetas / theta_cr).tolist()}
    return {
        **normalized,
        "theta": thetas.tolist(),
        "nbar": cpl.nbar.tolist(),
        "lambda": cpl.lam.tolist(),
        "varpi": cpl.varpi.tolist(),
        "c_abs": sol.c_abs.tolist(),
        "f_per_atom": sol.free_energy_per_atom.tolist(),
        "rz_eq10": population_inversion(cpl, sol).tolist(),
        "rz_eq4": rz_relaxation(cpl).tolist(),
        "phase": sol.phase.tolist(),
        "variant": [params.variant.value] * thetas.size,
    }


def concat_tables(tables: Sequence[Table]) -> Table:
    """Stack tables with the same columns, row blocks in order."""
    first = tables[0]
    if any(list(table) != list(first) for table in tables):
        raise ValueError("tables to concatenate must have the same columns")
    return {name: list(chain.from_iterable(table[name] for table in tables)) for name in first}


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


def proposed_normalizer(params: ModelParams, tol: float = 1e-10) -> float:
    """Largest transition temperature of the Proposed-variant counterpart.

    Normalized figure axes divide theta by this root. Raises
    :class:`NoCriticalPointError` when the scan range
    ``(1e-4, 2) * omega21`` contains no transition. ``params.chi`` must be a float.
    """
    _check_float_chi(params, "proposed_normalizer")
    (theta_cr,) = _largest_roots(replace(params, variant=Variant.PROPOSED), tol)
    return theta_cr


def figure1_table(
    chi_ratios: Sequence[float],
    points: int = FIG1_POINTS,
    omega_k: float | None = None,
    tol: float = 1e-10,
) -> Table:
    """Order-parameter curves of both variants on a shared normalized axis.

    For each ratio the theta grid spans ``[0, 1.05 * theta_cr]``, where
    ``theta_cr`` is the Proposed variant's largest transition temperature
    (:func:`proposed_normalizer`), so ``theta_norm = theta/theta_cr`` covers
    [0, 1.05] and the Proposed curve reaches zero at 1.0. Columns
    ``chi_ratio``, ``theta_norm``, then :data:`THERMO_COLUMNS`; rows run per
    ratio, the Proposed block before the Traditional one. Raises
    :class:`NoCriticalPointError` for a ratio without a Proposed transition.
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
    tables = []
    for ratio, theta_cr in zip(chi_ratios, scales):
        for variant in Variant:
            params = replace(base, chi=ratio, variant=variant)
            # The sweep table is built first: it checks the grid size before
            # the ratio column repeats anything that many times.
            table = sweep_table(params, 0.0, FIG1_AXIS_MAX * theta_cr, points, theta_cr)
            tables.append({"chi_ratio": [ratio] * points, **table})
    return concat_tables(tables)


def figure2_table(
    chi_ratio: float,
    points: int = FIG2_POINTS,
    variant: Variant = Variant.PROPOSED,
    omega_k: float | None = None,
    tol: float = 1e-10,
) -> Table:
    """Equilibrium vs relaxation polarization across the variant's transition.

    A ``theta, rz_eq10, rz_eq4, variant`` table on ``[0, 2 * theta_cr]`` of
    the requested variant: below the transition the two polarizations agree
    to solver tolerance; above it they separate. Raises
    :class:`NoCriticalPointError` when the variant has no transition at this
    ratio.
    """
    if not 0.0 < chi_ratio < 1.0:
        raise DomainError(f"chi_ratio must lie in (0, 1), got {chi_ratio}")
    variant = Variant(variant)
    params = ModelParams(omega21=1.0, chi=chi_ratio, omega_k=omega_k, variant=variant)
    (theta_cr,) = _largest_roots(params, tol)
    columns = sweep_table(params, 0.0, FIG2_AXIS_MAX * theta_cr, points)
    return {name: columns[name] for name in ("theta", "rz_eq10", "rz_eq4", "variant")}


def phase_map(
    variant: Variant,
    chi_ratio_range: tuple[float, float],
    theta_range: tuple[float, float],
    nx: int,
    ny: int,
    omega_k: float | None = None,
    tol: float = 1e-10,
) -> tuple[Table, Table]:
    """Classify the phase on a coupling-ratio x temperature grid.

    Returns ``(cells, boundary)``. ``cells`` has the columns ``chi_ratio,
    theta, phase, variant`` in row-major order: one row of ``nx`` ratios per
    temperature, temperatures ascending. A cell is ordered where the ordering
    measure is positive. ``boundary`` has the columns ``chi_ratio, theta_cr,
    kind, variant``: the sign changes of that same measure along each ratio
    column's theta grid, by ratio and then by temperature: one
    :func:`transition_roots` call per block of whole columns, whose lanes are
    the block's ratios.

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
        measure = ordering_measure(couplings_at(block, thetas[:, None]))
        ordered[:, start : start + width] = measure > 0.0
        for root, kind, lane in transition_roots(block, thetas, tol):
            boundary["chi_ratio"].append(ratio_list[start + lane])
            boundary["theta_cr"].append(root)
            boundary["kind"].append(kind.value)
    boundary["variant"] = [variant.value] * len(boundary["kind"])
    names = (Phase.DISORDERED.value, Phase.ORDERED.value)
    cells = {
        "chi_ratio": ratio_list * ny,
        "theta": [theta for theta in thetas.tolist() for _ in range(nx)],
        "phase": list(map(names.__getitem__, ordered.ravel().tolist())),
        "variant": [variant.value] * (nx * ny),
    }
    return cells, boundary


# A string cell needs RFC 4180 quotes when it holds one of these characters.
_NEEDS_QUOTES = re.compile('[,"\r\n]')
# json.dumps spellings of the non-finite floats.
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# A float column is formatted once per distinct value when its first
# _MEMO_PROBE cells hold at most 1/_MEMO_SHARE as many distinct values as
# cells. A phase map's two float columns hold one value per grid line and
# pass; a sweep's hold about half distinct values and fail, and memoizing
# them anyway took the CSV of a 24000-row sweep table from 79 to 193 ms, since
# %g inside a row template (~300 ns a cell) is cheaper than a separate format
# plus a lookup. Probing 1024 cells costs 25-75 us per column, against ~20 ms
# to format a 65536-cell column.
_MEMO_PROBE = 1024
_MEMO_SHARE = 4
# Rows are rendered and encoded this many at a time, so the output exists
# whole only as the returned bytes. On the 256x256 phase-map CSV (~170 kB a
# block) warm timings are flat from 256 to 4096 rows and rise 3 % at 16384;
# one block for the whole table is 25 % slower and peaks at 3.35x the output
# size under tracemalloc, against 2.02x.
_ROW_BLOCK = 4096


def _cell_text(value: object, precision: int) -> str:
    # CSV text of a cell in a column that is neither all floats nor all strings
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.*g" % (precision, value)
    return str(value)


def _csv_quote(text: str, lone: bool) -> str:
    # RFC 4180 quoting; the one cell of a one-column row is quoted when empty,
    # so that the row does not read as a blank line.
    if _NEEDS_QUOTES.search(text) or (lone and not text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _memoized(column: list, render: Callable[[float], str]) -> Iterator[str] | None:
    # Texts of a float column that repeats few values, each value rendered
    # once, or None. 0.0 and -0.0 are one key but print differently, so a
    # column holding zeros of both signs is rendered cell by cell; a NaN is
    # found by identity, so each NaN object is a key of its own.
    probe = column[:_MEMO_PROBE]
    if len(set(probe)) * _MEMO_SHARE > len(probe):
        return None
    distinct = set(column)
    if 0.0 in distinct and len(set(map(str, filter((0.0).__eq__, column)))) > 1:
        return None
    return map(dict(zip(distinct, map(render, distinct))).__getitem__, column)


def _csv_column(column: list, precision: int, lone: bool) -> tuple[str, Iterable]:
    # (row-template field, cells for it): a float column formats in the
    # template unless it repeats few values, which are formatted once
    kinds = set(map(type, column))
    if kinds <= {float}:
        fmt = f"%.{precision}g"
        texts = _memoized(column, fmt.__mod__)
        return (fmt, column) if texts is None else ("%s", texts)
    if not kinds <= {str}:
        column = [_cell_text(value, precision) for value in column]
    quoted = {text: _csv_quote(text, lone) for text in set(column)}
    if any(text != cell for text, cell in quoted.items()):
        column = list(map(quoted.__getitem__, column))
    return "%s", column


def _json_column(column: list, precision: int) -> Iterable[str]:
    # JSON text of every cell, as json.dumps writes the cell rounded to precision
    import json

    kinds = set(map(type, column))
    fmt = f"%.{precision}g"
    if kinds <= {float}:
        memo = _memoized(column, lambda value: json.dumps(float(fmt % value)))
        if memo is not None:
            return memo
        # Lazy, so the texts are rendered a row block at a time; the
        # translation also covers a finite cell that rounds to inf
        # (1.797...e308 at precision 10).
        texts = map(repr, map(float, map(fmt.__mod__, column)))
        return (_JSON_NON_FINITE.get(text, text) for text in texts)
    if kinds <= {str}:
        return list(map({text: json.dumps(text) for text in set(column)}.__getitem__, column))
    return [
        json.dumps(float(fmt % value) if isinstance(value, float) else value) for value in column
    ]


def _encode_rows(head: str, lines: Iterator[str], count: int, sep: str, tail: str) -> bytes:
    # UTF-8 of head, the count lines joined by sep, and tail. The lines are
    # rendered and encoded one block at a time, straight from the lazy row
    # iterator: a list of row tuples would stop zip from reusing its tuple,
    # and joining the whole text before encoding would copy it twice.
    chunks = [head.encode("utf-8")]
    between = sep.encode("utf-8")
    for start in range(0, count, _ROW_BLOCK):
        if start:
            chunks.append(between)
        chunks.append(sep.join(islice(lines, _ROW_BLOCK)).encode("utf-8"))
    chunks.append(tail.encode("utf-8"))
    return b"".join(chunks)


def serialize(
    table: Table,
    output_format: str = "csv",
    precision: int = 9,
) -> bytes:
    """Deterministic CSV or JSON bytes for a column table.

    The table's keys name the columns, in order; every column holds one cell
    per row. Floats are written in round-trip ``g`` form limited to
    ``precision`` significant digits (6..17, default 9), booleans as
    ``true``/``false``. CSV has LF line endings and RFC 4180 quotes around
    any string cell holding a comma, quote, CR or LF; JSON is a list of
    objects in column order, indented by two spaces, with ``NaN`` and
    ``Infinity`` for non-finite floats. A float column that repeats few
    values is formatted once per distinct value. Other CSV float columns
    format inside a row template, and a CSV row of text cells only is joined
    with commas. Rows are rendered and encoded a block at a time, so the
    text exists whole only as the returned bytes. Identical inputs give
    byte-identical output.
    """
    if not 6 <= precision <= 17 or int(precision) != precision:  # NaN and inf fail the range
        raise DomainError(f"precision must be an integer in [6, 17], got {precision}")
    if output_format not in ("csv", "json"):
        raise DomainError(f"output format must be 'csv' or 'json', got {output_format!r}")
    precision = int(precision)  # 9.0 and np.int64(9) format as 9
    if len(set(map(len, table.values()))) > 1:
        raise ValueError(f"table columns differ in length: {list(map(len, table.values()))}")
    count = len(next(iter(table.values()), ()))
    if output_format == "csv":
        lone = len(table) == 1
        fields = [_csv_column(column, precision, lone) for column in table.values()]
        header = ",".join(_csv_quote(name, lone) for name in table) + "\n"
        rows = zip(*(cells for _, cells in fields))
        if all(field == "%s" for field, _ in fields):
            lines = map(",".join, rows)
        else:
            lines = map(",".join(field for field, _ in fields).__mod__, rows)
        return _encode_rows(header, lines, count, "\n", "\n" if count else "")
    if not count:
        return b"[]\n"
    import json

    keys = ("    %s: %%s" % json.dumps(name).replace("%", "%%") for name in table)
    template = "  {\n" + ",\n".join(keys) + "\n  }"
    rows = zip(*(_json_column(column, precision) for column in table.values()))
    return _encode_rows("[\n", map(template.__mod__, rows), count, ",\n", "\n]\n")


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
