"""Temperature sweeps, figure datasets, phase maps, and the figures' plot scripts.

Every grid is solved in one array call to the physics core (couplings,
ordering measure and gap solve of :mod:`quasispin.meanfield`), or in one
call per block of rows, or per tile of a transition scan. Results leave
only as column tables (:data:`quasispin.base.Table`): a ``dict`` of
equal-length columns, each a list, a 1-D numpy array or a
:class:`~quasispin.base.Coded` column (codes into a list of distinct
cells), whose key order is the column order. :func:`sweep_table` keeps the
core's arrays as columns, with the phase and variant columns coded.
:func:`sweep_blocks` gives the rows of :func:`sweep_table`, and
:func:`figure1_blocks` and :func:`figure2_blocks` the figure datasets
(figure 1's ratio column coded), as sequences of row-block tables, each
solved when it is asked for; every check runs in the call, before the first
block. :func:`phase_map` classifies its cells and finds its whole boundary
in the call, keeping one byte a cell, and gives the cells as coded
row-block tables of whole temperature rows; its boundary holds lists, as do
``meanfield.critical_temperatures`` and ``exact.compare_meanfield``. Row
blocks have the serializer's row limit, ``output._ROW_BLOCK``, and
:func:`quasispin.output.serialize_blocks` writes a sequence of them as one
table, so a sweep, a figure or a phase map written from its row blocks holds
one block of rows and its grids (a phase map also its byte a cell), whatever
its size. Nothing here draws randomness or runs threads, so identical inputs
give identical output bytes.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .base import FIG1_POINTS, FIG2_POINTS, ROOT_TOL, Coded, DomainError, Table
from .base import _SCAN_CEIL, _SCAN_FLOOR
from .meanfield import (
    MAX_PHASE_CELLS,
    NoCriticalPointError,
    _PHASE_NAMES,
    _tiled_scan,
    gap_solve,
    population_inversion,
    rz_relaxation,
    transition_roots,
    uniform_grid,
)
from .output import _ROW_BLOCK
from .thermal import ModelParams, Variant, _check_float_chi, couplings_at

__all__ = [
    "THERMO_COLUMNS",
    "sweep_table",
    "sweep_blocks",
    "proposed_normalizer",
    "figure1_blocks",
    "figure2_blocks",
    "phase_map",
    "plot_script",
]

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

_SCAN_GRID = 1024  # nodes of the normalizer scans, on the window of quasispin.base


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
        # gap_solve returns c_abs > 0 on exactly its ordered lanes
        "phase": Coded((sol.c_abs > 0.0).view(np.uint8), _PHASE_NAMES.tolist()),
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
    :func:`sweep_table` with the same arguments, and
    :func:`~quasispin.output.serialize_blocks` writes the sequence as it would
    write that table.
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
    (theta_cr,) = _largest_roots(params._replace(variant=Variant.PROPOSED), tol)
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
    # Every sweep's grid is checked here, then dropped: its nodes depend only
    # on the bounds and the count, and sweep_blocks makes them again when the
    # sweep's first block is due, so one grid exists at a time. Both sweeps of
    # a ratio share its one-value list, so the serializer renders it once.
    sweeps = [
        ([ratio], base._replace(chi=ratio), (0.0, FIG1_AXIS_MAX * theta_cr, points, theta_cr))
        for ratio, theta_cr in zip(chi_ratios, scales)
    ]
    for _, params, grid in sweeps:
        _sweep_grid(params, *grid)
    return (
        {"chi_ratio": Coded(np.zeros(len(block["theta"]), np.uint8), values), **block}
        for values, params, grid in sweeps
        for variant in Variant
        for block in sweep_blocks(params._replace(variant=variant), *grid)
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
) -> tuple[Iterator[Table], Table]:
    """Classify the phase on a coupling-ratio x temperature grid.

    Returns ``(cells, boundary)``. ``cells`` is a sequence of row-block
    tables with the columns ``chi_ratio, theta, phase, variant``, each of
    whole temperature rows of ``nx`` ratios and about 2048 cells
    (``_ROW_BLOCK``; one row when ``nx`` is larger), temperatures ascending:
    the map's rows in row-major order. Each column is a
    :class:`~quasispin.base.Coded` column, whose values are the ``nx`` ratios
    (one list shared by every block), the block's temperatures, the two
    phase names and the variant. A cell is ordered where the ordering
    measure is positive. ``boundary`` has the columns ``chi_ratio, theta_cr,
    kind, variant``: the sign changes of that same measure along each ratio
    column's theta grid, by ratio and then by temperature, found as
    :func:`transition_roots` finds them, by the same scan whose tiles give
    the cells. Every check and the whole boundary complete in this call,
    which keeps the map's phases as one byte a cell; the blocks are made
    from them as they are asked for.

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
    params = ModelParams(omega21=1.0, chi=ratios, omega_k=omega_k, variant=variant)
    ordered = np.empty((ny, nx), dtype=bool)
    roots = _tiled_scan(params, ratios, thetas, tol, ordered)
    ratio_list = ratios.tolist()
    boundary = {
        "chi_ratio": [ratio_list[lane] for _, _, lane in roots],
        "theta_cr": [root for root, _, _ in roots],
        "kind": [kind.value for _, kind, _ in roots],
        "variant": [variant.value] * len(roots),
    }
    # Each block's cells are codes into the ratios, its own temperatures and
    # the phase names, in the smallest dtypes; the value lists that do not
    # change from block to block are shared, so they are rendered once.
    rows = max(1, _ROW_BLOCK // nx)
    column_codes = np.arange(nx, dtype=np.min_scalar_type(nx - 1))
    phases, variants = _PHASE_NAMES.tolist(), [variant.value]

    def block(start: int) -> Table:
        stop = min(start + rows, ny)
        row_codes = np.arange(stop - start, dtype=np.min_scalar_type(stop - start - 1))
        return {
            "chi_ratio": Coded(np.tile(column_codes, stop - start), ratio_list),
            "theta": Coded(np.repeat(row_codes, nx), thetas[start:stop].tolist()),
            "phase": Coded(ordered[start:stop].ravel().view(np.uint8), phases),
            "variant": Coded(np.zeros((stop - start) * nx, np.uint8), variants),
        }

    return map(block, range(0, ny, rows)), boundary


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
