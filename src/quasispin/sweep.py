"""Temperature sweeps, figure series, phase maps, and their serialization.

Every grid is solved in one array call to the physics core (couplings,
ordering measure and gap solve of :mod:`quasispin.meanfield`), then turned
into records column by column. Nothing here draws randomness or runs
threads, so identical inputs give identical output bytes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .meanfield import (
    CriticalPoint,
    NoCriticalPointError,
    Phase,
    TransitionKind,
    _sign_change_roots,
    _uniform_grid,
    critical_temperatures,
    gap_solve,
    is_ordered,
    ordering_measure,
    population_inversion,
    rz_relaxation,
)
from .thermal import DomainError, ModelParams, Variant, couplings_at

__all__ = [
    "OutputFormat",
    "THERMO_COLUMNS",
    "ThermoPoint",
    "SweepConfig",
    "RatioSeries",
    "PopulationPoint",
    "BoundaryPoint",
    "PhaseMap",
    "MAX_PHASE_CELLS",
    "thermo_point",
    "sweep_records",
    "temperature_sweep",
    "proposed_normalizer",
    "default_theta_max",
    "figure1_series",
    "figure1_records",
    "figure2_series",
    "figure2_records",
    "phase_map",
    "phase_map_records",
    "boundary_records",
    "critical_point_records",
    "comparison_records",
    "serialize",
    "plot_script",
]

MAX_PHASE_CELLS = 10_000_000
# Phase maps are classified in blocks of whole columns holding about this
# many cells, so each float temporary stays near 0.5 MB whatever the grid size.
_BLOCK_CELLS = 1 << 16

# Fixed serialization schema for thermodynamic records, in order.
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


class OutputFormat(str, Enum):
    CSV = "csv"
    JSON = "json"


@dataclass(frozen=True)
class ThermoPoint:
    """Equilibrium state of one variant at one temperature."""

    theta: float
    nbar: float
    lam: float
    varpi: float
    c_abs: float
    f_per_atom: float
    rz_eq10: float  # polarization of the equilibrium solution
    rz_eq4: float  # stationary polarization of the relaxation dynamics
    phase: Phase
    variant: Variant

    def record(self) -> dict[str, object]:
        """Serialization record with the fixed column names and order."""
        return {
            "theta": self.theta,
            "nbar": self.nbar,
            "lambda": self.lam,
            "varpi": self.varpi,
            "c_abs": self.c_abs,
            "f_per_atom": self.f_per_atom,
            "rz_eq10": self.rz_eq10,
            "rz_eq4": self.rz_eq4,
            "phase": self.phase.value,
            "variant": self.variant.value,
        }


@dataclass(frozen=True)
class SweepConfig:
    """Temperature-grid specification for one sweep."""

    params: ModelParams
    theta_min: float
    theta_max: float
    points: int
    normalize_axis: bool = False
    output_format: OutputFormat = OutputFormat.CSV

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta_min < self.theta_max < math.inf:
            raise DomainError(
                f"need 0 <= theta_min < theta_max, got [{self.theta_min}, {self.theta_max}]"
            )
        if self.points < 2:
            raise DomainError(f"points must be >= 2, got {self.points}")
        object.__setattr__(self, "output_format", OutputFormat(self.output_format))


@dataclass(frozen=True)
class RatioSeries:
    """Paired variant sweeps for one coupling ratio, sharing one normalizer."""

    chi_ratio: float
    theta_cr_max: float  # largest Proposed-variant transition temperature
    proposed: list[ThermoPoint]
    traditional: list[ThermoPoint]


@dataclass(frozen=True)
class PopulationPoint:
    """Equilibrium vs relaxation polarization at one temperature."""

    theta: float
    rz_eq10: float
    rz_eq4: float
    variant: Variant

    def record(self) -> dict[str, object]:
        return {
            "theta": self.theta,
            "rz_eq10": self.rz_eq10,
            "rz_eq4": self.rz_eq4,
            "variant": self.variant.value,
        }


@dataclass(frozen=True)
class BoundaryPoint:
    chi_ratio: float
    theta_cr: float
    kind: TransitionKind


@dataclass(frozen=True)
class PhaseMap:
    """Phase classification on a ratio x temperature grid.

    ``ordered[i, j]`` classifies the cell at ``thetas[i]``,
    ``chi_ratios[j]``; the boundary holds the per-column transition
    temperatures refined by bisection.
    """

    variant: Variant
    chi_ratios: list[float]
    thetas: list[float]
    ordered: np.ndarray  # bool, shape (len(thetas), len(chi_ratios))
    boundary: list[BoundaryPoint]


def _columns(params: ModelParams, thetas: np.ndarray) -> dict[str, list]:
    # One call to the array core solves every temperature; theta = 0 takes
    # the analytic saturated limit.
    cpl = couplings_at(params, thetas)
    sol = gap_solve(cpl)
    return {
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


def _sweep_columns(cfg: SweepConfig) -> dict[str, list]:
    return _columns(cfg.params, _uniform_grid(cfg.theta_min, cfg.theta_max, cfg.points))


def _points(columns: dict[str, list], variant: Variant) -> list[ThermoPoint]:
    columns["phase"] = [Phase(value) for value in columns["phase"]]
    columns["variant"] = [variant] * len(columns["theta"])
    return [ThermoPoint(*row) for row in zip(*columns.values())]


def thermo_point(params: ModelParams, theta: float) -> ThermoPoint:
    """Solve one temperature; theta = 0 uses the analytic saturated limit."""
    return _points(_columns(params, np.array([theta], dtype=float)), params.variant)[0]


def temperature_sweep(cfg: SweepConfig) -> list[ThermoPoint]:
    """Equilibrium solutions on a uniform theta grid, one record per point."""
    return _points(_sweep_columns(cfg), cfg.params.variant)


def sweep_records(cfg: SweepConfig, theta_cr: float | None = None) -> list[dict[str, object]]:
    """Serialization records of one sweep, keyed by :data:`THERMO_COLUMNS`.

    With ``theta_cr`` each record starts with ``theta_norm = theta / theta_cr``.
    """
    columns = _sweep_columns(cfg)
    if theta_cr is not None:
        columns = {"theta_norm": [theta / theta_cr for theta in columns["theta"]], **columns}
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def proposed_normalizer(params: ModelParams, tol: float = 1e-10) -> CriticalPoint:
    """Largest transition temperature of the Proposed-variant counterpart.

    Normalized figure axes divide theta by this root. Raises
    :class:`NoCriticalPointError` when the scan range
    ``(1e-4, 2) * omega21`` contains no transition.
    """
    proposed = replace(params, variant=Variant.PROPOSED)
    points = critical_temperatures(
        proposed,
        (_SCAN_FLOOR * params.omega21, _SCAN_CEIL * params.omega21),
        grid_points=_SCAN_GRID,
        tol=tol,
    )
    if not points:
        raise NoCriticalPointError(
            f"no critical temperature for chi/omega21 = {params.chi / params.omega21:g} "
            f"(proposed variant) within (0, {_SCAN_CEIL:g}*omega21]"
        )
    return points[-1]


def default_theta_max(chi_ratio: float) -> float:
    """Default sweep extent, in units of the bare splitting.

    Three times the constant-coupling transition temperature when one
    exists (it has the closed form ``|varpi| / (2*artanh(|varpi|/lam))``),
    else twice the bare splitting.
    """
    if chi_ratio <= 0.0:
        raise DomainError(f"chi_ratio must be positive, got {chi_ratio}")
    lam = chi_ratio
    varpi = abs(1.0 - chi_ratio)
    if varpi < lam:
        theta_cr = 0.5 * lam if varpi == 0.0 else varpi / (2.0 * math.atanh(varpi / lam))
        return 3.0 * theta_cr
    return 2.0


def figure1_series(
    chi_ratios: Sequence[float],
    points: int = 400,
    omega_k: float | None = None,
    tol: float = 1e-10,
) -> list[RatioSeries]:
    """Order-parameter curves for both variants on a shared normalized axis.

    For each ratio the theta grid spans ``[0, 1.05 * theta_cr]`` where
    ``theta_cr`` is the Proposed variant's largest transition temperature,
    so ``theta/theta_cr`` covers [0, 1.05] and the Proposed curve reaches
    zero at 1.0. Raises :class:`NoCriticalPointError` for ratios without a
    Proposed transition.
    """
    if not chi_ratios:
        raise DomainError("chi_ratios must not be empty")
    for ratio in chi_ratios:
        if not 0.0 < ratio < 1.0:
            raise DomainError(f"each chi ratio must lie in (0, 1), got {ratio}")
    series = []
    for ratio in chi_ratios:
        base = ModelParams(omega21=1.0, chi=ratio, omega_k=omega_k, variant=Variant.PROPOSED)
        theta_cr = proposed_normalizer(base, tol).theta_cr
        sweeps = {}
        for variant in (Variant.PROPOSED, Variant.TRADITIONAL):
            cfg = SweepConfig(
                params=replace(base, variant=variant),
                theta_min=0.0,
                theta_max=FIG1_AXIS_MAX * theta_cr,
                points=points,
            )
            sweeps[variant] = temperature_sweep(cfg)
        series.append(
            RatioSeries(
                chi_ratio=ratio,
                theta_cr_max=theta_cr,
                proposed=sweeps[Variant.PROPOSED],
                traditional=sweeps[Variant.TRADITIONAL],
            )
        )
    return series


def figure1_records(series: Sequence[RatioSeries]) -> list[dict[str, object]]:
    """Flatten ratio series to records: series keys, then the fixed columns."""
    records = []
    for entry in series:
        for points in (entry.proposed, entry.traditional):
            for point in points:
                records.append(
                    {
                        "chi_ratio": entry.chi_ratio,
                        "theta_norm": point.theta / entry.theta_cr_max,
                        **point.record(),
                    }
                )
    return records


def figure2_series(
    chi_ratio: float,
    points: int = 400,
    variant: Variant = Variant.PROPOSED,
    omega_k: float | None = None,
    tol: float = 1e-10,
) -> list[PopulationPoint]:
    """Equilibrium vs relaxation polarization across the variant's transition.

    The grid spans ``[0, 2 * theta_cr]`` of the requested variant: below the
    transition the two columns agree to solver tolerance; above it they
    separate. Raises :class:`NoCriticalPointError` when the variant has no
    transition at this ratio.
    """
    if not 0.0 < chi_ratio < 1.0:
        raise DomainError(f"chi_ratio must lie in (0, 1), got {chi_ratio}")
    variant = Variant(variant)
    params = ModelParams(omega21=1.0, chi=chi_ratio, omega_k=omega_k, variant=variant)
    roots = critical_temperatures(
        params, (_SCAN_FLOOR, _SCAN_CEIL), grid_points=_SCAN_GRID, tol=tol
    )
    if not roots:
        raise NoCriticalPointError(
            f"no critical temperature for chi/omega21 = {chi_ratio:g} ({variant.value} variant)"
        )
    cfg = SweepConfig(
        params=params,
        theta_min=0.0,
        theta_max=FIG2_AXIS_MAX * roots[-1].theta_cr,
        points=points,
    )
    columns = _sweep_columns(cfg)
    return [
        PopulationPoint(theta=theta, rz_eq10=rz_eq10, rz_eq4=rz_eq4, variant=variant)
        for theta, rz_eq10, rz_eq4 in zip(columns["theta"], columns["rz_eq10"], columns["rz_eq4"])
    ]


def figure2_records(points: Sequence[PopulationPoint]) -> list[dict[str, object]]:
    return [point.record() for point in points]


def phase_map(
    variant: Variant,
    chi_ratio_range: tuple[float, float],
    theta_range: tuple[float, float],
    nx: int,
    ny: int,
    omega_k: float | None = None,
    tol: float = 1e-10,
) -> PhaseMap:
    """Classify the phase on a coupling-ratio x temperature grid.

    Cells are ordered where the ordering measure is positive (at
    ``varpi = 0`` where it degenerates, where ``theta < lam/2``). The
    boundary is refined per column by the same scan-and-bisect used by
    :func:`critical_temperatures`, on the column's theta grid. Cells and
    brackets come from the same array measure, evaluated on blocks of whole
    columns whose brackets are bisected together.

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
    ratios = _uniform_grid(ratio_lo, ratio_hi, nx)
    thetas = _uniform_grid(theta_lo, theta_hi, ny)
    ratio_list = ratios.tolist()
    ordered = np.empty((ny, nx), dtype=bool)
    boundary = []
    width = max(1, _BLOCK_CELLS // ny)
    for start in range(0, nx, width):
        block = ModelParams(
            omega21=1.0, chi=ratios[start : start + width], omega_k=omega_k, variant=variant
        )
        ordered[:, start : start + width] = is_ordered(couplings_at(block, thetas[:, None]))

        def measure(theta: np.ndarray, lane: np.ndarray, block=block) -> np.ndarray:
            return ordering_measure(couplings_at(replace(block, chi=block.chi[lane]), theta))

        boundary += [
            BoundaryPoint(chi_ratio=ratio_list[start + lane], theta_cr=root, kind=kind)
            for root, kind, lane in _sign_change_roots(measure, thetas, tol, block.chi.size)
        ]
    return PhaseMap(
        variant=variant,
        chi_ratios=ratio_list,
        thetas=thetas.tolist(),
        ordered=ordered,
        boundary=boundary,
    )


def phase_map_records(pmap: PhaseMap) -> list[dict[str, object]]:
    """Row-major cell records (theta rows, ratio columns)."""
    variant = pmap.variant.value
    names = (Phase.DISORDERED.value, Phase.ORDERED.value)
    return [
        {"chi_ratio": ratio, "theta": theta, "phase": names[flag], "variant": variant}
        for theta, row in zip(pmap.thetas, pmap.ordered.tolist())
        for ratio, flag in zip(pmap.chi_ratios, row)
    ]


def boundary_records(pmap: PhaseMap) -> list[dict[str, object]]:
    return [
        {
            "chi_ratio": point.chi_ratio,
            "theta_cr": point.theta_cr,
            "kind": point.kind.value,
            "variant": pmap.variant.value,
        }
        for point in pmap.boundary
    ]


def critical_point_records(
    points: Sequence[CriticalPoint], variant: Variant
) -> list[dict[str, object]]:
    return [
        {
            "theta_cr": point.theta_cr,
            "kind": point.kind.value,
            "nbar": point.couplings_at_cr.nbar,
            "lambda": point.couplings_at_cr.lam,
            "varpi": point.couplings_at_cr.varpi,
            "variant": Variant(variant).value,
        }
        for point in points
    ]


def comparison_records(comparisons, variant: Variant) -> list[dict[str, object]]:
    return [
        {
            "n_atoms": item.n_atoms,
            "rz_exact": item.rz_exact,
            "rz_meanfield": item.rz_meanfield,
            "deviation": item.deviation,
            "variant": Variant(variant).value,
        }
        for item in comparisons
    ]


def _format_float(value: float, precision: int) -> str:
    return format(value, f".{precision}g")


def _csv_cell(value: object, precision: int) -> object:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return _format_float(value, precision)
    return value


def _json_value(value: object, precision: int) -> object:
    if isinstance(value, float):
        return float(_format_float(value, precision))
    return value


def serialize(
    records: Sequence[Mapping[str, object]],
    output_format: OutputFormat | str = OutputFormat.CSV,
    precision: int = 9,
    fieldnames: Sequence[str] | None = None,
) -> bytes:
    """Deterministic CSV or JSON bytes for a list of records.

    Floats are written in round-trip ``g`` form limited to ``precision``
    significant digits (6..17, default 9). CSV quoting follows RFC 4180
    with LF line endings; JSON keeps key order. Identical inputs give
    byte-identical output.

    ``fieldnames`` fixes the column set and order; when omitted it is taken
    from the first record (so it is required to serialize an empty list).
    """
    if int(precision) != precision or not 6 <= precision <= 17:
        raise DomainError(f"precision must be an integer in [6, 17], got {precision}")
    output_format = OutputFormat(output_format)
    if fieldnames is None:
        if not records:
            raise DomainError("fieldnames are required to serialize an empty record list")
        fieldnames = list(records[0].keys())
    if output_format is OutputFormat.CSV:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(fieldnames)
        for record in records:
            writer.writerow([_csv_cell(record[name], precision) for name in fieldnames])
        return buffer.getvalue().encode("utf-8")
    payload = [
        {name: _json_value(record[name], precision) for name in fieldnames} for record in records
    ]
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


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
    "phase": """\
for phase, marker in (("ordered", "s"), ("disordered", ".")):
    pts = [row for row in rows if row["phase"] == phase]
    plt.scatter([float(p["chi_ratio"]) for p in pts],
                [float(p["theta"]) for p in pts],
                marker=marker, s=6, label=phase)
plt.xlabel("chi / omega21")
plt.ylabel("theta")
""",
}

_PLOT_FOOTER = """\
plt.legend()
plt.tight_layout()
plt.show()
"""


def plot_script(figure: str, csv_path: str) -> str:
    """Plain-text plotting script for a written CSV (fig1, fig2 or phase)."""
    if figure not in _PLOT_BODIES:
        raise DomainError(f"unknown figure kind {figure!r}; expected one of {sorted(_PLOT_BODIES)}")
    header = _PLOT_HEADER.format(what=figure, csv_path=csv_path)
    return header + _PLOT_BODIES[figure] + _PLOT_FOOTER
