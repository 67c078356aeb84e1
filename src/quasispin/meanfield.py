"""Equilibrium mean-field thermodynamics of the exchange ensemble.

Variational free energy per atom, the self-consistent order parameter,
critical temperatures, and the equilibrium population inversion. Functions
of :class:`Couplings` accept float fields or array fields (one lane per
temperature) and answer in kind, so sweeps solve whole grids or row blocks
in one call, and transition scans and phase maps bounded tiles of a grid.
:func:`critical_temperatures` returns a column table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter

import numpy as np

from .base import CRITICAL_POINTS, ROOT_TOL, Table
from .thermal import Couplings, DomainError, ModelParams, couplings_at
from .thermal import _check_float_chi, _check_temperature, _lane_couplings

__all__ = [
    "NoCriticalPointError",
    "Phase",
    "TransitionKind",
    "GapSolution",
    "free_energy_per_atom",
    "gap_solve",
    "ordering_measure",
    "uniform_grid",
    "transition_roots",
    "critical_temperatures",
    "population_inversion",
    "rz_relaxation",
]

# Hard cap on the Newton steps of one gap solve.
_NEWTON_CAP = 100
# Cap on the nodes of one grid, and on the cells of a phase map; checked
# before any array is allocated.
MAX_PHASE_CELLS = 10_000_000
# Transition scans evaluate the ordering measure on tiles of at most this
# many cells, a set of lanes by a run of theta nodes, so each float temporary
# of a scan stays near 128 kB for a long scan, a tall phase map or a wide one.
_TILE_CELLS = 1 << 14


class NoCriticalPointError(DomainError):
    """A scan range contains no order/disorder transition."""


class Phase(str, Enum):
    ORDERED = "ordered"
    DISORDERED = "disordered"


# Phase values indexed by an ordered flag; an object array, so converting a
# phase column to a list shares two strings instead of making one per lane.
_PHASE_NAMES = np.array([Phase.DISORDERED.value, Phase.ORDERED.value], dtype=object)


class TransitionKind(str, Enum):
    """Whether order appears or disappears as theta crosses the root."""

    ONSET = "onset"
    VANISHING = "vanishing"


@dataclass(frozen=True)
class GapSolution:
    """Self-consistent solution of the order-parameter equation."""

    c_abs: float  # |order parameter|, in [0, 1/2]
    splitting: float  # quasiparticle splitting at the solution
    phase: Phase
    residual: float  # |self-consistency residual| at c_abs
    free_energy_per_atom: float


def _free_energy(c_abs, lam, varpi, theta):
    splitting = np.hypot(varpi, lam * (2.0 * c_abs))  # 2*lam alone overflows past ~9e307
    # splitting/theta -> inf is the saturated limit, where the entropy term is
    # exactly 0; at theta = 0 it is masked, since splitting = 0 makes it 0/0.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        entropy = theta * np.log1p(np.exp(-splitting / theta))
    return lam * c_abs * c_abs - (0.5 * splitting + np.where(theta == 0.0, 0.0, entropy))


def free_energy_per_atom(c_abs: float, cpl: Couplings) -> float:
    """Variational free energy per atom at fixed order-parameter magnitude.

    f(c) = -theta*ln(2*cosh(E/(2*theta))) + lam*c**2 with
    E = sqrt(varpi**2 + 4*lam**2*c**2), evaluated in the overflow-safe form
    -(E/2 + theta*ln(1 + exp(-E/theta))) + lam*c**2, which is finite for
    every ``theta >= 0``; at ``theta = 0`` it is the limit ``lam*c**2 - E/2``.
    """
    c_abs = np.asarray(c_abs, dtype=float)
    theta = np.asarray(cpl.theta, dtype=float)
    if not np.all(c_abs >= 0.0):
        raise DomainError(f"c_abs must be non-negative, got {c_abs}")
    _check_temperature(theta)
    energy = _free_energy(c_abs, cpl.lam, cpl.varpi, theta)
    return float(energy) if np.ndim(energy) == 0 else energy


def _newton_splitting(lam: np.ndarray, theta: np.ndarray) -> np.ndarray:
    # Root of g(E) = lam*tanh(E/(2*theta)) - E on (0, lam], lane by lane; the
    # caller guarantees theta < lam/2, so g'(0) > 0 and the root exists (at
    # theta = 0 the first step is nan, and E = lam is the saturated root). g is
    # concave with g(lam) <= 0, so Newton from E = lam falls monotonically onto
    # the root without a bracket (Numerical Recipes 9.4): a lane is done once a
    # step no longer lowers E. Far above the root a step shrinks E by about a
    # third and the root is never below ~1e-8*lam, so even theta one ulp below
    # lam/2 needs only ~70 steps.
    splitting = lam.copy()
    todo = np.arange(lam.size)
    for _ in range(_NEWTON_CAP):
        lam_t, twice_theta, old = lam[todo], 2.0 * theta[todo], splitting[todo]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            sat = np.tanh(old / twice_theta)
            slope = lam_t * (1.0 - sat * sat) / twice_theta - 1.0
            new = old - (lam_t * sat - old) / slope
        moved = new < old  # false once converged, and for any inf/nan step
        todo = todo[moved]
        splitting[todo] = new[moved]
        if todo.size == 0:
            return splitting
    raise RuntimeError(f"gap solve: {todo.size} lanes not converged in {_NEWTON_CAP} Newton steps")


def gap_solve(cpl: Couplings) -> GapSolution:
    """Solve the self-consistency condition for the order parameter.

    The nonzero branch satisfies ``lam*tanh(E/(2*theta))/E = 1``; the left
    side is strictly decreasing in E with limit ``lam/(2*theta)`` at 0, so a
    root exists on (0, lam] iff ``theta < lam/2``. The phase is ORDERED when
    that root exceeds ``|varpi|``, giving
    ``c = sqrt(E**2 - varpi**2)/(2*lam)`` — the global minimizer of the free
    energy; otherwise the minimum sits at c = 0. The root comes from Newton's
    method started at ``E = lam``, which falls monotonically onto it, for
    every lane of an array at once. It runs to float convergence, so the
    reported residuals sit at rounding level (about 1e-16).

    At ``theta = 0`` the quotient ``E/theta`` is +inf and tanh saturates to
    exactly 1, so the same formulas give the root ``E = lam``: the order
    parameter is ``sqrt(lam**2 - varpi**2)/(2*lam)`` when ``lam > |varpi|``
    and 0 otherwise, and the free energy is ``lam*c**2 - E/2``.

    Parameters
    ----------
    cpl : Couplings
        Effective couplings; requires ``lam > 0`` and ``0 <= theta < inf``.
        Array couplings give array fields, with ``phase`` holding the
        :class:`Phase` values as strings.
    """
    values = [np.asarray(v, dtype=float) for v in (cpl.theta, cpl.lam, cpl.varpi)]
    _check_temperature(values[0])
    theta, lam, varpi = np.broadcast_arrays(*map(np.atleast_1d, values))
    if not np.all(lam > 0.0):
        raise DomainError(f"gap_solve needs lam > 0, got {cpl.lam}")
    abs_varpi = np.abs(varpi)
    rooted = theta < 0.5 * lam
    splitting = np.array(lam)
    splitting[rooted] = _newton_splitting(lam[rooted], theta[rooted])
    # The minimum sits at c > 0 iff the root exceeds |varpi|; otherwise at c = 0.
    candidate = rooted & (splitting > abs_varpi)
    # The squares pass the float range where |varpi| or lam exceeds ~1e154
    # (|varpi| ~ nbar**2*chi does so first as theta grows), and 2*lam where
    # lam exceeds ~9e307. A candidate lane has |varpi| < splitting <= lam, so
    # its squares overflow only together with lam**2 + varpi**2, which is
    # rejected here; every other overflow sits on a lane that the masks below
    # discard, or makes a free energy that is not finite, which is rejected at
    # the end. On a theta = 0 lane E/theta is +inf, whose tanh is exactly 1.0.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        excess = splitting * splitting - varpi * varpi
        if not np.all(np.isfinite(lam * lam + varpi * varpi)[candidate]):
            raise DomainError(f"gap_solve: lam = {lam[candidate].max():g} overflows its square")
        c_abs = np.sqrt(np.maximum(excess, 0.0)) / (2.0 * lam)
        ordered = candidate & (c_abs > 0.0)
        c_abs = np.where(ordered, c_abs, 0.0)
        recomputed = np.where(ordered, np.hypot(varpi, 2.0 * lam * c_abs), 1.0)
        gap = lam * c_abs * np.tanh(recomputed / (2.0 * theta)) / recomputed
        free_energy = _free_energy(c_abs, lam, varpi, theta)
    # The ordered branch divides by 2*lam, so the solver's float range ends at
    # lam ~ 9e307 even on a disordered lane, whose free energy is finite there.
    wide = lam > 0.5 * np.finfo(float).max
    if wide.any():
        raise DomainError(f"gap_solve: 2*lam is past the float range at lam = {lam[wide].max():g}")
    finite = np.isfinite(free_energy)
    if not finite.all():
        raise DomainError(
            f"gap_solve: the free energy is past the float range at lam = {lam[~finite].max():g}"
        )
    fields = {
        "c_abs": c_abs,
        "splitting": np.where(ordered, splitting, abs_varpi),
        "phase": _PHASE_NAMES[ordered.astype(np.intp)],
        "residual": np.where(ordered, np.abs(c_abs - gap), 0.0),
        "free_energy_per_atom": free_energy,
    }
    if all(value.ndim == 0 for value in values):
        fields = {name: column.tolist()[0] for name, column in fields.items()}
        fields["phase"] = Phase(fields["phase"])
    return GapSolution(**fields)


def ordering_measure(cpl: Couplings) -> float:
    """Signed measure whose positive sign marks the ordered phase.

    ``lam*tanh(|varpi|/(2*theta)) - |varpi|`` is strictly positive iff the
    self-consistent order parameter is nonzero; at ``theta = 0`` it is
    ``lam - |varpi|``. At ``varpi = 0``, where that form vanishes
    identically, the measure is ``lam/2 - theta``: the ordering condition
    there is ``theta < lam/2``. Array couplings give an array.

    The sign is the phase of :func:`gap_solve` except within a few tens of
    ulps of theta around a transition root, where the two round differently;
    there the solver was right more often against 60-digit arithmetic, so it
    is the reference.
    """
    theta = np.asarray(cpl.theta, dtype=float)
    _check_temperature(theta)
    abs_varpi = np.abs(cpl.varpi)
    # theta = 0: |varpi|/0 is +inf, whose tanh is 1; at varpi = 0 the 0/0 is masked below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        tilted = cpl.lam * np.tanh(abs_varpi / (2.0 * theta)) - abs_varpi
    measure = np.where(abs_varpi == 0.0, 0.5 * cpl.lam - theta, tilted)
    return float(measure) if measure.ndim == 0 else measure


def uniform_grid(lo: float, hi: float, points: int) -> np.ndarray:
    """``points`` evenly spaced nodes from ``lo`` to ``hi``, both exact.

    Raises :class:`DomainError` for non-finite bounds, a count that is not
    a whole number, fewer than 2 or more than ``MAX_PHASE_CELLS`` points
    (checked before any array is allocated), or nodes that are not strictly
    increasing.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"grid bounds must be finite, got [{lo}, {hi}]")
    if points < 2:
        raise DomainError(f"a grid needs at least 2 points, got {points}")
    if points > MAX_PHASE_CELLS:
        raise DomainError(f"a grid of {points} points exceeds the cap of {MAX_PHASE_CELLS}")
    if not float(points).is_integer():
        raise DomainError(f"a grid needs a whole number of points, got {points}")
    step = (hi - lo) / (points - 1)
    # lo + i*step, computed in place: no temporary as large as the grid
    grid = np.arange(points, dtype=float)
    grid *= step
    grid += lo
    grid[-1] = hi  # keep the endpoint exact
    if not np.all(grid[1:] > grid[:-1]):
        raise DomainError(f"{points} grid points on [{lo!r}, {hi!r}] are not all distinct")
    return grid


def _sign_change_roots(
    params: ModelParams, chi: np.ndarray, tol: float,
    lo: np.ndarray, hi: np.ndarray, up: np.ndarray, lane: np.ndarray,
) -> list[tuple[float, TransitionKind, int]]:
    # Bisect every bracket (lo, hi) of a sign change of the ordering measure
    # in its lane, whose coupling is chi[lane], all in lockstep; up marks a
    # positive measure at lo, which every lo keeps, since a midpoint of that
    # sign replaces it. Returns (root, kind, lane) in bracket order.
    active = np.ones(lo.size, dtype=bool)
    while True:
        mid = 0.5 * (lo + hi)
        # Refine to a quarter of the requested tolerance so roots found
        # from different grids agree within tol.
        active &= (mid > lo) & (mid < hi) & ((hi - lo) > 0.25 * tol * mid)
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        mid_val = ordering_measure(_lane_couplings(params, chi[lane[idx]], mid[idx]))
        same = (mid_val != 0.0) & ((mid_val > 0.0) == up[idx])
        lo[idx[same]] = mid[idx[same]]
        hi[idx[~same]] = mid[idx[~same]]
    kinds = [TransitionKind.VANISHING if positive else TransitionKind.ONSET for positive in up]
    return list(zip((0.5 * (lo + hi)).tolist(), kinds, lane.tolist()))


def _tiled_scan(
    params: ModelParams, chi: np.ndarray, grid: np.ndarray, tol: float,
    ordered: np.ndarray | None = None,
) -> list[tuple[float, TransitionKind, int]]:
    # The transition_roots of the lanes chi on the theta grid. The ordering
    # measure is evaluated on tiles of at most _TILE_CELLS cells, a set of
    # lanes by a run of nodes, the runs in increasing theta; with ordered, a
    # (grid.size, chi.size) bool array, each cell's flag measure > 0 is
    # stored there. A bracket joins consecutive nonzero nodes of a lane whose
    # measures differ in sign. Exact zeros are saturation plateaus (tanh
    # rounds to 1.0 at marginal couplings), not roots: counting them would
    # invent transitions where lam*tanh < lam = |varpi| holds strictly in
    # exact arithmetic. (A varpi = 0 lane is zero only at theta = lam/2,
    # between nodes of opposite sign.) Each lane carries its last nonzero
    # node and that node's sign from run to run, so a plateau is skipped and
    # a sign change is bracketed across a run's edge too. Every bracket of
    # the scan is bisected in one _sign_change_roots call.
    width = min(chi.size, _TILE_CELLS)
    run = max(1, _TILE_CELLS // width)
    last = np.full(chi.size, -1, dtype=np.intp)  # -1 until a lane has a nonzero node
    last_up = np.zeros(chi.size, dtype=bool)
    brackets = []
    for start in range(0, grid.size, run):
        for left in range(0, chi.size, width):
            lanes = slice(left, left + width)
            measure = ordering_measure(
                _lane_couplings(params, chi[lanes], grid[start : start + run, None])
            )
            positive = measure > 0.0
            if ordered is not None:
                ordered[start : start + run, lanes] = positive
            if measure.all():
                # The usual tile, without a zero: each node follows the one
                # before it in its lane, and the tile's first node the lane's
                # carried one. This dense pass took a 3162x3162 phase_map
                # from 0.80 s (the general pass alone) to 0.17 s on 2 vCPUs.
                edge = left + np.flatnonzero((last[lanes] >= 0) & (positive[0] != last_up[lanes]))
                brackets.append((edge, last[edge], np.full(edge.size, start), last_up[edge]))
                row, lane = np.nonzero(positive[1:] != positive[:-1])
                brackets.append((left + lane, start + row, start + row + 1, positive[row, lane]))
                last[lanes], last_up[lanes] = start + len(positive) - 1, positive[-1]
                continue
            lane_of, node = np.nonzero(measure.T)  # by lane, then theta
            up = positive[node, lane_of]
            lane_of += left
            node += start
            # a lane's first nonzero node of the tile follows its carried one
            head = np.ones(node.size, dtype=bool)
            head[1:] = lane_of[1:] != lane_of[:-1]
            prev, prev_up = np.roll(node, 1), np.roll(up, 1)
            prev[head], prev_up[head] = last[lane_of[head]], last_up[lane_of[head]]
            flip = (prev >= 0) & (up != prev_up)
            brackets.append((lane_of[flip], prev[flip], node[flip], prev_up[flip]))
            tail = np.roll(head, -1)  # each lane's last nonzero node of the tile
            last[lane_of[tail]], last_up[lane_of[tail]] = node[tail], up[tail]
    # Each lane's brackets come in increasing theta: runs do, and a tile
    # lists a lane's bracket from its carried node before those of its own
    # nodes. So a stable sort by lane orders the roots by lane, then theta.
    lane, lo, hi, up = (np.concatenate(parts) for parts in zip(*brackets))
    return sorted(_sign_change_roots(params, chi, tol, grid[lo], grid[hi], up, lane),
                  key=itemgetter(2))


def transition_roots(
    params: ModelParams, grid: np.ndarray, tol: float = ROOT_TOL
) -> list[tuple[float, TransitionKind, int]]:
    """Order/disorder transition temperatures of every coupling lane on a grid.

    ``params.chi`` may be a 1-D array: each entry is a lane, scanned on the
    same theta ``grid``; a float ``chi`` is lane 0. The ordering measure is
    evaluated on the grid's nodes for all lanes, a tile of at most 16384
    cells at a time, and every strict sign change between consecutive
    nonzero values of a lane is refined by bisection to relative tolerance
    ``tol``, all brackets in lockstep. So a scan needs memory for its grid
    and one tile, whatever its length or lane count. ONSET means order
    appears above the root, VANISHING that it disappears above it.

    Returns ``(theta_cr, kind, lane)`` triples ordered by lane, then theta.
    Raises :class:`DomainError` unless ``grid`` is 1-D with at least 2
    strictly increasing nodes and ``tol > 0``.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or not np.all(grid[1:] > grid[:-1]):
        raise DomainError("grid must be 1-D with at least 2 strictly increasing nodes")
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    chi = np.atleast_1d(np.asarray(params.chi, dtype=float))
    if chi.ndim != 1:
        raise DomainError(f"chi must be a float or a 1-D array, got shape {chi.shape}")
    return _tiled_scan(params, chi, grid, tol)


def critical_temperatures(
    params: ModelParams,
    theta_range: tuple[float, float],
    grid_points: int = CRITICAL_POINTS,
    tol: float = ROOT_TOL,
) -> Table:
    """Locate all order/disorder transition temperatures in a range.

    :func:`transition_roots` of a float-``chi`` model on a uniform theta grid
    of the range. Returns the columns ``theta_cr, kind, nbar, lambda, varpi,
    variant``, one row per root by increasing theta, with the couplings at all
    roots from one array :func:`couplings_at` call; no root gives six empty
    columns. The scan holds the grid and one tile of the ordering measure,
    so its memory grows with ``grid_points`` by about 9 bytes a node (the
    grid and the check of its order): 2e6 nodes of both variants peak
    near 46 MB of RSS in the CLI.

    Parameters
    ----------
    params : ModelParams
        Model inputs with a float ``chi``; the variant decides whether the
        couplings follow temperature.
    theta_range : (float, float)
        Scan range, ``0 < lo < hi``.
    grid_points : int
        Uniform grid size, >= 64. A root pair is found only where the grid
        puts a node inside the ordered window between them. Below the
        reentrance threshold r* (about 0.4403 at ``omega_k = omega21/2``)
        the proposed variant's window is about ``sqrt(r - r*)`` wide, so
        close to r* a grid must be finer to see it: at r* + 1e-7, 512, 1024
        and 2048 nodes on (1e-4, 2) find no root, and 4096 find the onset
        0.3472538 and the vanishing point 0.3477906. ROADMAP item 1 plans a
        scan node at every fold of the phase boundary.
    tol : float
        Relative tolerance on each root, > 0.
    """
    lo, hi = theta_range
    if not 0.0 < lo < hi:
        raise DomainError(f"theta_range must satisfy 0 < lo < hi, got {theta_range}")
    if grid_points < 64:
        raise DomainError(f"grid_points must be >= 64, got {grid_points}")
    _check_float_chi(params, "critical_temperatures")
    roots = transition_roots(params, uniform_grid(lo, hi, grid_points), tol)
    theta_cr = [root for root, _, _ in roots]
    cpl = couplings_at(params, np.array(theta_cr))
    return {
        "theta_cr": theta_cr,
        "kind": [kind.value for _, kind, _ in roots],
        "nbar": cpl.nbar.tolist(),
        "lambda": cpl.lam.tolist(),
        "varpi": cpl.varpi.tolist(),
        "variant": [params.variant.value] * len(roots),
    }


def population_inversion(cpl: Couplings, sol: GapSolution) -> float:
    """Equilibrium spin polarization per atom, in [-1/2, 1/2].

    Evaluates ``-(varpi/(2*E))*tanh(E/(2*theta))`` at the solution's
    splitting. In the ordered phase the self-consistency condition collapses
    this to ``-varpi/(2*lam)``, the relaxation stationary value. Array
    couplings and solution give an array.
    """
    theta, splitting, varpi = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (cpl.theta, sol.splitting, cpl.varpi))
    )
    flat = splitting == 0.0
    safe = np.where(flat, 1.0, splitting)
    with np.errstate(over="ignore", divide="ignore"):  # theta = 0: tanh(inf) is exactly 1.0
        saturation = np.tanh(safe / (2.0 * theta))
    rz = np.where(flat, 0.0, -0.5 * (varpi / safe) * saturation) + 0.0  # no -0.0 at varpi = 0
    return float(rz) if rz.ndim == 0 else rz


def rz_relaxation(cpl: Couplings) -> float:
    """Stationary polarization of the relaxation dynamics, ``-varpi/(2*lam)``.

    Unclamped: the value leaves [-1/2, 1/2] once ``|varpi| > lam``, which is
    exactly where the equilibrium solution stops tracking it (the ordered
    phase requires ``|varpi| < lam``).
    """
    if not np.all(np.asarray(cpl.lam) > 0.0):
        raise DomainError(f"rz_relaxation needs lam > 0, got {cpl.lam}")
    # 2*lam passes the float range where lam exceeds ~9e307 (the ratio would
    # read 0), and the ratio itself where lam is tiny against |varpi|
    # (chi = 5e-324): both are rejected below.
    with np.errstate(over="ignore"):
        twice = 2.0 * np.asarray(cpl.lam, dtype=float)
        rz = -np.asarray(cpl.varpi, dtype=float) / twice + 0.0  # no -0.0 at varpi = 0
    finite = np.isfinite(rz) & np.isfinite(twice)
    if not finite.all():
        lam = np.broadcast_to(np.asarray(cpl.lam, dtype=float), finite.shape)[~finite][0]
        raise DomainError(f"rz_relaxation: -varpi/(2*lam) is past the float range at lam = {lam:g}")
    return float(rz) if rz.ndim == 0 else rz

