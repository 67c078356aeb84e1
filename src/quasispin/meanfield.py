"""Equilibrium mean-field thermodynamics of the exchange ensemble.

Variational free energy per atom, the self-consistent order parameter,
critical temperatures, and the equilibrium population inversion. Functions
of :class:`Couplings` accept float fields or array fields (one lane per
temperature) and answer in kind, so sweeps, scans and phase maps solve whole
grids in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .thermal import Couplings, DomainError, ModelParams, couplings_at

__all__ = [
    "NoCriticalPointError",
    "Phase",
    "TransitionKind",
    "GapSolution",
    "CriticalPoint",
    "ValidityReport",
    "free_energy_per_atom",
    "gap_solve",
    "zero_temperature_solution",
    "ordering_measure",
    "is_ordered",
    "critical_temperatures",
    "population_inversion",
    "rz_relaxation",
    "validity_report",
]

# Hard cap on the Newton steps of one gap solve.
_NEWTON_CAP = 100
# Cap on the nodes of one grid, and on the cells of a phase map; checked
# before any array is allocated.
MAX_PHASE_CELLS = 10_000_000


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


@dataclass(frozen=True)
class CriticalPoint:
    theta_cr: float
    couplings_at_cr: Couplings
    kind: TransitionKind


@dataclass(frozen=True)
class ValidityReport:
    """Standing of the mean-field treatment against its validity bounds.

    Margins are signed distances to the bounds: positive means satisfied.
    """

    bloch_ok: bool  # |varpi| < n_atoms * lam (collective-coupling bound)
    window_ok: bool  # 2*nbar^2 < omega21/chi < 2*(1 + nbar)^2, strictly
    bloch_margin: float
    window_lower_margin: float
    window_upper_margin: float


def _free_energy(c_abs, lam, varpi, theta):
    splitting = np.hypot(varpi, lam * (2.0 * c_abs))  # 2*lam alone overflows past ~9e307
    with np.errstate(over="ignore"):  # splitting/theta -> inf is the saturated limit
        depth = 0.5 * splitting + theta * np.log1p(np.exp(-splitting / theta))
    return lam * c_abs * c_abs - depth


def free_energy_per_atom(c_abs: float, cpl: Couplings) -> float:
    """Variational free energy per atom at fixed order-parameter magnitude.

    f(c) = -theta*ln(2*cosh(E/(2*theta))) + lam*c**2 with
    E = sqrt(varpi**2 + 4*lam**2*c**2), evaluated in the overflow-safe form
    -(E/2 + theta*ln(1 + exp(-E/theta))) + lam*c**2, which is finite for
    temperatures all the way down to the underflow limit.
    """
    c_abs = np.asarray(c_abs, dtype=float)
    theta = np.asarray(cpl.theta, dtype=float)
    if not np.all(c_abs >= 0.0):
        raise DomainError(f"c_abs must be non-negative, got {c_abs}")
    if not np.all(theta > 0.0):
        raise DomainError(f"free energy needs theta > 0, got {cpl.theta}")
    energy = _free_energy(c_abs, cpl.lam, cpl.varpi, theta)
    return float(energy) if np.ndim(energy) == 0 else energy


def _newton_splitting(lam: np.ndarray, theta: np.ndarray) -> np.ndarray:
    # Root of g(E) = lam*tanh(E/(2*theta)) - E on (0, lam], lane by lane; the
    # caller guarantees theta < lam/2, so g'(0) > 0 and the root exists. g is
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


def _solve(theta, lam, varpi, caller: str) -> GapSolution:
    # Gap solution of float or array couplings with theta >= 0. Lanes at
    # theta = 0 take the saturated limit (tanh -> 1, root E = lam) with its
    # closed-form free energy; lanes with theta < lam/2 get the Newton root.
    values = [np.asarray(v, dtype=float) for v in (theta, lam, varpi)]
    theta, lam, varpi = np.broadcast_arrays(*map(np.atleast_1d, values))
    if not np.all(lam > 0.0):
        raise DomainError(f"{caller} needs lam > 0, got {values[1]}")
    cold = theta == 0.0
    warm_theta = np.where(cold, 1.0, theta)  # finite stand-in on the cold lanes
    abs_varpi = np.abs(varpi)
    rooted = ~cold & (theta < 0.5 * lam)
    splitting = np.array(lam)
    splitting[rooted] = _newton_splitting(lam[rooted], theta[rooted])
    # The minimum sits at c > 0 iff the root exceeds |varpi|; otherwise at c = 0.
    candidate = (cold | rooted) & (splitting > abs_varpi)
    # The squares pass the float range where |varpi| or lam exceeds ~1e154
    # (|varpi| ~ nbar**2*chi does so first as theta grows), 2*lam where lam
    # exceeds ~9e307, and cold_square/(4*lam) where lam is tiny against |varpi|
    # (chi = 5e-324). A candidate lane has |varpi| < splitting <= lam, so its
    # squares overflow only together with lam**2 + varpi**2, which is rejected
    # here, and its cold energy is at most lam/2; every other overflow sits on
    # a lane that the masks below discard, or makes a free energy that is not
    # finite, which is rejected at the end.
    with np.errstate(over="ignore", invalid="ignore"):
        excess = splitting * splitting - varpi * varpi
        cold_square = lam * lam + varpi * varpi
        if not np.all(np.isfinite(cold_square[candidate])):
            raise DomainError(f"{caller}: lam = {lam[candidate].max():g} overflows its square")
        c_abs = np.sqrt(np.maximum(excess, 0.0)) / (2.0 * lam)
        ordered = candidate & (c_abs > 0.0)
        c_abs = np.where(ordered, c_abs, 0.0)
        recomputed = np.where(ordered, np.hypot(varpi, 2.0 * lam * c_abs), 1.0)
        gap = lam * c_abs * np.tanh(recomputed / (2.0 * warm_theta)) / recomputed
        cold_energy = np.where(ordered, -cold_square / (4.0 * lam), -0.5 * abs_varpi)
        free_energy = np.where(cold, cold_energy, _free_energy(c_abs, lam, varpi, warm_theta))
    # A warm lane also needs 2*lam in range, since the ordered branch divides
    # by it: the solver's float range ends at lam ~ 9e307 even on a disordered
    # lane, whose free energy is finite there.
    wide = ~cold & (lam > 0.5 * np.finfo(float).max)
    if wide.any():
        raise DomainError(f"{caller}: 2*lam is past the float range at lam = {lam[wide].max():g}")
    finite = np.isfinite(free_energy)
    if not finite.all():
        raise DomainError(
            f"{caller}: the free energy is past the float range at lam = {lam[~finite].max():g}"
        )
    fields = {
        "c_abs": c_abs,
        "splitting": np.where(ordered, splitting, abs_varpi),
        "phase": _PHASE_NAMES[ordered.astype(np.intp)],
        "residual": np.where(ordered & ~cold, np.abs(c_abs - gap), 0.0),
        "free_energy_per_atom": free_energy,
    }
    if all(value.ndim == 0 for value in values):
        fields = {name: column.tolist()[0] for name, column in fields.items()}
        fields["phase"] = Phase(fields["phase"])
    return GapSolution(**fields)


def gap_solve(cpl: Couplings, tol: float = 1e-10) -> GapSolution:
    """Solve the self-consistency condition for the order parameter.

    The nonzero branch satisfies ``lam*tanh(E/(2*theta))/E = 1``; the left
    side is strictly decreasing in E with limit ``lam/(2*theta)`` at 0, so a
    root exists on (0, lam] iff ``theta < lam/2``. The phase is ORDERED when
    that root exceeds ``|varpi|``, giving
    ``c = sqrt(E**2 - varpi**2)/(2*lam)`` — the global minimizer of the free
    energy; otherwise the minimum sits at c = 0. The root comes from Newton's
    method started at ``E = lam``, which falls monotonically onto it, for
    every lane of an array at once.

    Parameters
    ----------
    cpl : Couplings
        Effective couplings; requires ``lam > 0`` and ``theta > 0``. Array
        couplings give array fields, with ``phase`` holding the
        :class:`Phase` values as strings; their ``theta = 0`` lanes take the
        :func:`zero_temperature_solution` limit.
    tol : float
        Acceptance scale for the reported residual, in (0, 1e-3]. Newton
        always runs to float convergence, so residuals are typically ~1e-16
        regardless of ``tol``.
    """
    theta = np.asarray(cpl.theta, dtype=float)
    if not np.all(theta > 0.0 if theta.ndim == 0 else theta >= 0.0):
        raise DomainError(f"gap_solve needs theta > 0, got {cpl.theta}")
    if not 0.0 < tol <= 1e-3:
        raise DomainError(f"tol must lie in (0, 1e-3], got {tol}")
    return _solve(theta, cpl.lam, cpl.varpi, "gap_solve")


def zero_temperature_solution(cpl: Couplings) -> GapSolution:
    """Analytic zero-temperature limit of :func:`gap_solve`.

    With tanh saturated to 1 the order parameter is
    ``sqrt(lam**2 - varpi**2)/(2*lam)`` when ``lam > |varpi|`` and 0
    otherwise, with free energies ``-(lam**2 + varpi**2)/(4*lam)`` and
    ``-|varpi|/2``. ``cpl.theta`` is ignored; ``lam`` must be positive.
    """
    return _solve(0.0, cpl.lam, cpl.varpi, "zero_temperature_solution")


def ordering_measure(cpl: Couplings) -> float:
    """Signed measure whose positive sign marks the ordered phase.

    ``lam*tanh(|varpi|/(2*theta)) - |varpi|`` is strictly positive iff the
    self-consistent order parameter is nonzero, except exactly at
    ``varpi = 0`` where the ordering condition degenerates to
    ``theta < lam/2``. Array couplings give an array.
    """
    theta = np.asarray(cpl.theta, dtype=float)
    if not np.all(theta > 0.0):
        raise DomainError(f"ordering measure needs theta > 0, got {cpl.theta}")
    abs_varpi = np.abs(cpl.varpi)
    with np.errstate(over="ignore"):
        measure = cpl.lam * np.tanh(abs_varpi / (2.0 * theta)) - abs_varpi
    return float(measure) if np.ndim(measure) == 0 else measure


def is_ordered(cpl: Couplings) -> bool:
    """Phase classification consistent with :func:`gap_solve`, elementwise for arrays."""
    ordered = np.where(
        np.equal(cpl.varpi, 0.0), np.less(cpl.theta, 0.5 * cpl.lam), ordering_measure(cpl) > 0.0
    )
    return bool(ordered) if ordered.ndim == 0 else ordered


def _uniform_grid(lo: float, hi: float, points: int) -> np.ndarray:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"grid bounds must be finite, got [{lo}, {hi}]")
    if points > MAX_PHASE_CELLS:
        raise DomainError(f"a grid of {points} points exceeds the cap of {MAX_PHASE_CELLS}")
    step = (hi - lo) / (points - 1)
    grid = lo + np.arange(points) * step
    grid[-1] = hi  # keep the endpoint exact
    if not np.all(grid[1:] > grid[:-1]):
        raise DomainError(f"{points} grid points on [{lo!r}, {hi!r}] are not all distinct")
    return grid


def _sign_change_roots(
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    grid: np.ndarray,
    tol: float,
    lanes: int = 1,
) -> list[tuple[float, TransitionKind, int]]:
    # Bisect every strict sign change between consecutive nonzero values of
    # fn(theta, lane) along the theta grid, for each of `lanes` independent
    # lanes (fn broadcasts a lane index array against theta). Exact zeros are
    # saturation plateaus (tanh rounds to 1.0 at marginal couplings), not
    # roots: counting them would invent transitions where lam*tanh < lam =
    # |varpi| holds strictly in exact arithmetic. All brackets are bisected in
    # lockstep. Returns (root, kind, lane), ordered by lane, then theta.
    values = np.broadcast_to(fn(grid[:, None], np.arange(lanes)[None, :]), (grid.size, lanes))
    lane_of, node = np.nonzero(values.T)
    kept = values[node, lane_of]
    positive = kept > 0.0
    first = np.flatnonzero((lane_of[1:] == lane_of[:-1]) & (positive[1:] != positive[:-1]))
    lane = lane_of[first]
    lo, lo_val, hi = grid[node[first]], kept[first], grid[node[first + 1]]
    active = np.ones(first.size, dtype=bool)
    while True:
        mid = 0.5 * (lo + hi)
        # Refine to a quarter of the requested tolerance so roots found
        # from different grids agree within tol.
        active &= (mid > lo) & (mid < hi) & ((hi - lo) > 0.25 * tol * mid)
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        mid_val = fn(mid[idx], lane[idx])
        same = (mid_val != 0.0) & ((mid_val > 0.0) == (lo_val[idx] > 0.0))
        lo[idx[same]], lo_val[idx[same]] = mid[idx[same]], mid_val[same]
        hi[idx[~same]] = mid[idx[~same]]
    kinds = [TransitionKind.VANISHING if up else TransitionKind.ONSET for up in positive[first]]
    return list(zip((0.5 * (lo + hi)).tolist(), kinds, lane.tolist()))


def critical_temperatures(
    params: ModelParams,
    theta_range: tuple[float, float],
    grid_points: int = 512,
    tol: float = 1e-10,
) -> list[CriticalPoint]:
    """Locate all order/disorder transition temperatures in a range.

    Scans the ordering measure on a uniform theta grid and refines every
    strict sign change by bisection to relative tolerance ``tol``. ONSET
    means order appears above the root, VANISHING that it disappears above
    it. Results are ordered by increasing theta.

    Parameters
    ----------
    params : ModelParams
        Model inputs; the variant decides whether the couplings follow
        temperature.
    theta_range : (float, float)
        Scan range, ``0 < lo < hi``.
    grid_points : int
        Uniform grid size, >= 64. Doubling it moves any reported root by
        less than the tolerance.
    tol : float
        Relative tolerance on each root, > 0.
    """
    lo, hi = theta_range
    if not 0.0 < lo < hi:
        raise DomainError(f"theta_range must satisfy 0 < lo < hi, got {theta_range}")
    if grid_points < 64:
        raise DomainError(f"grid_points must be >= 64, got {grid_points}")
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    grid = _uniform_grid(lo, hi, grid_points)

    def measure(theta: np.ndarray, lane: np.ndarray) -> np.ndarray:
        return ordering_measure(couplings_at(params, theta))

    return [
        CriticalPoint(theta_cr=root, couplings_at_cr=couplings_at(params, root), kind=kind)
        for root, kind, _ in _sign_change_roots(measure, grid, tol)
    ]


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
    flat, cold = splitting == 0.0, theta == 0.0
    safe = np.where(flat, 1.0, splitting)
    with np.errstate(over="ignore"):
        saturation = np.where(cold, 1.0, np.tanh(safe / (2.0 * np.where(cold, 1.0, theta))))
    rz = np.where(flat, 0.0, -0.5 * (varpi / safe) * saturation)
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
        rz = -np.asarray(cpl.varpi, dtype=float) / twice
    finite = np.isfinite(rz) & np.isfinite(twice)
    if not finite.all():
        lam = np.broadcast_to(np.asarray(cpl.lam, dtype=float), finite.shape)[~finite][0]
        raise DomainError(f"rz_relaxation: -varpi/(2*lam) is past the float range at lam = {lam:g}")
    return float(rz) if rz.ndim == 0 else rz


def validity_report(params: ModelParams, theta: float) -> ValidityReport:
    """Check the collective-coupling and critical-window bounds at ``theta``."""
    cpl = couplings_at(params, theta)
    bloch_margin = params.n_atoms * cpl.lam - abs(cpl.varpi)
    ratio = params.omega21 / params.chi
    lower_margin = ratio - 2.0 * cpl.nbar * cpl.nbar
    upper_margin = 2.0 * (1.0 + cpl.nbar) ** 2 - ratio
    return ValidityReport(
        bloch_ok=bloch_margin > 0.0,
        window_ok=lower_margin > 0.0 and upper_margin > 0.0,
        bloch_margin=bloch_margin,
        window_lower_margin=lower_margin,
        window_upper_margin=upper_margin,
    )
