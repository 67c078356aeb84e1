"""Exact finite-ensemble cross-check on the fixed-magnitude spin ladder.

For N atoms locked into the maximal collective-spin sector the exchange
Hamiltonian is diagonal in the ladder label m, so spectra and Gibbs
observables come out in closed form and serve as an oracle for the
mean-field results. The restriction drops the entropy of lower-spin
sectors, which is accurate deep in the ordered regime; see the column
table of ``compare_meanfield`` for how that shows up at higher temperatures.

The ladder energies form a convex parabola in m, so a Boltzmann weight
``exp(-(E - E_min)/theta)`` is exactly 0.0 in float64 for every level
more than about 745 temperatures above the lowest. ``compare_meanfield``
therefore sums only the window of levels whose weight can be nonzero,
found in closed form around the ground state. That is O(sqrt(theta*N/lam))
levels (``lam = N*lambda_n``) instead of N + 1, with the same sums up to
summation order.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .base import Table
from .meanfield import gap_solve, population_inversion
from .thermal import DomainError, ModelParams, _check_float_chi, couplings_at

__all__ = [
    "MAX_LADDER_ATOMS",
    "DickeSpectrum",
    "GibbsObservables",
    "dicke_spectrum",
    "ground_state_m",
    "gibbs_observables",
    "compare_meanfield",
]

MAX_LADDER_ATOMS = 1_000_000

# exp(-x) is 0.0 in float64 for every x > 745.14, so a level more than this
# many temperatures above the lowest has no Boltzmann weight. The 0.1 %
# headroom exceeds the relative rounding of an evaluated energy difference
# two or more levels from the minimum (about 4*eps*j**2 <= 3e-4 for
# j <= MAX_LADDER_ATOMS/2), so rounding cannot give weight to a level that
# the exact parabola puts outside the window.
_ZERO_WEIGHT_EXPONENT = 746.0


class DickeSpectrum(NamedTuple):
    """Ladder energies of the maximal collective-spin sector, or a window of them.

    ``energies[i]`` belongs to ``m = offset + i - n_atoms/2``; labels are
    half-integers when ``n_atoms`` is odd. ``dicke_spectrum`` gives the
    whole ladder (``offset = 0``).
    """

    n_atoms: int
    lambda_n: float  # per-pair exchange coupling (intensive: lam / n_atoms)
    varpi: float
    energies: np.ndarray
    offset: int = 0  # ladder index of energies[0]

    @property
    def spin(self) -> float:
        return 0.5 * self.n_atoms

    @property
    def m_values(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + self.energies.size) - self.spin


class GibbsObservables(NamedTuple):
    """Thermal averages over the ladder at one temperature."""

    z_shifted: float  # partition sum with the lowest energy factored out
    f_per_atom: float
    rz_per_atom: float


def _check_atoms(n_atoms: int) -> None:
    if not 2 <= n_atoms < math.inf or int(n_atoms) != n_atoms:  # NaN and inf fail the range
        raise DomainError(f"n_atoms must be an integer >= 2, got {n_atoms}")
    if n_atoms > MAX_LADDER_ATOMS:
        raise DomainError(f"n_atoms = {n_atoms} exceeds the ladder size cap {MAX_LADDER_ATOMS}")


def _check_ladder(n_atoms: int, lambda_n: float) -> int:
    _check_atoms(n_atoms)
    if lambda_n <= 0.0:
        raise DomainError(f"lambda_n must be positive, got {lambda_n}")
    return int(n_atoms)


def _level_energies(n_atoms: int, lambda_n: float, varpi: float, index: np.ndarray) -> np.ndarray:
    # The one energy formula: a level's value does not depend on which other
    # levels are evaluated with it.
    spin = 0.5 * n_atoms
    m = index - spin
    # Energies past the float range show as inf or nan and are rejected below.
    with np.errstate(over="ignore", invalid="ignore"):
        energies = varpi * m + lambda_n * m * m - lambda_n * spin * (spin + 1.0)
    if not np.all(np.isfinite(energies)):
        raise DomainError(
            f"ladder energies past the float range at varpi = {varpi:g}, lambda_n = {lambda_n:g}"
        )
    return energies


def dicke_spectrum(n_atoms: int, lambda_n: float, varpi: float) -> DickeSpectrum:
    """Exact ladder spectrum ``E(m) = varpi*m + lambda_n*m**2 - lambda_n*j*(j+1)``.

    ``j = n_atoms/2`` and m runs from -j to j in unit steps, so the spectrum
    is a convex discrete parabola with second difference ``2*lambda_n``.
    """
    n_atoms = _check_ladder(n_atoms, lambda_n)
    energies = _level_energies(n_atoms, lambda_n, varpi, np.arange(n_atoms + 1))
    return DickeSpectrum(n_atoms=n_atoms, lambda_n=lambda_n, varpi=varpi, energies=energies)


def _ground_index(n_atoms: int, lambda_n: float, varpi: float) -> int:
    # Nearest index to the continuous minimizer -varpi/(2*lambda_n), half-way
    # ties rounding down; a minimizer off the ladder (or past the float range)
    # clamps to the nearer end.
    x = -varpi / (2.0 * lambda_n) + 0.5 * n_atoms - 0.5
    if 0.0 < x < n_atoms:
        return math.ceil(x)
    return 0 if x <= 0.0 else n_atoms


def ground_state_m(spectrum: DickeSpectrum) -> float:
    """Ladder label of minimal energy; exact half-way ties go to the smaller m.

    The continuous minimizer of the energy parabola is
    ``-varpi/(2*lambda_n)``; the discrete minimum is its nearest admissible
    label, clamped to [-j, j].
    """
    index = _ground_index(spectrum.n_atoms, spectrum.lambda_n, spectrum.varpi)
    return float(index) - spectrum.spin


def _weight_window(n_atoms: int, lambda_n: float, varpi: float, theta: float) -> tuple[int, int]:
    # First and last ladder index of the levels whose weight at theta can be
    # nonzero. Around the discrete minimum m0 (not the continuous one, which
    # may lie off the ladder), E(m0 + d) - E(m0) = lambda_n*d*(d + tilt) with
    # tilt = varpi/lambda_n + 2*m0, and tilt >= -1 on every side of m0 that
    # the ladder has (<= 1 going down). So a level |d| >= 1 away lies at
    # least lambda_n*(|d| - 1)**2 above m0, and none past half + 1 is within
    # the budget. One more level per side absorbs the rounding of the
    # energies, which can reorder m0 and a nearly degenerate neighbour. A
    # half that is inf or nan keeps the whole ladder.
    center = _ground_index(n_atoms, lambda_n, varpi)
    half = math.sqrt(_ZERO_WEIGHT_EXPONENT * theta / lambda_n)
    if not half < n_atoms:
        return 0, n_atoms
    reach = math.floor(half) + 2
    return max(center - reach, 0), min(center + reach, n_atoms)


def _weighted_levels(n_atoms: int, lambda_n: float, varpi: float, theta: float) -> DickeSpectrum:
    # The levels of the ladder that carry Boltzmann weight at theta. The
    # highest level of a convex parabola is an end of the ladder, and the
    # window holds the lowest, so the two ends and the window stand in for
    # the float-range check of the whole ladder.
    n_atoms = _check_ladder(n_atoms, lambda_n)
    _level_energies(n_atoms, lambda_n, varpi, np.array([0, n_atoms]))
    first, last = _weight_window(n_atoms, lambda_n, varpi, theta)
    energies = _level_energies(n_atoms, lambda_n, varpi, np.arange(first, last + 1))
    return DickeSpectrum(n_atoms, lambda_n, varpi, energies, offset=first)


def gibbs_observables(spectrum: DickeSpectrum, theta: float) -> GibbsObservables:
    """Partition sum, free energy and polarization of the ladder at ``theta``.

    The sums run over the levels ``spectrum`` holds. Boltzmann weights are
    computed with the lowest energy subtracted, so no exponential can
    overflow; the shift is restored in the free energy.
    """
    if not 0.0 < theta < math.inf:
        raise DomainError(f"gibbs_observables needs 0 < theta < inf, got {theta}")
    energies = spectrum.energies
    e_min = float(energies.min())
    # A tiny theta sends the exponent of a level above the lowest past the
    # float range to -inf, whose weight 0 is the right limit.
    with np.errstate(over="ignore"):
        weights = np.exp(-(energies - e_min) / theta)
    z_shifted = float(weights.sum())
    rz_per_atom = float((spectrum.m_values * weights).sum() / (spectrum.n_atoms * z_shifted))
    f_per_atom = (e_min - theta * math.log(z_shifted)) / spectrum.n_atoms
    return GibbsObservables(z_shifted=z_shifted, f_per_atom=f_per_atom, rz_per_atom=rz_per_atom)


def compare_meanfield(params: ModelParams, theta: float, n_list: Sequence[int]) -> Table:
    """Exact ladder polarization against the mean-field value, per ensemble size.

    Returns the columns ``n_atoms, rz_exact, rz_meanfield, deviation,
    variant``, one row per entry of ``n_list``; an empty list gives five
    empty columns.

    Each N gets the intensive per-pair coupling ``lam/N`` so ladder and
    mean-field model share the same energy per atom. In the ordered phase
    the deviation vanishes with growing N. Above the transition the ladder
    converges to the relaxation value ``-varpi/(2*lam)`` instead of the
    mean-field population: the fixed-magnitude restriction has no
    disordered entropy, so the reported deviation saturates there rather
    than shrinking.

    The Gibbs sums run over the window of levels whose Boltzmann weight is
    representable in float64, O(sqrt(theta*N/lam)) of the N + 1 levels; every
    level outside it has weight exactly 0.0, so the result is that of the
    whole ladder up to summation order, and no array of size N is built.
    """
    _check_float_chi(params, "compare_meanfield")
    if theta <= 0.0:
        raise DomainError(f"compare_meanfield needs theta > 0, got {theta}")
    cpl = couplings_at(params, theta)
    rz_meanfield = population_inversion(cpl, gap_solve(cpl))
    sizes, rz_exact = [], []
    for n_atoms in n_list:
        _check_atoms(n_atoms)  # before lam / n_atoms, which a huge integer overflows
        sizes.append(int(n_atoms))
        spectrum = _weighted_levels(sizes[-1], cpl.lam / n_atoms, cpl.varpi, theta)
        rz_exact.append(gibbs_observables(spectrum, theta).rz_per_atom)
    return {
        "n_atoms": sizes,
        "rz_exact": rz_exact,
        "rz_meanfield": [rz_meanfield] * len(sizes),
        "deviation": [abs(rz - rz_meanfield) for rz in rz_exact],
        "variant": [params.variant.value] * len(sizes),
    }
