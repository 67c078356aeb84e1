"""Exact finite-ensemble cross-check on the fixed-magnitude spin ladder.

For N atoms locked into the maximal collective-spin sector the exchange
Hamiltonian is diagonal in the ladder label m, so spectra and Gibbs
observables come out in closed form and serve as an oracle for the
mean-field results. The restriction drops the entropy of lower-spin
sectors, which is accurate deep in the ordered regime; see
``compare_meanfield`` for how that shows up at higher temperatures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .meanfield import gap_solve, population_inversion
from .thermal import DomainError, ModelParams, couplings_at

__all__ = [
    "MAX_LADDER_ATOMS",
    "DickeSpectrum",
    "GibbsObservables",
    "FiniteSizeComparison",
    "dicke_spectrum",
    "ground_state_m",
    "gibbs_observables",
    "compare_meanfield",
]

MAX_LADDER_ATOMS = 1_000_000


@dataclass(frozen=True)
class DickeSpectrum:
    """Ladder energies of the maximal collective-spin sector.

    ``energies[i]`` belongs to ``m = i - n_atoms/2``; labels are
    half-integers when ``n_atoms`` is odd.
    """

    n_atoms: int
    lambda_n: float  # per-pair exchange coupling (intensive: lam / n_atoms)
    varpi: float
    energies: np.ndarray

    @property
    def spin(self) -> float:
        return 0.5 * self.n_atoms

    @property
    def m_values(self) -> np.ndarray:
        return np.arange(self.n_atoms + 1) - self.spin


@dataclass(frozen=True)
class GibbsObservables:
    """Thermal averages over the ladder at one temperature."""

    z_shifted: float  # partition sum with the lowest energy factored out
    f_per_atom: float
    rz_per_atom: float


@dataclass(frozen=True)
class FiniteSizeComparison:
    n_atoms: int
    rz_exact: float
    rz_meanfield: float
    deviation: float


def _check_atoms(n_atoms: int) -> None:
    if int(n_atoms) != n_atoms or n_atoms < 2:
        raise DomainError(f"n_atoms must be an integer >= 2, got {n_atoms}")
    if n_atoms > MAX_LADDER_ATOMS:
        raise DomainError(f"n_atoms = {n_atoms} exceeds the ladder size cap {MAX_LADDER_ATOMS}")


def dicke_spectrum(n_atoms: int, lambda_n: float, varpi: float) -> DickeSpectrum:
    """Exact ladder spectrum ``E(m) = varpi*m + lambda_n*m**2 - lambda_n*j*(j+1)``.

    ``j = n_atoms/2`` and m runs from -j to j in unit steps, so the spectrum
    is a convex discrete parabola with second difference ``2*lambda_n``.
    """
    _check_atoms(n_atoms)
    if lambda_n <= 0.0:
        raise DomainError(f"lambda_n must be positive, got {lambda_n}")
    n_atoms = int(n_atoms)
    spin = 0.5 * n_atoms
    m = np.arange(n_atoms + 1) - spin
    # Energies past the float range show as inf or nan and are rejected below.
    with np.errstate(over="ignore", invalid="ignore"):
        energies = varpi * m + lambda_n * m * m - lambda_n * spin * (spin + 1.0)
    if not np.all(np.isfinite(energies)):
        raise DomainError(
            f"ladder energies past the float range at varpi = {varpi:g}, lambda_n = {lambda_n:g}"
        )
    return DickeSpectrum(n_atoms=n_atoms, lambda_n=lambda_n, varpi=varpi, energies=energies)


def ground_state_m(spectrum: DickeSpectrum) -> float:
    """Ladder label of minimal energy; exact half-way ties go to the smaller m.

    The continuous minimizer of the energy parabola is
    ``-varpi/(2*lambda_n)``; the discrete minimum is its nearest admissible
    label, clamped to [-j, j].
    """
    continuous = -spectrum.varpi / (2.0 * spectrum.lambda_n)
    index = math.ceil(continuous + spectrum.spin - 0.5)  # half-ties round down
    return float(min(max(index, 0), spectrum.n_atoms)) - spectrum.spin


def gibbs_observables(spectrum: DickeSpectrum, theta: float) -> GibbsObservables:
    """Partition sum, free energy and polarization of the ladder at ``theta``.

    Boltzmann weights are computed with the lowest energy subtracted, so no
    exponential can overflow; the shift is restored in the free energy.
    """
    if theta <= 0.0:
        raise DomainError(f"gibbs_observables needs theta > 0, got {theta}")
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


def compare_meanfield(
    params: ModelParams, theta: float, n_list: Sequence[int]
) -> list[FiniteSizeComparison]:
    """Exact ladder polarization against the mean-field value, per ensemble size.

    Each N gets the intensive per-pair coupling ``lam/N`` so ladder and
    mean-field model share the same energy per atom. In the ordered phase
    the deviation vanishes with growing N. Above the transition the ladder
    converges to the relaxation value ``-varpi/(2*lam)`` instead of the
    mean-field population: the fixed-magnitude restriction has no
    disordered entropy, so the reported deviation saturates there rather
    than shrinking.
    """
    if theta <= 0.0:
        raise DomainError(f"compare_meanfield needs theta > 0, got {theta}")
    cpl = couplings_at(params, theta)
    rz_meanfield = population_inversion(cpl, gap_solve(cpl))
    comparisons = []
    for n_atoms in n_list:
        _check_atoms(n_atoms)  # before lam / n_atoms, which a huge integer overflows
        spectrum = dicke_spectrum(int(n_atoms), cpl.lam / n_atoms, cpl.varpi)
        rz_exact = gibbs_observables(spectrum, theta).rz_per_atom
        comparisons.append(
            FiniteSizeComparison(
                n_atoms=int(n_atoms),
                rz_exact=rz_exact,
                rz_meanfield=rz_meanfield,
                deviation=abs(rz_exact - rz_meanfield),
            )
        )
    return comparisons
