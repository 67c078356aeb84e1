"""Thermal occupation and effective couplings of the quasi-spin ensemble.

The two-level atoms exchange excitation pairs through a lossy cavity mode,
so the effective exchange integral and the dressed level splitting inherit
a temperature dependence through the mode's Planck occupation. This module
evaluates that occupation, the resulting couplings, and the microscopic
two-photon amplitude they derive from. Temperatures (and the coupling ``chi``)
may be numpy arrays; the couplings then broadcast elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "DomainError",
    "SingularLevelError",
    "Variant",
    "ModelParams",
    "Couplings",
    "TransitionLevel",
    "MicroscopicLevels",
    "mean_photon_number",
    "couplings_at",
    "transition_amplitude",
    "coupling_constants",
]

# Relative tolerance below which a denominator counts as resonant.
SINGULARITY_RTOL = 1e-12


class DomainError(ValueError):
    """An input lies outside the physical domain of an operation."""


class SingularLevelError(DomainError):
    """An intermediate level is resonant with the cavity mode."""


class Variant(str, Enum):
    """How the couplings respond to temperature.

    PROPOSED keeps the cavity occupation in the couplings, so the exchange
    integral grows with temperature. TRADITIONAL pins the occupation to
    zero, freezing the couplings at their vacuum values.
    """

    PROPOSED = "proposed"
    TRADITIONAL = "traditional"


@dataclass(frozen=True)
class ModelParams:
    """Physical inputs of the exchange model.

    All energies (``omega21``, ``chi``, ``omega_k``) and the temperature
    share one unit system; only their ratios matter. ``omega_k`` defaults
    to half the bare splitting, the two-photon resonance point.
    """

    omega21: float  # bare two-level splitting, > 0
    chi: float | np.ndarray  # vacuum exchange coupling, > 0 (an array: one per lane)
    omega_k: float | None = None  # cavity mode energy, > 0
    n_atoms: int = 100  # ensemble size, >= 2
    variant: Variant = Variant.PROPOSED

    def __post_init__(self) -> None:
        if self.omega_k is None:
            object.__setattr__(self, "omega_k", 0.5 * self.omega21)
        for name in ("omega21", "chi", "omega_k"):
            value = getattr(self, name)
            if not np.all(np.isfinite(value) & (np.asarray(value) > 0.0)):
                raise DomainError(f"{name} must be positive and finite, got {value}")
        if int(self.n_atoms) != self.n_atoms or self.n_atoms < 2:
            raise DomainError(f"n_atoms must be an integer >= 2, got {self.n_atoms}")
        object.__setattr__(self, "variant", Variant(self.variant))


@dataclass(frozen=True)
class Couplings:
    """Effective couplings of the ensemble at one temperature.

    Every field is a float, or every field is a numpy array (broadcastable
    against the others) holding one lane per temperature.
    """

    theta: float  # temperature, >= 0
    nbar: float  # cavity occupation entering the couplings
    omega: float  # dressed level splitting
    lam: float  # exchange integral, > 0
    varpi: float  # splitting left over after exchange, omega - lam


def _check_temperature(theta: np.ndarray) -> None:
    if not np.all((theta >= 0.0) & (theta < math.inf)):
        raise DomainError(f"theta must be non-negative and finite, got {theta}")


def mean_photon_number(theta: float | np.ndarray, omega_k: float) -> float | np.ndarray:
    """Planck occupation of a mode of energy ``omega_k`` at temperature ``theta``.

    Evaluated as ``exp(-x) / (1 - exp(-x))`` with ``x = omega_k / theta``,
    which is finite for every ``theta >= 0``: no overflow for small
    temperatures and no precision loss for large ones. ``theta`` may be an
    array; a float gives a float.
    """
    if not 0.0 < omega_k < math.inf:
        raise DomainError(f"omega_k must be positive and finite, got {omega_k}")
    theta_arr = np.asarray(theta, dtype=float)
    _check_temperature(theta_arr)
    # theta = 0 (or a subnormal theta) sends x to +inf, where the ratio is
    # exactly 0: the limit, so the divide-by-zero flag carries no news.
    with np.errstate(divide="ignore", over="ignore"):
        x = omega_k / theta_arr
    nbar = np.exp(-x) / -np.expm1(-x)
    return float(nbar) if nbar.ndim == 0 else nbar


def couplings_at(params: ModelParams, theta: float | np.ndarray) -> Couplings:
    """Effective couplings at temperature ``theta``.

    The exchange integral is ``chi * (1 + 2*nbar)`` and the dressed
    splitting is ``omega21 - 2*nbar**2*chi``. The TRADITIONAL variant
    evaluates both at ``nbar = 0`` regardless of temperature. An array
    ``theta`` (or ``params.chi``) gives array fields, broadcast elementwise;
    a float ``theta`` with a float ``chi`` gives float fields.
    """
    theta_arr = np.asarray(theta, dtype=float)
    if params.variant is Variant.TRADITIONAL:
        _check_temperature(theta_arr)
        nbar = np.zeros_like(theta_arr)
    else:
        nbar = np.asarray(mean_photon_number(theta_arr, params.omega_k))
    omega = params.omega21 - 2.0 * nbar * nbar * params.chi
    lam = params.chi * (1.0 + 2.0 * nbar)
    varpi = omega - lam
    if np.ndim(varpi) == 0:
        return Couplings(
            theta=theta, nbar=float(nbar), omega=float(omega), lam=float(lam), varpi=float(varpi)
        )
    return Couplings(theta=theta_arr, nbar=nbar, omega=omega, lam=lam, varpi=varpi)


@dataclass(frozen=True)
class TransitionLevel:
    """One intermediate level of the two-photon transition chain."""

    proj1: float  # dipole projection linking the level to the lower state
    proj2: float  # dipole projection linking the upper state to the level
    omega_a1: float  # level energy measured from the lower state
    omega_2a: float  # upper-state energy measured from the level


@dataclass(frozen=True)
class MicroscopicLevels:
    """Intermediate-level table plus the cavity linewidth."""

    levels: tuple[TransitionLevel, ...]
    gamma_cav: float  # cavity half-linewidth, > 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))
        if self.gamma_cav <= 0.0:
            raise DomainError(f"gamma_cav must be positive, got {self.gamma_cav}")


def transition_amplitude(levels: MicroscopicLevels, omega_k: float) -> float:
    """Squared two-photon amplitude summed over the intermediate levels.

    Each level contributes
    ``proj1*proj2*(omega_a1 - omega_2a) / ((omega_2a - omega_k)*(omega_a1 - omega_k))``;
    the coherent sum is squared, so the result is >= 0 and individual terms
    may cancel.

    Raises
    ------
    SingularLevelError
        If ``omega_k`` is resonant with either denominator of some level,
        within relative tolerance 1e-12.
    """
    total = 0.0
    for index, level in enumerate(levels.levels):
        for name, freq in (("omega_2a", level.omega_2a), ("omega_a1", level.omega_a1)):
            if abs(freq - omega_k) <= SINGULARITY_RTOL * max(abs(freq), abs(omega_k)):
                raise SingularLevelError(
                    f"level {index}: {name} = {freq} is resonant with omega_k = {omega_k}"
                )
        total += (
            level.proj1
            * level.proj2
            * (level.omega_a1 - level.omega_2a)
            / ((level.omega_2a - omega_k) * (level.omega_a1 - omega_k))
        )
    return total * total


def coupling_constants(
    amplitude: float, gamma_cav: float, omega21: float, omega_k: float
) -> tuple[float, float]:
    """Split the two-photon amplitude into exchange and decay couplings.

    Returns ``(chi, gamma)``: the dispersive exchange coupling and the
    two-photon decay rate, sharing the Lorentzian denominator
    ``delta**2 + 4*gamma_cav**2`` with ``delta = 2*omega_k - omega21``.
    ``chi`` carries the sign of the detuning ``delta`` while ``gamma`` is
    always >= 0; their ratio is ``delta / (2*gamma_cav)``.
    """
    if amplitude < 0.0:
        raise DomainError(f"amplitude must be non-negative, got {amplitude}")
    if gamma_cav <= 0.0:
        raise DomainError(f"gamma_cav must be positive, got {gamma_cav}")
    delta = 2.0 * omega_k - omega21
    denom = delta * delta + 4.0 * gamma_cav * gamma_cav
    return amplitude * delta / denom, amplitude * 2.0 * gamma_cav / denom
