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
from typing import Sequence

import numpy as np

from .base import DomainError, TransitionLevel

__all__ = [
    "DomainError",
    "SingularLevelError",
    "SINGULARITY_RTOL",
    "Variant",
    "ModelParams",
    "Couplings",
    "TransitionLevel",
    "mean_photon_number",
    "couplings_at",
    "transition_amplitude",
    "coupling_constants",
]

# Relative tolerance below which a denominator counts as resonant.
SINGULARITY_RTOL = 1e-12


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
    variant: Variant = Variant.PROPOSED

    def __post_init__(self) -> None:
        if self.omega_k is None:
            object.__setattr__(self, "omega_k", 0.5 * self.omega21)
        for name in ("omega21", "chi", "omega_k"):
            value = getattr(self, name)
            if not np.all(np.isfinite(value) & (np.asarray(value) > 0.0)):
                raise DomainError(f"{name} must be positive and finite, got {value}")
        object.__setattr__(self, "variant", Variant(self.variant))


def _check_float_chi(params: ModelParams, caller: str) -> None:
    # An array chi (one lane each) is for couplings_at and transition_roots only
    if np.ndim(params.chi):
        raise DomainError(f"{caller} takes a float chi; transition_roots scans lanes")


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
    # exactly 0: the limit. x underflows to 0 only where nbar ~ theta/omega_k
    # is past the float range (omega_k = 5e-324), and the inf of 1/0 there is
    # that overflow, which couplings_at rejects. Neither flag carries news.
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
    a float ``theta`` with a float ``chi`` gives float fields. A coupling past
    the float range (``theta`` near 1e154 at ``omega_k = 1/2``) raises
    :class:`DomainError`.
    """
    return _lane_couplings(params, params.chi, theta)


def _lane_couplings(params: ModelParams, chi, theta) -> Couplings:
    # couplings_at for lanes of a chi array that ModelParams checked once: no second check
    theta_arr = np.asarray(theta, dtype=float)
    # Overflow (nbar**2*chi past the float range) shows as a non-finite
    # coupling below and is rejected there, so its warnings carry no news.
    with np.errstate(over="ignore", invalid="ignore"):
        if params.variant is Variant.TRADITIONAL:
            _check_temperature(theta_arr)
            nbar = np.zeros_like(theta_arr)
        else:
            nbar = np.asarray(mean_photon_number(theta_arr, params.omega_k))
        omega = params.omega21 - 2.0 * nbar * nbar * chi
        lam = chi * (1.0 + 2.0 * nbar)
        varpi = omega - lam
    finite = np.isfinite(nbar) & np.isfinite(lam) & np.isfinite(varpi)
    if not finite.all():
        lowest = np.broadcast_to(theta_arr, finite.shape)[~finite].min()
        raise DomainError(f"couplings overflow at theta = {lowest:g}; lower the temperature range")
    if np.ndim(varpi) == 0:
        return Couplings(theta, *map(float, (nbar, omega, lam, varpi)))
    return Couplings(theta=theta_arr, nbar=nbar, omega=omega, lam=lam, varpi=varpi)


def transition_amplitude(levels: Sequence[TransitionLevel], omega_k: float) -> float:
    """Squared two-photon amplitude summed over the intermediate levels.

    Each level contributes
    ``proj1*proj2*(omega_a1 - omega_2a) / ((omega_2a - omega_k)*(omega_a1 - omega_k))``;
    the coherent sum is squared, so the result is >= 0 and individual terms
    may cancel.

    Raises
    ------
    SingularLevelError
        If ``omega_k`` is resonant with either denominator of some level,
        within relative tolerance 1e-12; the message names the level by its
        index in ``levels``.
    DomainError
        If a level's denominator underflows to 0, or the amplitude is not
        finite (it overflowed the float range).
    """
    total = 0.0
    for index, level in enumerate(levels):
        for name, freq in (("omega_2a", level.omega_2a), ("omega_a1", level.omega_a1)):
            if abs(freq - omega_k) <= SINGULARITY_RTOL * max(abs(freq), abs(omega_k)):
                raise SingularLevelError(
                    f"level {index}: {name} = {freq} is resonant with omega_k = {omega_k}"
                )
        denominator = (level.omega_2a - omega_k) * (level.omega_a1 - omega_k)
        if denominator == 0.0:
            raise DomainError(f"level {index}: the denominator underflows to 0 at omega_k = {omega_k}")
        total += level.proj1 * level.proj2 * (level.omega_a1 - level.omega_2a) / denominator
    amplitude = total * total
    if not math.isfinite(amplitude):
        raise DomainError(f"the two-photon amplitude is {amplitude}: past the float range")
    return amplitude


def coupling_constants(
    amplitude: float, gamma_cav: float, omega21: float, omega_k: float
) -> tuple[float, float]:
    """Split the two-photon amplitude into exchange and decay couplings.

    Returns ``(chi, gamma)``: the dispersive exchange coupling and the
    two-photon decay rate, sharing the Lorentzian denominator
    ``delta**2 + 4*gamma_cav**2`` with ``delta = 2*omega_k - omega21``.
    ``chi`` carries the sign of the detuning ``delta`` while ``gamma`` is
    always >= 0; their ratio is ``delta / (2*gamma_cav)``. Raises
    :class:`DomainError` when the denominator underflows to 0 or a result is
    not finite.
    """
    if amplitude < 0.0:
        raise DomainError(f"amplitude must be non-negative, got {amplitude}")
    if gamma_cav <= 0.0:
        raise DomainError(f"gamma_cav must be positive, got {gamma_cav}")
    delta = 2.0 * omega_k - omega21
    denom = delta * delta + 4.0 * gamma_cav * gamma_cav
    if denom == 0.0:
        raise DomainError(f"delta**2 + 4*gamma_cav**2 underflows to 0 at gamma_cav = {gamma_cav}")
    chi, gamma = amplitude * delta / denom, amplitude * 2.0 * gamma_cav / denom
    if not (math.isfinite(chi) and math.isfinite(gamma)):
        raise DomainError(f"coupling constants past the float range: chi = {chi}, gamma = {gamma}")
    return chi, gamma
