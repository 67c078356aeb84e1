"""Coupling constants of the exchange model from a microscopic level table.

The quasi-spins exchange excitation pairs through a two-photon transition
whose intermediate levels (:class:`~quasispin.base.TransitionLevel`) set its
amplitude; a lossy cavity mode splits that amplitude into the dispersive
exchange coupling ``chi`` and the two-photon decay rate ``gamma``. Both are
scalar formulas, so this module is plain Python and loads no numpy: the
CLI's ``micro`` subcommand runs on it alone.
"""

from __future__ import annotations

import math
from typing import Sequence

from .base import DomainError, TransitionLevel

__all__ = [
    "DomainError",
    "SingularLevelError",
    "SINGULARITY_RTOL",
    "TransitionLevel",
    "transition_amplitude",
    "coupling_constants",
]

# Relative tolerance below which a denominator counts as resonant.
SINGULARITY_RTOL = 1e-12


class SingularLevelError(DomainError):
    """An intermediate level is resonant with the cavity mode."""


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
            raise DomainError(
                f"level {index}: the denominator underflows to 0 at omega_k = {omega_k}"
            )
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
