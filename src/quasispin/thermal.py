"""Thermal occupation and effective couplings of the quasi-spin ensemble.

The two-level atoms exchange excitation pairs through a lossy cavity mode,
so the effective exchange integral and the dressed level splitting inherit
a temperature dependence through the mode's Planck occupation. This module
holds the model's inputs (:class:`ModelParams`) and evaluates that
occupation and the resulting couplings. Temperatures (and the coupling
``chi``) may be numpy arrays; the couplings then broadcast elementwise. The
microscopic two-photon amplitude that ``chi`` derives from is computed, without
numpy, in :mod:`quasispin.levels`.

Both records are ``NamedTuple``s: immutable, and cheaper to define than
frozen dataclasses, whose generated methods each process would compile.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .base import DomainError

__all__ = [
    "DomainError",
    "Variant",
    "ModelParams",
    "Couplings",
    "mean_photon_number",
    "couplings_at",
]


class Variant(str, Enum):
    """How the couplings respond to temperature.

    PROPOSED keeps the cavity occupation in the couplings, so the exchange
    integral grows with temperature. TRADITIONAL pins the occupation to
    zero, freezing the couplings at their vacuum values.
    """

    PROPOSED = "proposed"
    TRADITIONAL = "traditional"


class _ModelFields(NamedTuple):
    omega21: float  # bare two-level splitting, > 0
    chi: float | np.ndarray  # vacuum exchange coupling, > 0 (an array: one per lane)
    omega_k: float | None = None  # cavity mode energy, > 0
    variant: Variant = Variant.PROPOSED


class ModelParams(_ModelFields):
    """Physical inputs of the exchange model.

    All energies (``omega21``, ``chi``, ``omega_k``) and the temperature
    share one unit system; only their ratios matter. ``omega_k`` defaults
    to half the bare splitting, the two-photon resonance point. Every way
    of making one (the constructor, ``_replace``, ``_make``, unpickling)
    checks the three energies and coerces ``variant`` to :class:`Variant`.
    """

    __slots__ = ()

    def __new__(cls, omega21, chi, omega_k=None, variant=Variant.PROPOSED):
        if omega_k is None:
            omega_k = 0.5 * omega21
        for name, value in (("omega21", omega21), ("chi", chi), ("omega_k", omega_k)):
            if not np.all(np.isfinite(value) & (np.asarray(value) > 0.0)):
                raise DomainError(f"{name} must be positive and finite, got {value}")
        return super().__new__(cls, omega21, chi, omega_k, Variant(variant))

    # The inherited _make and _replace build the tuple with tuple.__new__,
    # which would skip the checks; these go through __new__.
    @classmethod
    def _make(cls, iterable) -> ModelParams:
        return cls(*iterable)

    def _replace(self, **changes) -> ModelParams:
        return type(self)(**{**self._asdict(), **changes})


def _check_float_chi(params: ModelParams, caller: str) -> None:
    # An array chi (one lane each) is for couplings_at and transition_roots only
    if np.ndim(params.chi):
        raise DomainError(f"{caller} takes a float chi; transition_roots scans lanes")


class Couplings(NamedTuple):
    """Effective couplings of the ensemble at one temperature.

    Every field is a float, or every field is a numpy array (broadcastable
    against the others) holding one lane per temperature.
    """

    theta: float  # temperature, >= 0
    nbar: float  # cavity occupation entering the couplings
    lam: float  # exchange integral, > 0
    varpi: float  # dressed splitting left over after exchange, omega21 - 2*nbar**2*chi - lam


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
        lam = chi * (1.0 + 2.0 * nbar)
        varpi = params.omega21 - 2.0 * nbar * nbar * chi - lam
    finite = np.isfinite(nbar) & np.isfinite(lam) & np.isfinite(varpi)
    if not finite.all():
        lowest = np.broadcast_to(theta_arr, finite.shape)[~finite].min()
        raise DomainError(f"couplings overflow at theta = {lowest:g}; lower the temperature range")
    if np.ndim(varpi) == 0:
        return Couplings(theta, *map(float, (nbar, lam, varpi)))
    return Couplings(theta=theta_arr, nbar=nbar, lam=lam, varpi=varpi)
