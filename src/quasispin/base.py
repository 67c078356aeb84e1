"""Numpy-free names shared by the CLI front end and the physics modules.

The CLI parses its flags, prints help and rejects bad invocations without
importing numpy, so the few names it needs before a subcommand runs live
here: the root of the package's exceptions (which ``main()`` maps to exit
3), the level record that ``--level`` parses into, and the figure grid sizes
that the help shows as defaults. The physics modules import them from here.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DomainError", "TransitionLevel", "FIG1_POINTS", "FIG2_POINTS"]

# Default grid sizes of the figure datasets, shared with the CLI.
FIG1_POINTS = 400
FIG2_POINTS = 200


class DomainError(ValueError):
    """An input lies outside the physical domain of an operation."""


@dataclass(frozen=True)
class TransitionLevel:
    """One intermediate level of the two-photon transition chain."""

    proj1: float  # dipole projection linking the level to the lower state
    proj2: float  # dipole projection linking the upper state to the level
    omega_a1: float  # level energy measured from the lower state
    omega_2a: float  # upper-state energy measured from the level
