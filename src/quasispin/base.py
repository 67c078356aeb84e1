"""Numpy-free names shared by the CLI front end and the physics modules.

The CLI parses its flags, prints help and rejects bad invocations without
numpy, so the names it needs before a subcommand runs live here: the root of
the package's exceptions (exit 3 in ``main()``), the level record that
``--level`` parses into (a ``NamedTuple``: a dataclass would load ``inspect``),
the column-table type that every handler returns with its coded column form,
the root tolerance, grid sizes and scan window that the help shows as
defaults, and the default sweep extent of the ``sweep`` range check. The physics modules import them from here.
"""

from __future__ import annotations

import math
from typing import NamedTuple

__all__ = [
    "DomainError", "TransitionLevel", "Coded", "Table", "ROOT_TOL", "CRITICAL_POINTS",
    "FIG1_POINTS", "FIG2_POINTS", "default_theta_max",
]

# A column table, the one result type of the library and the CLI: column name
# -> one cell per row, in one of three forms: a list, a 1-D numpy array (named
# as a string, so this module loads no numpy) or a Coded column; key order is
# column order.
Table = dict[str, "list | numpy.ndarray | Coded"]

# Defaults shared with the CLI: the relative tolerance of every transition
# root, and the grid sizes of the critical scan and the figure datasets.
ROOT_TOL = 1e-10
CRITICAL_POINTS = 512
FIG1_POINTS = 400
FIG2_POINTS = 200
# The critical scan's default window, which the figures' normalizer scans
# take too, (1e-4, 2)*omega21: every transition of either variant with
# chi/omega21 in (0, 1) and omega_k = omega21/2 lies well below its top.
_SCAN_FLOOR = 1e-4
_SCAN_CEIL = 2.0


class DomainError(ValueError):
    """An input lies outside the physical domain of an operation."""


class TransitionLevel(NamedTuple):
    """One intermediate level of the two-photon transition chain."""

    proj1: float  # dipole projection linking the level to the lower state
    proj2: float  # dipole projection linking the upper state to the level
    omega_a1: float  # level energy measured from the lower state
    omega_2a: float  # upper-state energy measured from the level


class Coded(NamedTuple):
    """A table column held as integer codes into a list of cells.

    Cell ``i`` is ``values[codes[i]]``: ``codes`` is a 1-D integer numpy array
    with ``0 <= code < len(values)``, and ``values`` is a list of cells. The
    column has ``len(codes)`` rows (``len()`` of the tuple itself is 2), and
    the serializer renders each value once per table.
    """

    codes: numpy.ndarray
    values: list

    def tolist(self) -> list:
        """The cells as a list, as ``ndarray.tolist()`` gives an array's."""
        return list(map(self.values.__getitem__, self.codes.tolist()))


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
