"""Independent reference implementations used by the test suite.

Everything here recomputes the physics from scratch: plain textbook
formulas, dense grid search, golden-section refinement, and the scalar
bisection gap solver that the package's array core replaced. No code is
shared with the package, so agreement is a real cross-check rather than a
tautology. The serializer at the end is the package's writer before column
tables: one dict per row, written by ``csv.writer`` or ``json.dumps``. The
one exception is ``temperature_sweep``, which only adapts the package's
sweep table to the attribute rows the acceptance suite reads.
"""

import csv
import io
import json
import math

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def planck_occupation(theta: float, omega_k: float) -> float:
    if theta == 0.0:
        return 0.0
    x = omega_k / theta
    if x > 700.0:  # expm1 would overflow; occupation is zero to double precision
        return 0.0
    return 1.0 / math.expm1(x)


def couplings(variant: str, chi: float, theta: float, omega21: float = 1.0,
              omega_k: float = 0.5) -> tuple[float, float, float]:
    """(nbar, lam, varpi) for the requested variant."""
    nb = 0.0 if variant == "traditional" else planck_occupation(theta, omega_k)
    lam = chi * (1.0 + 2.0 * nb)
    varpi = omega21 - 2.0 * nb * nb * chi - lam
    return nb, lam, varpi


def free_energy(c: float, lam: float, varpi: float, theta: float) -> float:
    """Textbook form -theta*ln(2*cosh(E/2theta)) + lam*c^2."""
    level_splitting = math.hypot(varpi, 2.0 * lam * c)
    x = level_splitting / (2.0 * theta)
    if x > 350.0:  # ln(2*cosh(x)) -> x beyond double range
        return -0.5 * level_splitting + lam * c * c
    return -theta * math.log(2.0 * math.cosh(x)) + lam * c * c


def order_parameter(lam: float, varpi: float, theta: float,
                    grid: int = 2000, tol: float = 1e-8) -> float:
    """Brute-force minimizer of the free energy over c in [0, 1].

    Dense grid scan bracketing the minimum, then golden-section refinement
    of the bracket down to ``tol``.
    """
    cs = np.linspace(0.0, 1.0, grid)
    splitting = np.hypot(varpi, 2.0 * lam * cs)
    x = np.minimum(splitting / (2.0 * theta), 350.0)
    values = np.where(
        splitting / (2.0 * theta) > 350.0,
        -0.5 * splitting,
        -theta * np.log(2.0 * np.cosh(x)),
    ) + lam * cs * cs
    best = int(np.argmin(values))
    a = cs[max(best - 1, 0)]
    b = cs[min(best + 1, grid - 1)]
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1 = free_energy(x1, lam, varpi, theta)
    f2 = free_energy(x2, lam, varpi, theta)
    while b - a > tol:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = free_energy(x1, lam, varpi, theta)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = free_energy(x2, lam, varpi, theta)
    return 0.5 * (a + b)


def ladder_ground_m(n_atoms: int, lambda_n: float, varpi: float) -> float:
    """Ground-state quantum number by full enumeration of the ladder."""
    spin = 0.5 * n_atoms
    ms = np.arange(n_atoms + 1) - spin
    energies = varpi * ms + lambda_n * ms * ms - lambda_n * spin * (spin + 1.0)
    return float(ms[int(np.argmin(energies))])


def ladder_rz(n_atoms: int, lambda_n: float, varpi: float, theta: float) -> float:
    """Thermal polarization per atom by direct high-precision summation."""
    spin = 0.5 * n_atoms
    ms = np.arange(n_atoms + 1) - spin
    energies = varpi * ms + lambda_n * ms * ms - lambda_n * spin * (spin + 1.0)
    weights = np.exp(-(energies - energies.min()) / theta)
    return float((ms * weights).sum() / (n_atoms * weights.sum()))


def _bisection_splitting(lam: float, theta: float) -> float:
    # Root of u(E) = lam*tanh(E/(2*theta))/E = 1 on (0, lam]; needs
    # theta < lam/2, so u(0+) = lam/(2*theta) > 1 and u is strictly
    # decreasing. Bisection to float convergence, about 60 evaluations.
    def u(splitting: float) -> float:
        return lam * math.tanh(splitting / (2.0 * theta)) / splitting

    hi = lam
    if u(hi) >= 1.0:
        return hi  # tanh saturated: the root is lam to float precision
    lo = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if u(mid) > 1.0:
            lo = mid
        else:
            hi = mid


def bisection_solution(lam: float, varpi: float, theta: float) -> dict:
    """Scalar gap solution by bisection: the package's solver before its array core.

    Returns c_abs, splitting, phase, f_per_atom and rz_eq10 for one set of
    couplings; theta = 0 takes the saturated closed forms.
    """
    abs_varpi = abs(varpi)
    if theta == 0.0:
        if lam > abs_varpi:
            c_abs, splitting, phase = math.sqrt(lam * lam - varpi * varpi) / (2.0 * lam), lam, "ordered"
            f_per_atom = -(lam * lam + varpi * varpi) / (4.0 * lam)
        else:
            c_abs, splitting, phase, f_per_atom = 0.0, abs_varpi, "disordered", -0.5 * abs_varpi
        saturation = 1.0
    else:
        c_abs, splitting, phase = 0.0, abs_varpi, "disordered"
        if theta < 0.5 * lam:
            root = _bisection_splitting(lam, theta)
            if root > abs_varpi:
                c = math.sqrt(max(root * root - varpi * varpi, 0.0)) / (2.0 * lam)
                if c > 0.0:
                    c_abs, splitting, phase = c, root, "ordered"
        level = math.hypot(varpi, 2.0 * lam * c_abs)
        f_per_atom = lam * c_abs * c_abs - (
            0.5 * level + theta * math.log1p(math.exp(-level / theta))
        )
        saturation = math.tanh(splitting / (2.0 * theta))
    rz_eq10 = 0.0 if splitting == 0.0 else -0.5 * (varpi / splitting) * saturation
    return {
        "c_abs": c_abs,
        "splitting": splitting,
        "phase": phase,
        "f_per_atom": f_per_atom,
        "rz_eq10": rz_eq10,
    }


def _cells(column) -> list:
    return column if isinstance(column, list) else column.tolist()


def table_records(table: dict) -> list[dict]:
    """One dict per row of a column table; an array or coded column gives its ``tolist()``."""
    return [dict(zip(table, row)) for row in zip(*map(_cells, table.values()))]


def stacked(tables) -> dict:
    """One table of the rows of tables with the same columns, in order.

    Every column becomes the list of its cells (``tolist()`` of an array or
    coded column), so no column of the result is an array or coded.
    """
    tables = list(tables)
    return {name: [cell for table in tables for cell in _cells(table[name])] for name in tables[0]}


def temperature_sweep(params, theta_min: float, theta_max: float, points: int) -> list:
    """Rows of the package's ``sweep_table`` as namespaces, ``phase`` as a ``Phase``."""
    from types import SimpleNamespace

    from quasispin.meanfield import Phase
    from quasispin.sweep import sweep_table

    rows = table_records(sweep_table(params, theta_min, theta_max, points))
    return [SimpleNamespace(**{**row, "phase": Phase(row["phase"])}) for row in rows]


def _csv_cell(value, precision: int):
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, f".{precision}g")
    return value


def _json_value(value, precision: int):
    if isinstance(value, float):
        return float(format(value, f".{precision}g"))
    return value


def _csv_line(cells) -> str:
    # A CRLF writer quotes a cell holding CR as well as LF (RFC 4180); the
    # row's own CRLF is then cut back to LF.
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow(cells)
    return buffer.getvalue()[:-2] + "\n"


def serialize_records(records, output_format: str = "csv", precision: int = 9,
                      fieldnames=None) -> bytes:
    """CSV or JSON bytes of row dicts; ``fieldnames`` default to the first row's keys."""
    if fieldnames is None:
        fieldnames = list(records[0])
    if output_format == "csv":
        lines = [_csv_line(fieldnames)]
        for record in records:
            lines.append(_csv_line([_csv_cell(record[name], precision) for name in fieldnames]))
        return "".join(lines).encode("utf-8")
    payload = [
        {name: _json_value(record[name], precision) for name in fieldnames} for record in records
    ]
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")
