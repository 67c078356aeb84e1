"""Output checks, against a reference the benchmark computes itself.

The reference physics below is written from the model's equations and shares
no code with the package: couplings from the Planck occupation, the gap
splitting by a monotone Newton iteration, the ordering measure and the
closed-form constant-coupling transition. Every check raises ``CheckError``;
each returns a small record of the work the invocation did (ordered fraction,
roots found), so runs on different seeds can be compared.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import math
import random
from pathlib import Path

from workloads import Invocation, traditional_theta_cr

THERMO_COLUMNS = (
    "theta", "nbar", "lambda", "varpi", "c_abs", "f_per_atom", "rz_eq10", "rz_eq4",
    "phase", "variant",
)
PHASE_COLUMNS = ("chi_ratio", "theta", "phase", "variant")
BOUNDARY_COLUMNS = ("chi_ratio", "theta_cr", "kind", "variant")
CRITICAL_COLUMNS = ("theta_cr", "kind", "nbar", "lambda", "varpi", "variant")
COMPARE_COLUMNS = ("n_atoms", "rz_exact", "rz_meanfield", "deviation", "variant")
MICRO_COLUMNS = ("amplitude", "chi", "gamma", "chi_over_gamma")

OMEGA_K = 0.5  # the CLI default, omega21 / 2
# Outputs carry 9 significant digits, so a rounding error is at most 5e-9
# relative; the rest of the allowance covers solver round-off.
TOL = 1e-8
SAMPLED_ROWS = 64
SAMPLED_CELLS = 256
EXACT_MAX_DEVIATION = 1e-6


class CheckError(Exception):
    """An output is missing, malformed or wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _near(value: float, ref: float) -> bool:
    return abs(value - ref) <= TOL * max(1.0, abs(ref))


def _close(value: float, ref: float, what: str) -> None:
    _require(_near(value, ref), f"{what}: got {value!r}, reference {ref!r}")


# ---------------------------------------------------------------------------
# reference physics (omega21 = 1 throughout)


def couplings(ratio: float, theta: float, variant: str, omega_k: float = OMEGA_K):
    """(nbar, lam, varpi) at temperature theta."""
    if variant == "traditional" or theta == 0.0:
        nbar = 0.0
    else:
        x = omega_k / theta
        nbar = 0.0 if x > 700.0 else 1.0 / math.expm1(x)
    lam = ratio * (1.0 + 2.0 * nbar)
    return nbar, lam, 1.0 - 2.0 * nbar * nbar * ratio - lam


def gap_splitting(lam: float, theta: float) -> float | None:
    """Positive root E of E = lam*tanh(E/(2*theta)), or None if theta >= lam/2.

    g(E) = lam*tanh(E/(2*theta)) - E is concave with g(lam) <= 0, so Newton
    from E = lam falls monotonically onto the root; stop when it stalls.
    """
    if theta >= 0.5 * lam:
        return None
    energy = lam
    for _ in range(500):
        t = math.tanh(energy / (2.0 * theta))
        slope = lam * (1.0 - t * t) / (2.0 * theta) - 1.0
        if slope >= 0.0:
            break
        nxt = energy - (lam * t - energy) / slope
        if not nxt < energy:
            break
        energy = nxt
    return energy


def thermo_reference(ratio: float, theta: float, variant: str) -> dict:
    nbar, lam, varpi = couplings(ratio, theta, variant)
    abs_varpi = abs(varpi)
    if theta == 0.0:
        energy = lam if lam > abs_varpi else None
    else:
        energy = gap_splitting(lam, theta)
    if energy is not None and energy > abs_varpi:
        c_abs = math.sqrt(energy * energy - varpi * varpi) / (2.0 * lam)
    else:
        energy, c_abs = abs_varpi, 0.0
    if theta == 0.0:
        f = -(lam * lam + varpi * varpi) / (4.0 * lam) if c_abs > 0.0 else -0.5 * abs_varpi
        saturation = 1.0
    else:
        split = math.hypot(varpi, 2.0 * lam * c_abs)
        f = lam * c_abs * c_abs - (0.5 * split + theta * math.log1p(math.exp(-split / theta)))
        saturation = math.tanh(energy / (2.0 * theta))
    rz_eq10 = 0.0 if energy == 0.0 else -0.5 * (varpi / energy) * saturation
    return {
        "nbar": nbar, "lambda": lam, "varpi": varpi, "c_abs": c_abs,
        "f_per_atom": f, "rz_eq10": rz_eq10, "rz_eq4": -varpi / (2.0 * lam),
    }


def measure(ratio: float, theta: float, variant: str) -> float:
    """Ordering measure: positive exactly where the phase is ordered."""
    _, lam, varpi = couplings(ratio, theta, variant)
    return lam * math.tanh(abs(varpi) / (2.0 * theta)) - abs(varpi)


def uniform_grid(lo: float, hi: float, points: int) -> list[float]:
    step = (hi - lo) / (points - 1)
    return [lo + i * step for i in range(points - 1)] + [hi]


# ---------------------------------------------------------------------------
# parsing


def read_table(path: Path, fmt: str, columns: tuple[str, ...]) -> list[dict]:
    """Rows of a CSV or JSON output, after checking its schema."""
    _require(path.is_file(), f"missing output {path.name}")
    text = path.read_text(encoding="utf-8")
    if fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        _require(header is not None and tuple(header) == columns, f"{path.name}: header {header}")
        rows = [dict(zip(columns, row)) for row in reader]
        _require(all(len(row) == len(columns) for row in rows), f"{path.name}: ragged rows")
        return rows
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"{path.name}: {exc}") from exc
    _require(isinstance(rows, list), f"{path.name}: not a JSON list")
    for row in rows:
        _require(
            isinstance(row, dict) and tuple(row) == columns,
            f"{path.name}: keys {list(row) if isinstance(row, dict) else row}",
        )
    return rows


def _finite(row: dict, names: tuple[str, ...], where: str, index: int = 0) -> list[float]:
    """The named columns as finite floats; ``where`` and ``index`` locate a failure."""
    try:
        values = [float(row[name]) for name in names]
    except (TypeError, ValueError) as exc:
        raise CheckError(f"{where} {index}: non-numeric value in {row}") from exc
    if not all(map(math.isfinite, values)):
        raise CheckError(f"{where} {index}: non-finite value in {row}")
    return values


# ---------------------------------------------------------------------------
# per-kind checks


def check_sweep(inv: Invocation, outdir: Path, rng: random.Random) -> dict:
    p = inv.params
    rows = read_table(outdir / inv.outputs[0], p["format"], THERMO_COLUMNS)
    _require(len(rows) == 2 * p["points"], f"sweep: {len(rows)} rows, expected {2 * p['points']}")
    thetas = uniform_grid(0.0, p["theta_max"], p["points"])
    points = p["points"]
    ordered = 0
    for index, row in enumerate(rows):
        theta, _, _, _, c_abs, _, rz_eq10, rz_eq4 = _finite(
            row, THERMO_COLUMNS[:8], "sweep row", index
        )
        is_ordered = row["phase"] == "ordered"
        # One pass over every row; the message is built only on failure.
        if not (
            row["variant"] == ("proposed" if index < points else "traditional")
            and 0.0 <= c_abs <= 0.5
            and (is_ordered or row["phase"] == "disordered")
            and is_ordered == (c_abs > 0.0)
            and (not is_ordered or abs(rz_eq10 - rz_eq4) <= TOL)
            and _near(theta, thetas[index % points])
        ):
            raise CheckError(
                f"sweep row {index} breaks a row rule (variant; c_abs in [0, 1/2]; "
                "phase ordered iff c_abs > 0; rz_eq10 = rz_eq4 when ordered; "
                f"theta on the grid): {row}"
            )
        ordered += is_ordered
    for index in rng.sample(range(len(rows)), min(SAMPLED_ROWS, len(rows))):
        variant = "proposed" if index < p["points"] else "traditional"
        ref = thermo_reference(p["ratio"], thetas[index % p["points"]], variant)
        row = rows[index]
        for name, value in ref.items():
            _close(float(row[name]), value, f"sweep row {index} {name} vs reference")
        if ref["c_abs"] > 10 * TOL:
            _require(row["phase"] == "ordered", f"sweep row {index}: reference is ordered")
    return {"ordered_fraction": ordered / len(rows)}


def check_phase(inv: Invocation, outdir: Path, rng: random.Random) -> dict:
    p = inv.params
    nx, ny = p["nx"], p["ny"]
    rows = read_table(outdir / inv.outputs[0], "csv", PHASE_COLUMNS)
    _require(len(rows) == nx * ny, f"phase: {len(rows)} rows, expected {nx * ny}")
    ratios = uniform_grid(*p["chi"], nx)
    thetas = uniform_grid(*p["theta"], ny)
    ordered = [[False] * nx for _ in range(ny)]
    for index, row in enumerate(rows):
        i, j = divmod(index, nx)
        chi_ratio, theta = _finite(row, ("chi_ratio", "theta"), "phase row", index)
        is_ordered = row["phase"] == "ordered"
        if not (
            (is_ordered or row["phase"] == "disordered")
            and row["variant"] == "proposed"
            and _near(chi_ratio, ratios[j])
            and _near(theta, thetas[i])
        ):
            raise CheckError(
                f"phase row {index} breaks a row rule (phase; variant; cell on the grid): {row}"
            )
        ordered[i][j] = is_ordered
    for index in rng.sample(range(len(rows)), min(SAMPLED_CELLS, len(rows))):
        i, j = divmod(index, nx)
        m = measure(ratios[j], thetas[i], "proposed")
        if abs(m) > TOL:  # cells on the boundary may round either way
            _require(ordered[i][j] == (m > 0.0), f"phase cell ({i}, {j}): reference measure {m}")
    boundary = read_table(outdir / inv.outputs[1], "csv", BOUNDARY_COLUMNS)
    column_of = {f"{ratio:.9g}": j for j, ratio in enumerate(ratios)}
    for index, row in enumerate(boundary):
        where = f"boundary row {index}"
        chi_ratio, theta = _finite(row, ("chi_ratio", "theta_cr"), "boundary row", index)
        j = column_of.get(f"{chi_ratio:.9g}")
        _require(j is not None, f"{where}: chi_ratio {chi_ratio} is not a grid column")
        _require(thetas[0] < theta < thetas[-1], f"{where}: theta_cr {theta} outside the axis")
        below = bisect.bisect_right(thetas, theta) - 1
        lo, hi = ordered[below][j], ordered[below + 1][j]
        _require(lo != hi, f"{where}: theta_cr {theta} is not between opposite-class cells")
        kind = "onset" if hi else "vanishing"
        _require(row["kind"] == kind, f"{where}: kind {row['kind']!r}, cells say {kind}")
        _require(row["variant"] == "proposed", f"{where}: variant {row['variant']!r}")
    cells = nx * ny
    return {
        "ordered_fraction": sum(map(sum, ordered)) / cells,
        "boundary_roots": len(boundary),
    }


def check_critical(inv: Invocation, outdir: Path, rng: random.Random) -> dict:
    ratio = inv.params["ratio"]
    rows = read_table(outdir / inv.outputs[0], "json", CRITICAL_COLUMNS)
    found = {variant: [] for variant in ("proposed", "traditional")}
    for index, row in enumerate(rows):
        where = f"critical row {index}"
        numeric = CRITICAL_COLUMNS[:1] + CRITICAL_COLUMNS[2:5]
        theta, *columns = _finite(row, numeric, "critical row", index)
        _require(row["variant"] in found, f"{where}: variant {row['variant']!r}")
        _require(row["kind"] in ("onset", "vanishing"), f"{where}: kind {row['kind']!r}")
        references = couplings(ratio, theta, row["variant"])
        for name, value, ref in zip(CRITICAL_COLUMNS[2:5], columns, references):
            _close(value, ref, f"{where} {name}")
        # The measure must change sign across the root, the way its kind says.
        before = measure(ratio, theta * (1.0 - 1e-7), row["variant"])
        after = measure(ratio, theta * (1.0 + 1e-7), row["variant"])
        sign = (before <= 0.0 < after) if row["kind"] == "onset" else (after <= 0.0 < before)
        _require(sign, f"{where}: measure {before} -> {after} across a {row['kind']} root")
        found[row["variant"]].append(theta)
    for variant, roots in found.items():
        _require(roots == sorted(roots), f"critical: {variant} roots not ascending")
    closed_form = traditional_theta_cr(ratio)
    if closed_form is None:
        _require(not found["traditional"], "critical: traditional roots where none exist")
    else:
        roots = found["traditional"]
        _require(len(roots) == 1, f"critical: traditional roots {roots}")
        _close(found["traditional"][0], closed_form, "traditional root vs closed form")
    return {"roots_found": len(found["proposed"])}


def check_exact(inv: Invocation, outdir: Path, rng: random.Random) -> dict:
    p = inv.params
    rows = read_table(outdir / inv.outputs[0], "json", COMPARE_COLUMNS)
    _require(len(rows) == len(p["sizes"]), f"exact: {len(rows)} rows")
    _require(measure(p["ratio"], p["theta"], "proposed") > 0.0, "exact: not in the ordered phase")
    ref = thermo_reference(p["ratio"], p["theta"], "proposed")["rz_eq10"]
    for row, size in zip(rows, p["sizes"]):
        where = f"exact N={size}"
        n_atoms, rz_exact, rz_meanfield, deviation = _finite(
            row, COMPARE_COLUMNS[:4], "exact N", size
        )
        _require(n_atoms == size, f"{where}: n_atoms {n_atoms}")
        _require(row["variant"] == "proposed", f"{where}: variant {row['variant']!r}")
        _close(rz_meanfield, ref, f"{where} rz_meanfield")
        _close(deviation, abs(rz_exact - rz_meanfield), f"{where} deviation")
    deviation = float(rows[-1]["deviation"])
    _require(
        deviation <= EXACT_MAX_DEVIATION,
        f"exact: deviation {deviation} at N={p['sizes'][-1]} exceeds {EXACT_MAX_DEVIATION}",
    )
    return {"max_deviation": deviation}


def check_micro(inv: Invocation, outdir: Path, rng: random.Random) -> dict:
    p = inv.params
    rows = read_table(outdir / inv.outputs[0], "json", MICRO_COLUMNS)
    _require(len(rows) == 1, f"micro: {len(rows)} rows")
    amplitude_out, chi, gamma, chi_over_gamma = _finite(rows[0], MICRO_COLUMNS, "micro row")
    omega_k, gamma_cav = p["omega_k"], p["gamma_cav"]
    total = sum(
        p1 * p2 * (wa1 - w2a) / ((w2a - omega_k) * (wa1 - omega_k))
        for p1, p2, wa1, w2a in p["levels"]
    )
    amplitude = total * total
    delta = 2.0 * omega_k - 1.0
    denom = delta * delta + 4.0 * gamma_cav * gamma_cav
    _close(amplitude_out, amplitude, "micro amplitude")
    _close(chi, amplitude * delta / denom, "micro chi")
    _close(gamma, amplitude * 2.0 * gamma_cav / denom, "micro gamma")
    _close(chi_over_gamma, delta / (2.0 * gamma_cav), "micro chi_over_gamma")
    return {}


CHECKS = {
    "sweep": check_sweep,
    "phase": check_phase,
    "critical": check_critical,
    "exact": check_exact,
    "micro": check_micro,
}


def check(inv: Invocation, outdir: Path, rng: random.Random) -> dict:
    """Check an invocation's outputs; raises CheckError, returns its work record."""
    return CHECKS[inv.kind](inv, outdir, rng)
