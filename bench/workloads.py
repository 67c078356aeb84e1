"""Seeded workload generator: the CLI invocations each workload runs.

A workload is a stream of batches. A batch is what one closed-loop sample
measures: a single invocation for the sweeps and the phase map, one pass over
the invocation list for ``scan-batch``. Every parameter is drawn from a
``random.Random`` seeded by the workload name and ``--seed``, so the same seed
gives the same invocations; the program sees only the CLI arguments.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("sweep-csv", "sweep-json", "phase-map", "scan-batch")

# Coupling ratio chi/omega21 at which the reentrant window of the proposed
# variant opens (omega_k = omega21/2): the maximum over theta of the ordering
# measure touches zero there. Solved to 40 digits with mpmath; the window
# width grows like sqrt(ratio - R_STAR).
R_STAR = 0.4403426148559534

# Sizes are chosen so one invocation costs about one second at the commit
# that added this benchmark: long enough that solver and serializer work
# outweighs interpreter start, short enough that a run holds many samples.
SWEEP_CSV_POINTS = 12_000
SWEEP_JSON_POINTS = 6_000
PHASE_CELLS = 256
SCAN_DEFAULT_POINTS = 512  # the CLI's default `critical --points`
SCAN_FINE_POINTS = 20_000
SCAN_DECADES = range(3, 10)  # ratios R_STAR + u * 10**-k, k = 3..9
EXACT_SIZES = (1_000, 10_000, 100_000, 1_000_000)
MICRO_LEVELS = 2

VARIANTS = ("proposed", "traditional")


@dataclass(frozen=True)
class Invocation:
    """One CLI call and what its output checks need to know.

    ``argv`` holds ``{out}`` where the output directory goes, so the same
    invocation can run untraced and traced into different directories.
    """

    kind: str  # sweep | phase | critical | exact | micro
    argv: tuple[str, ...]
    outputs: tuple[str, ...]  # file names under the output directory
    points: int  # grid points solved, summed over variants
    params: dict  # what the checks need: ratio, grid, ...
    label: str  # groups invocations for the work record

    def command(self, outdir: str) -> list[str]:
        return [arg.format(out=outdir) for arg in self.argv]


def traditional_theta_cr(ratio: float) -> float | None:
    """Closed-form constant-coupling transition, or None when there is none."""
    lam, varpi = ratio, abs(1.0 - ratio)
    if varpi >= lam:
        return None
    return 0.5 * lam if varpi == 0.0 else varpi / (2.0 * math.atanh(varpi / lam))


def _num(value: float) -> str:
    # repr round-trips, so the program parses exactly the float the checks use.
    return repr(float(value))


def _sweep(rng: random.Random, fmt: str, points: int) -> Invocation:
    # Ratios in [0.55, 0.8] cost about the same per point and leave 40-64 %
    # of the rows ordered; the grid spans 3x the traditional transition, as
    # the CLI default does.
    ratio = round(rng.uniform(0.55, 0.8), 6)
    theta_max = round(3.0 * traditional_theta_cr(ratio), 6)
    name = f"sweep.{fmt}"
    argv = (
        "sweep", "--chi-ratio", _num(ratio), "--variant", "both",
        "--theta-min", "0", "--theta-max", _num(theta_max),
        "--points", str(points), "--format", fmt, "--out", "{out}/" + name,
    )
    params = {"ratio": ratio, "theta_max": theta_max, "points": points, "format": fmt}
    return Invocation("sweep", argv, (name,), points * len(VARIANTS), params, "sweep")


def _phase(rng: random.Random) -> Invocation:
    # The default axes, each end nudged inwards by the seed, so the boundary
    # roots and the cell values differ from seed to seed.
    chi_min = round(0.05 + rng.uniform(0.0, 0.02), 6)
    chi_max = round(0.95 - rng.uniform(0.0, 0.02), 6)
    theta_min = round(0.01 + rng.uniform(0.0, 0.005), 6)
    theta_max = round(1.0 - rng.uniform(0.0, 0.02), 6)
    n = PHASE_CELLS
    argv = (
        "phase", "--variant", "proposed", "--nx", str(n), "--ny", str(n),
        "--chi-min", _num(chi_min), "--chi-max", _num(chi_max),
        "--theta-min", _num(theta_min), "--theta-max", _num(theta_max),
        "--out", "{out}/phase.csv", "--boundary-out", "{out}/boundary.csv",
    )
    params = {
        "nx": n, "ny": n, "chi": (chi_min, chi_max), "theta": (theta_min, theta_max),
    }
    return Invocation("phase", argv, ("phase.csv", "boundary.csv"), n * n, params, "phase")


def _critical(ratio: float, points: int | None, label: str) -> Invocation:
    name = f"critical-{label}-{points or 'default'}.json"
    argv = ["critical", "--chi-ratio", _num(ratio), "--variant", "both"]
    if points is not None:
        argv += ["--points", str(points)]
    argv += ["--out", "{out}/" + name]
    grid = points or SCAN_DEFAULT_POINTS
    params = {"ratio": ratio, "points": grid}
    return Invocation(
        "critical", tuple(argv), (name,), grid * len(VARIANTS), params,
        f"{label}@{'default' if points is None else points}",
    )


def _exact(rng: random.Random) -> Invocation:
    # Deep in the ordered phase for every drawn pair, where the ladder must
    # converge to the mean field.
    ratio = round(rng.uniform(0.55, 0.8), 6)
    theta = round(rng.uniform(0.04, 0.1), 6)
    sizes = ",".join(str(n) for n in EXACT_SIZES)
    argv = (
        "exact-compare", "--chi-ratio", _num(ratio), "--theta", _num(theta),
        "--variant", "proposed", "--n-list", sizes, "--out", "{out}/exact.json",
    )
    params = {"ratio": ratio, "theta": theta, "sizes": EXACT_SIZES}
    return Invocation("exact", argv, ("exact.json",), 0, params, "exact")


def _micro(rng: random.Random) -> Invocation:
    # Level energies stay far from the mode energy, so no level is resonant.
    omega_k = round(rng.uniform(0.55, 0.7), 6)
    gamma_cav = round(rng.uniform(0.05, 0.2), 6)
    levels = [
        (
            round(rng.uniform(0.5, 1.5), 6),
            round(rng.uniform(0.5, 1.5), 6),
            round(rng.uniform(1.5, 2.5), 6),
            round(rng.uniform(0.1, 0.3), 6),
        )
        for _ in range(MICRO_LEVELS)
    ]
    argv = ["micro", "--gamma-cav", _num(gamma_cav), "--omega-k", _num(omega_k)]
    for level in levels:
        argv += ["--level", ",".join(_num(x) for x in level)]
    argv += ["--out", "{out}/micro.json"]
    params = {"omega_k": omega_k, "gamma_cav": gamma_cav, "levels": levels}
    return Invocation("micro", tuple(argv), ("micro.json",), 0, params, "micro")


def _scan_batch(rng: random.Random) -> list[Invocation]:
    batch = []
    for k in SCAN_DECADES:
        ratio = R_STAR + rng.uniform(1.0, 3.0) * 10.0 ** -k
        for points in (None, SCAN_FINE_POINTS):
            batch.append(_critical(ratio, points, f"k{k}"))
    ratio = round(rng.uniform(0.55, 0.9), 6)
    for points in (None, SCAN_FINE_POINTS):
        batch.append(_critical(ratio, points, "ordinary"))
    batch.append(_exact(rng))
    batch.append(_micro(rng))
    return batch


def batches(workload: str, seed: int):
    """Endless stream of batches for ``workload``; the same seed, the same stream."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    while True:
        if workload == "sweep-csv":
            yield [_sweep(rng, "csv", SWEEP_CSV_POINTS)]
        elif workload == "sweep-json":
            yield [_sweep(rng, "json", SWEEP_JSON_POINTS)]
        elif workload == "phase-map":
            yield [_phase(rng)]
        else:
            yield _scan_batch(rng)
