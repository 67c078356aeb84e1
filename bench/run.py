#!/usr/bin/env python3
"""quasispin benchmark: whole-CLI runs of one workload, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the CLI from this checkout's ``src/`` (``python -m quasispin`` with
``PYTHONPATH=src``), one process at a time with the default ``--threads``,
for ``S`` seconds, and checks every output. ``--trace 0`` reports the
end-to-end metrics, with every timing scaled by a fixed reference program
(``reference.py``) run next to it, so that the host's speed drift cancels;
``--trace 1`` repeats the seed's first batch untraced and
traced (``traced_cli.py``) and reports the per-layer metrics. The last line of
standard output is the result as JSON; the lines before it give the
environment, the work done, and every metric by name with its unit. See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import layers
from workloads import WORKLOADS, Invocation, batches

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

END_TO_END = {
    "wall_s": "s",
    "points_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP_SAMPLES = 9
# reference.py's typical wall time on the host that defined the benchmark (a
# shared 2-vCPU Xeon VM, where it ranged from 0.19 to 0.29 s as the host's
# speed drifted); timings are reported as if the host ran at that speed.
REFERENCE_NOMINAL_S = 0.25
REFERENCE_EVERY_S = 1.0
MIN_BATCHES = 3
CHILD_TIMEOUT_S = 120.0


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    code: int


class Runner:
    """Runs CLI processes one at a time through launcher.py; keeps the operation counts."""

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.launcher = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait(timeout=CHILD_TIMEOUT_S)

    def fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED: {message}", file=sys.stderr)

    def spawn(self, cmd: list[str], stdout: Path) -> Sample:
        err = self.workdir / "stderr.txt"
        request = {
            "cmd": cmd, "stdout": str(stdout), "stderr": str(err), "timeout": CHILD_TIMEOUT_S,
        }
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("launcher.py exited")
        sample = Sample(**json.loads(reply))
        if sample.code != 0:
            detail = err.read_text(encoding="utf-8", errors="replace").strip()[-400:]
            self.fail(f"exit {sample.code}: {' '.join(cmd[1:])}: {detail}")
        return sample

    def version(self) -> Sample:
        out = self.workdir / "version.txt"
        sample = self.spawn([sys.executable, "-m", "quasispin", "--version"], out)
        if sample.code == 0 and not out.read_text(encoding="utf-8").startswith("quasispin "):
            self.fail(f"--version printed {out.read_text(encoding='utf-8')!r}")
        return sample

    def reference(self) -> Sample:
        """One run of reference.py, the fixed program that gauges the host's speed."""
        return self.spawn([sys.executable, str(BENCH / "reference.py")], self.workdir / "reference.txt")

    def invoke(self, inv: Invocation, outdir: Path, spans: Path | None = None) -> Sample:
        """One CLI invocation; traced through traced_cli.py when ``spans`` is given."""
        outdir.mkdir(parents=True, exist_ok=True)
        for name in inv.outputs:
            (outdir / name).unlink(missing_ok=True)
        args = inv.command(str(outdir))
        if spans is None:
            cmd = [sys.executable, "-m", "quasispin", *args]
        else:
            tracer = str(BENCH / "traced_cli.py")
            cmd = [sys.executable, tracer, str(spans), "{t_spawn}", "--", *args]
        self.attempted += 1
        return self.spawn(cmd, outdir / "stdout.txt")

    def check(self, inv: Invocation, outdir: Path) -> dict | None:
        """Apply the output checks; a failure counts against the operation."""
        rng = random.Random(f"check:{self.seed}:{self.checked}")
        self.checked += 1
        try:
            return checks.check(inv, outdir, rng)
        except checks.CheckError as exc:
            self.fail(f"{inv.kind} {' '.join(inv.argv[1:])}: {exc}")
            return None


def environment(args) -> dict:
    commit = "unknown"  # a benchmark checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "quasispin").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def work_record(records: list[tuple[Invocation, dict]]) -> dict:
    """Summary of the work the checks saw, for comparing seeds."""
    work: dict = {}
    fractions = [r["ordered_fraction"] for _, r in records if "ordered_fraction" in r]
    if fractions:
        work["ordered_fraction"] = {
            "min": min(fractions), "median": statistics.median(fractions),
            "max": max(fractions), "n": len(fractions),
        }
    roots: dict[str, list[int]] = {}
    for inv, r in records:
        if "roots_found" in r:
            roots.setdefault(inv.label, []).append(r["roots_found"])
        if "boundary_roots" in r:
            roots.setdefault("boundary", []).append(r["boundary_roots"])
    if roots:
        work["roots_found"] = roots
    deviations = [r["max_deviation"] for _, r in records if "max_deviation" in r]
    if deviations:
        work["exact_deviation_max"] = max(deviations)
    return work


def measure(runner: Runner, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """End-to-end metrics of one run, in host-normalized seconds.

    reference.py, a fixed program, runs at the start, after any timed call
    that ends at least REFERENCE_EVERY_S after the last reference run, and at
    the end. Each timed call is divided by the mean of the reference runs
    just before and just after it, and multiplied by REFERENCE_NOMINAL_S:
    that takes out the host's speed at the time of the call (README.md,
    "Steadiness"). Each invocation is kept by its position in the batch (a
    sweep or a phase map has one position; a scan-batch pass has 18), so
    every position gets its own median over the run. The --version calls
    for setup_s are spread evenly over the run, between batches. No batch
    starts that would, at the run's median batch cost, end past ``seconds``.
    """
    runner.version()  # warm-up: fills the bytecode cache of a fresh checkout
    reference = [runner.reference()]
    last_reference = time.perf_counter()

    def timed(sample: Sample) -> tuple[Sample, int]:
        """The sample with the index of the reference run before it."""
        nonlocal last_reference
        index = len(reference) - 1
        if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
            reference.append(runner.reference())
            last_reference = time.perf_counter()
        return sample, index

    stream = batches(workload, seed)
    outdir = runner.workdir / "out"
    positions: list[list[tuple[Sample, int]]] = []
    setup: list[tuple[Sample, int]] = []
    cycles: list[float] = []  # wall time of each batch, checks included
    points = 0
    records = []
    start = time.perf_counter()
    while len(cycles) < MIN_BATCHES or (
        time.perf_counter() - start + statistics.median(cycles) < seconds
    ):
        elapsed = time.perf_counter() - start
        if len(setup) < SETUP_SAMPLES * min(1.0, elapsed / max(seconds, 1)):
            setup.append(timed(runner.version()))
            continue
        t0 = time.perf_counter()
        batch = next(stream)
        points = sum(inv.points for inv in batch)
        taken = []
        for inv in batch:
            sample = runner.invoke(inv, outdir)
            result = runner.check(inv, outdir) if sample.code == 0 else None
            if result is None:
                break
            records.append((inv, result))
            taken.append(timed(sample))
        else:
            positions = positions or [[] for _ in batch]
            for slot, entry in zip(positions, taken):
                slot.append(entry)
        cycles.append(time.perf_counter() - t0)
    while len(setup) < SETUP_SAMPLES:
        setup.append(timed(runner.version()))
    reference.append(runner.reference())  # closes the last bracket
    print(f"batches {len(cycles)}, measured {len(positions[0]) if positions else 0}, "
          f"setup samples {len(setup)}, reference samples {len(reference)}")
    if not positions:
        return {}, work_record(records)

    def median(entries: list[tuple[Sample, int]], field: str, normalize: bool = True) -> float:
        values = []
        for sample, index in entries:
            gauge = (getattr(reference[index], field) + getattr(reference[index + 1], field)) / 2
            values.append(getattr(sample, field) * (REFERENCE_NOMINAL_S / gauge if normalize else 1))
        return statistics.median(values)

    for label, normalize in (("raw", False), ("normalized", True)):
        wall = sum(median(slot, "wall", normalize) for slot in positions)
        cpu = sum(median(slot, "cpu", normalize) for slot in positions)
        setup_s = median(setup, "wall", normalize)
        print(f"{label:10s} wall {wall:.6g} s, cpu {cpu:.6g} s, setup {setup_s:.6g} s")
    reference_wall = statistics.median(sample.wall for sample in reference)
    print(f"reference  wall {reference_wall:.6g} s (median of {len(reference)})")
    metrics = {"wall_s": wall, "cpu_s": cpu, "setup_s": setup_s}
    metrics["points_per_s"] = points / wall
    metrics["peak_rss_mb"] = max(
        statistics.median(sample.rss_mb for sample, _ in slot) for slot in positions
    )
    return metrics, work_record(records)


def trace_batch(runner: Runner, batch: list[Invocation], order: tuple[str, str]):
    """Each invocation untraced and traced; (walls, per-layer sums, records) or None."""
    walls = dict.fromkeys(order, 0.0)
    sums: dict = {}
    records = []
    for index, inv in enumerate(batch):
        spans = runner.workdir / "spans" / str(index)
        spans.parent.mkdir(parents=True, exist_ok=True)
        dirs = {mode: runner.workdir / mode / str(index) for mode in order}
        for mode in order:
            sample = runner.invoke(inv, dirs[mode], spans if mode == "traced" else None)
            if sample.code != 0:
                return None
            walls[mode] += sample.wall
        result = runner.check(inv, dirs["plain"])
        if result is None:
            return None
        for name in inv.outputs:
            if (dirs["plain"] / name).read_bytes() != (dirs["traced"] / name).read_bytes():
                runner.fail(f"traced output {name} differs from untraced: {' '.join(inv.argv)}")
                return None
        records.append((inv, result))
        sums = layers.add(sums, layers.invocation_sums(spans))
    return walls, sums, records


def trace(runner: Runner, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """Per-layer metrics: the seed's first batch, untraced and traced in turn.

    Like ``measure``, no repetition starts that would end past ``seconds``.
    """
    runner.version()
    batch = next(batches(workload, seed))
    walls = {"plain": [], "traced": []}
    reps, records, cycles = [], [], []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start + statistics.median(cycles) < seconds:
        t0 = time.perf_counter()
        # Alternate which mode goes first, so host drift favours neither.
        order = ("plain", "traced") if len(reps) % 2 == 0 else ("traced", "plain")
        result = trace_batch(runner, batch, order)
        if result is None:
            return {}, work_record(records)
        rep_walls, sums, rep_records = result
        for mode, wall in rep_walls.items():
            walls[mode].append(wall)
        reps.append(sums)
        records += rep_records
        cycles.append(time.perf_counter() - t0)
    for key in layers.COUNTS:
        if any(rep[key] != reps[0][key] for rep in reps):
            runner.fail(f"count {key} differs between repetitions: {[rep[key] for rep in reps]}")
    merged = {
        key: reps[0][key] if key in layers.COUNTS else statistics.median(rep[key] for rep in reps)
        for key in reps[0]
    }
    metrics = layers.derive(merged)
    metrics["trace.overhead_s"] = statistics.median(walls["traced"]) - statistics.median(
        walls["plain"]
    )
    print(f"traced repetitions {len(reps)}")
    return {key: metrics[key] for key in layers.PER_LAYER}, work_record(records)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quasispin" / "__init__.py").is_file():
        print(f"error: no quasispin package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    print(f"env {json.dumps(environment(args), sort_keys=True)}")
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    runner = Runner(workdir, args.seed)
    try:
        if args.trace:
            values, work = trace(runner, args.workload, args.seed, args.seconds)
            units = layers.PER_LAYER
        else:
            values, work = measure(runner, args.workload, args.seed, args.seconds)
            units = END_TO_END
    finally:
        runner.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(f"work {json.dumps(work, sort_keys=True)}")

    metrics = {}
    for name, unit in units.items():
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name:34s} {values[name]:14.6g} {unit}")
    failed_frac = runner.failed / max(runner.attempted, 1)
    counts = f"{runner.failed} of {runner.attempted} operations"
    print(f"{'failed_frac':34s} {failed_frac:14.6g} 1      {counts}")
    result = {
        "correct": runner.failed == 0 and len(metrics) == len(units),
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
