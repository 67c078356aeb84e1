"""Per-layer metrics from the spans one traced invocation wrote.

A span's layer is the first part of its name (``thermal``, ``meanfield``,
``exact``, ``sweep``, ``cli``). Its self time is its duration minus the time
its child spans cover. A layer's ``calls`` count the spans entered from
another layer (or from outside the package). Groups name the parts of a layer
that planned changes target; a group's self time sums its spans' self times.
"""

from __future__ import annotations

import array
import json
from pathlib import Path

from traced_cli import ARRAYS, LAYERS

# Spans whose self time makes up each group.
GROUPS = {
    "meanfield.gap_solve": (
        "meanfield.gap_solve", "meanfield.free_energy_per_atom",
        "meanfield.zero_temperature_solution",
    ),
    "meanfield.scan": (
        "meanfield.critical_temperatures", "meanfield._sign_change_roots",
        "meanfield.ordering_measure", "meanfield.is_ordered",
    ),
    "sweep.phase_map": ("sweep.phase_map",),
    "sweep.serialize": ("sweep.serialize",),
}
# Every other sweep span is record assembly: thermo_point, temperature_sweep,
# the *_records functions, the figure series and the .record() methods.
ASSEMBLY_EXCLUDES = frozenset(GROUPS["sweep.phase_map"] + GROUPS["sweep.serialize"])

# Sums that repeat exactly between runs of the same seed: counts, bytes and
# the worst residual. Everything else is a time.
COUNTS = (
    "thermal.calls", "meanfield.calls", "exact.calls", "sweep.calls", "cli.calls",
    "meanfield.gap_solve.calls", "meanfield.ordering_measure.calls",
    "meanfield.roots_found", "meanfield.max_residual",
    "sweep.serialize.bytes", "exact.gibbs_observables.calls", "exact.bytes_computed",
    "cli.bytes_written", "trace.spans",
)

# name -> unit, in print order; everything a traced run reports.
PER_LAYER = {
    "process.start_s": "s",
    "process.import_s": "s",
    "cli.self_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "thermal.self_s": "s",
    "thermal.calls": "count",
    "meanfield.self_s": "s",
    "meanfield.gap_solve.self_s": "s",
    "meanfield.gap_solve.calls": "count",
    "meanfield.gap_solve.us_per_call": "us",
    "meanfield.max_residual": "1",
    "meanfield.scan.self_s": "s",
    "meanfield.ordering_measure.calls": "count",
    "meanfield.evals_per_root": "count",
    "meanfield.roots_found": "count",
    "sweep.self_s": "s",
    "sweep.assembly.self_s": "s",
    "sweep.phase_map.self_s": "s",
    "sweep.serialize.self_s": "s",
    "sweep.serialize.bytes": "bytes",
    "sweep.serialize.mb_per_s": "MB/s",
    "exact.self_s": "s",
    "exact.gibbs_observables.calls": "count",
    "exact.bytes_computed": "bytes",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def read_spans(prefix: Path) -> tuple[dict, dict]:
    """Header and span arrays written by traced_cli.py."""
    header = json.loads(prefix.with_suffix(".json").read_text(encoding="utf-8"))
    arrays = {}
    with open(prefix.with_suffix(".bin"), "rb") as handle:
        for key, code in ARRAYS:
            arrays[key] = array.array(code)
            arrays[key].fromfile(handle, header["spans"])
    return header, arrays


def invocation_sums(prefix: Path) -> dict:
    """Additive per-layer sums for one traced invocation."""
    header, spans = read_spans(prefix)
    names = header["names"]
    name_of = [names[i] for i in spans["name"]]
    layer_of = [name.split(".", 1)[0] for name in name_of]
    parents, values = spans["parent"], spans["value"]
    durations = [end - start for start, end in zip(spans["start"], spans["end"])]
    covered = [0.0] * len(durations)
    for parent, duration in zip(parents, durations):
        if parent >= 0:
            covered[parent] += duration
    sums = dict.fromkeys(COUNTS, 0)
    sums.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    sums.update({f"{group}.self_s": 0.0 for group in GROUPS})
    sums["sweep.assembly.self_s"] = 0.0
    sums["cli.write_s"] = 0.0
    sums["trace.spans"] = len(durations)
    group_of = {name: group for group, members in GROUPS.items() for name in members}
    for index, name in enumerate(name_of):
        layer = layer_of[index]
        self_time = durations[index] - covered[index]
        sums[f"{layer}.self_s"] += self_time
        parent = parents[index]
        if parent < 0 or layer_of[parent] != layer:
            sums[f"{layer}.calls"] += 1
        group = group_of.get(name)
        if group is not None:
            sums[f"{group}.self_s"] += self_time
        elif layer == "sweep":
            sums["sweep.assembly.self_s"] += self_time
        value = values[index]
        if name == "meanfield.gap_solve":
            sums["meanfield.gap_solve.calls"] += 1
            sums["meanfield.max_residual"] = max(sums["meanfield.max_residual"], value)
        elif name == "meanfield.ordering_measure":
            sums["meanfield.ordering_measure.calls"] += 1
        elif name == "meanfield._sign_change_roots":
            sums["meanfield.roots_found"] += int(value)
        elif name == "sweep.serialize":
            sums["sweep.serialize.bytes"] += int(value)
        elif name == "exact.gibbs_observables":
            sums["exact.gibbs_observables.calls"] += 1
            sums["exact.bytes_computed"] += int(value)
        elif name == "exact.dicke_spectrum":
            sums["exact.bytes_computed"] += int(value)
        elif name == "cli.write":
            sums["cli.write_s"] += durations[index]
            sums["cli.bytes_written"] += int(value)
    sums["process.start_s"] = header["t_boot"] - header["t_spawn"]
    sums["process.import_s"] = header["t_imported"] - header["t_boot"]
    return sums


def add(total: dict, sums: dict) -> dict:
    """Sum over the invocations of a batch; the residual takes the maximum."""
    out = dict(total)
    for key, value in sums.items():
        if key == "meanfield.max_residual":
            out[key] = max(out.get(key, 0.0), value)
        else:
            out[key] = out.get(key, 0) + value
    return out


def derive(sums: dict) -> dict:
    """Ratios computed from a batch's sums."""
    out = dict(sums)
    calls = sums["meanfield.gap_solve.calls"]
    out["meanfield.gap_solve.us_per_call"] = (
        1e6 * sums["meanfield.gap_solve.self_s"] / calls if calls else 0.0
    )
    roots = sums["meanfield.roots_found"]
    out["meanfield.evals_per_root"] = (
        sums["meanfield.ordering_measure.calls"] / roots if roots else 0.0
    )
    seconds = sums["sweep.serialize.self_s"]
    out["sweep.serialize.mb_per_s"] = (
        sums["sweep.serialize.bytes"] / 1e6 / seconds if seconds > 0.0 else 0.0
    )
    return out
