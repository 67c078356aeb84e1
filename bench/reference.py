"""Fixed reference program that measures the host's current speed.

    python3 bench/reference.py

It shares no code with the package: a fresh interpreter imports numpy, runs a
fixed mix of scalar float math, small array operations and float formatting,
and exits. Its work never changes, so any change in its time is the host's.
run.py runs it between batches, through the same launcher as the CLI, and
divides the workload's timings by its median time (see README.md,
"Steadiness"). Nothing is written; the checksum printed lets a caller see
that the work ran.
"""

import math

import numpy as np

SCALAR_STEPS = 150_000
ARRAY_SIZE = 4_096
ARRAY_ROUNDS = 300
FORMAT_ROWS = 20_000


def scalar_part() -> float:
    # The shape of a scalar gap solve: tanh, exp and a few divisions per step.
    total = 0.0
    x = 0.5
    for i in range(SCALAR_STEPS):
        t = math.tanh(x / (0.1 + (i % 97) * 1e-3))
        x = 0.5 + 0.25 * t - 1e-3 * math.expm1(-t * t)
        total += x
    return total


def array_part() -> float:
    grid = np.linspace(0.01, 1.0, ARRAY_SIZE)
    total = 0.0
    for k in range(ARRAY_ROUNDS):
        nbar = 1.0 / np.expm1(0.5 / (grid + k * 1e-4))
        total += float(np.sum(np.tanh(nbar / (2.0 * grid)) > 0.5))
    return total


def format_part() -> int:
    rows = [f"{i * 1e-3:.9g},{math.sqrt(i + 1.0):.9g},{-i / 7.0:.9g},ordered" for i in range(FORMAT_ROWS)]
    return len("\n".join(rows))


def main() -> None:
    print(f"{scalar_part():.6f} {array_part():.1f} {format_part()}")


if __name__ == "__main__":
    main()
