"""Spawn and time child processes on behalf of run.py, one at a time.

    python3 bench/launcher.py

Reads one JSON request per line on stdin,
``{"cmd": [...], "stdout": PATH, "stderr": PATH, "timeout": SECONDS}``, runs
the command to completion and answers with one JSON line,
``{"wall": s, "cpu": s, "rss_mb": MiB, "code": int}``. An argument equal to
``{t_spawn}`` is replaced by ``time.monotonic()`` taken just before the spawn.

Why a separate process: on Linux a child's ``ru_maxrss`` includes the peak
RSS of the address space it was exec'd from, so children spawned by the
benchmark itself, which holds parsed outputs, would report the benchmark's
memory. This process stays small, so the peak it reports is the child's own.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request):
    cmd = [repr(time.monotonic()) if arg == "{t_spawn}" else arg for arg in request["cmd"]]
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "code": proc.returncode,
    }


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
