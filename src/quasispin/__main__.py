"""Process entry of the ``quasispin`` CLI: ``python -m quasispin`` and the console script.

The package makes no BLAS call, but ``import numpy`` starts an OpenBLAS
worker thread whose idle spin costs every short CLI process CPU time. The
entry caps that pool at one thread before numpy loads; a value already set
in the environment is kept. Importing the library leaves the setting alone.

At exit the interpreter garbage-collects its whole heap, which after numpy
has loaded is some 22 000 tracked objects: about 20 ms of every process,
whatever it computed. The entry registers ``gc.freeze`` with atexit, so the
collections of finalization skip that heap. atexit runs before them, and the
freeze is registered when this module loads, so the console script (which
calls ``main`` and never reaches the ``__main__`` block), ``--version``,
usage errors and tracebacks all exit through it. Finalization still runs:
the other atexit handlers, the flush of the std streams and the exit code of
a failed final flush are unchanged. Only reference cycles that are still alive
at exit go unfinalized, and nothing relies on them: ``main`` hands every
output to its file or to the stdout descriptor, and closes the files,
before it returns. ``os._exit`` after a flush would end
the process sooner still, but it skips atexit and the Python-level flushes.
The freeze lives here and nowhere else: a library caller, such as a program
that calls ``quasispin.cli.main``, keeps its garbage collector.
"""

import atexit
import gc
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
atexit.register(gc.freeze)

from .cli import main  # noqa: E402  (numpy loads here, after the cap)

if __name__ == "__main__":
    raise SystemExit(main())
