"""Process entry of the ``quasispin`` CLI: ``python -m quasispin`` and the console script.

The package makes no BLAS call, but ``import numpy`` starts an OpenBLAS
worker thread whose idle spin costs every short CLI process CPU time. The
entry caps that pool at one thread before numpy loads; a value already set
in the environment is kept. Importing the library leaves the setting alone.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402  (numpy loads here, after the cap)

if __name__ == "__main__":
    raise SystemExit(main())
