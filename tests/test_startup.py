"""Start-up contract: a cheap ``import quasispin`` and the CLI entry's BLAS cap.

Every check runs in a fresh interpreter: what it tests (``sys.modules``, the
environment, the threads of the process) is fixed by what that process
imported first.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import quasispin

SRC = Path(quasispin.__file__).resolve().parents[1]
SWEEP = ["sweep", "--chi-ratio", "0.6", "--variant", "both", "--points", "64", "--precision", "17"]


def run_python(args, openblas=None):
    """stdout bytes of ``python ARGS`` on this checkout, with OPENBLAS_NUM_THREADS unset or set."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if openblas is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stderr == b""
    return done.stdout


def run_code(code, openblas=None):
    return run_python(["-c", code], openblas).decode().split()


class TestLazyPackage:
    def test_import_loads_no_submodule_and_no_numpy(self):
        loaded = run_code(
            "import sys, quasispin\n"
            "print(quasispin.__version__)\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0] in ('quasispin', 'numpy')))"
        )
        assert loaded == ["0.1.0", "quasispin"]

    def test_a_name_loads_only_its_submodule(self):
        loaded = run_code(
            "import sys, quasispin\n"
            "quasispin.couplings_at\n"
            "print(*sorted(m for m in sys.modules if m.startswith('quasispin')))"
        )
        assert loaded == ["quasispin", "quasispin.thermal"]

    def test_every_public_name_resolves(self):
        out = run_code(
            "import importlib, quasispin\n"
            "names = quasispin.__all__\n"
            "assert len(set(names)) == len(names)\n"
            "assert set(names) <= set(dir(quasispin)), set(names) - set(dir(quasispin))\n"
            "for name in names[1:]:\n"
            "    home = importlib.import_module('quasispin.' + quasispin._EXPORTS[name])\n"
            "    assert getattr(quasispin, name) is getattr(home, name), name\n"
            "star = {}\n"
            "exec('from quasispin import *', star)\n"
            "assert set(names) <= set(star), set(names) - set(star)\n"
            "try:\n"
            "    quasispin.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(len(names), exc.name)\n"
        )
        assert out == [str(len(quasispin.__all__)), "no_such_name"]
        assert quasispin.__all__[0] == "__version__"


class TestCliEntry:
    @pytest.mark.skipif(
        not Path("/proc/self/task").is_dir(), reason="counts threads through Linux procfs"
    )
    def test_entry_caps_the_blas_pool_before_numpy_loads(self):
        out = run_code(
            "import os, quasispin.__main__, numpy\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))"
        )
        assert out == ["1", "1"]

    def test_a_preset_value_is_kept(self):
        out = run_code(
            "import os, quasispin.__main__; print(os.environ['OPENBLAS_NUM_THREADS'])", "2"
        )
        assert out == ["2"]

    def test_library_import_leaves_the_setting_alone(self):
        out = run_code("import os, quasispin.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))")
        assert out == ["None"]

    def test_output_bytes_do_not_depend_on_the_cap(self):
        capped = run_python(["-m", "quasispin", *SWEEP])
        assert capped.count(b"\n") == 129
        assert run_python(["-m", "quasispin", *SWEEP], openblas="2") == capped

    def test_version(self):
        out = run_python(["-m", "quasispin", "--version"])
        assert out == f"quasispin {quasispin.__version__}\n".encode() == b"quasispin 0.1.0\n"
