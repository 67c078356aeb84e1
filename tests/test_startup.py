"""Start-up contract: a cheap ``import quasispin``, the CLI entry's BLAS cap, and a
CLI front end that loads numpy and the physics only for the subcommand it runs.

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


def cli_loads(argv, also=()):
    """Exit code of ``main(argv)`` in a fresh interpreter, and which of numpy, the
    quasispin submodules and the modules named in ``also`` are loaded when it returns."""
    code = (
        "import contextlib, io, sys\n"
        "from quasispin.cli import main\n"
        "quiet = io.StringIO()\n"
        "with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):\n"
        "    code = main(sys.argv[1:])\n"
        f"watched = {('numpy', *also)!r}\n"
        "print(code, *sorted(m for m in sys.modules if m in watched or m.startswith('quasispin.')))"
    )
    code, *loaded = run_python(["-c", code, *argv]).decode().split()
    return int(code), loaded


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
        assert loaded == ["quasispin", "quasispin.base", "quasispin.thermal"]

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


SUBCOMMANDS = ("sweep", "critical", "phase", "fig1", "fig2", "exact-compare", "micro")


class TestCliFrontEnd:
    """Parsing, help, the config merge and every usage check run without numpy."""

    FRONT_END = ["quasispin.base", "quasispin.cli"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--version"],
            ["--help"],
            *([name, "--help"] for name in SUBCOMMANDS),
            ["sweep", "--chi-ratio", "nan"],  # an argparse error
            ["exact-compare", "--chi-ratio", "0.6"],  # a missing required flag
            ["critical", "--chi-ratio", "0.6", "--points", "10"],
            ["fig2", "--chi-ratio", "1.5"],
            ["phase", "--variant", "both"],
            ["sweep", "--chi-ratio", "0.6", "--theta-min", "5"],  # above the default --theta-max
        ],
    )
    def test_exits_before_numpy_loads(self, argv):
        code = 0 if {"--help", "--version"} & set(argv) else 2
        assert cli_loads(argv) == (code, self.FRONT_END)

    def test_a_bad_config_key_exits_before_numpy_loads(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("bogus = 1\n", encoding="utf-8")
        assert cli_loads(["sweep", "--chi-ratio", "0.6", "--config", str(config)]) == (
            2, self.FRONT_END
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--chi-ratio", "0.6", "--points", "3"],
            ["critical", "--chi-ratio", "0.45", "--points", "64"],
            ["phase", "--nx", "3", "--ny", "3"],
            ["fig1", "--ratios", "0.6", "--points", "3"],
            ["fig2", "--chi-ratio", "0.6", "--points", "3"],
        ],
    )
    def test_a_run_without_the_ladder_never_loads_it(self, argv):
        code, loaded = cli_loads(argv)
        assert code == 0
        assert "numpy" in loaded and "quasispin.sweep" in loaded
        assert "quasispin.exact" not in loaded

    def test_exact_compare_loads_the_ladder(self):
        argv = ["exact-compare", "--chi-ratio", "0.6", "--theta", "0.1", "--n-list", "8"]
        physics = [f"quasispin.{name}" for name in ("exact", "meanfield", "sweep", "thermal")]
        assert cli_loads(argv) == (0, ["numpy", *self.FRONT_END, *physics])

    @pytest.mark.parametrize(
        "argv, loads_json",
        [
            (["phase", "--nx", "3", "--ny", "3"], False),
            (["sweep", "--chi-ratio", "0.6", "--points", "3", "--format", "csv"], False),
            (["sweep", "--chi-ratio", "0.6", "--points", "3", "--format", "json"], True),
        ],
    )
    def test_only_json_output_loads_json(self, argv, loads_json):
        code, loaded = cli_loads(argv, also=("json",))
        assert code == 0 and "numpy" in loaded
        assert ("json" in loaded) is loads_json
