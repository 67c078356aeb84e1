"""Start-up contract: a cheap ``import quasispin``, the CLI entry's BLAS cap and
exit-time GC freeze, a CLI front end that loads numpy and the physics only for
the subcommand it runs, and a CLI that fails cleanly on a closed or full stdout.

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


def child_env(openblas=None):
    """This environment for a child on this checkout, with OPENBLAS_NUM_THREADS unset or set."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if openblas is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas
    return env


def run_child(args, openblas=None):
    """Exit code, stdout and stderr bytes of ``python ARGS`` on this checkout."""
    env = child_env(openblas)
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def run_python(args, openblas=None):
    """stdout bytes of ``python ARGS`` on this checkout, which must exit 0 and print no error."""
    code, out, err = run_child(args, openblas)
    assert code == 0, err.decode()
    assert err == b""
    return out


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

    def test_exports_match_each_submodule_all(self):
        # Each submodule exports its own __all__; a name that it re-exports
        # from base is exported under base only.
        out = run_code(
            "import importlib, quasispin\n"
            "from quasispin import base\n"
            "for home in sorted(set(quasispin._EXPORTS.values())):\n"
            "    module = importlib.import_module('quasispin.' + home)\n"
            "    own = {name for name in module.__all__\n"
            "           if home == 'base' or getattr(module, name) is not getattr(base, name, None)}\n"
            "    exported = {name for name, where in quasispin._EXPORTS.items() if where == home}\n"
            "    print(home, sorted(own ^ exported))\n"
        )
        assert out == [
            "base", "[]", "exact", "[]", "levels", "[]", "meanfield", "[]", "output", "[]",
            "sweep", "[]", "thermal", "[]",
        ]


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


# Registered before the entry loads, so atexit (last in, first out) runs it
# after the entry's gc.freeze.
FREEZE_PROBE = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
)
RUN_MODULE = (
    "import runpy\nsys.argv[0] = 'quasispin'\nrunpy.run_module('quasispin', run_name='__main__')"
)
CONSOLE_SCRIPT = "from quasispin.__main__ import main\nsys.exit(main())"
LIBRARY = "import quasispin.cli\nsys.exit(quasispin.cli.main(sys.argv[1:]))"


class TestExitFreeze:
    """The process entry freezes the heap out of the exit-time collections; the library does not."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--version"], 0),
            (["sweep"], 2),  # a usage error: --chi-ratio is missing
            (["sweep", "--chi-ratio", "0.6", "--points", "3", "--out", "no/such/dir/x.csv"], 3),
        ],
    )
    def test_every_exit_of_the_module_entry_freezes(self, argv, code):
        returncode, out, err = run_child(["-c", FREEZE_PROBE + RUN_MODULE, *argv])
        assert returncode == code
        assert out.endswith(b"frozen True\n")
        assert (err == b"") is (code == 0)
        assert b"Traceback" not in err and err.count(b"\n") == (code != 0)

    def test_the_entries_freeze_and_the_library_does_not_with_the_same_bytes(self):
        data = run_python(["-m", "quasispin", *SWEEP])
        assert data.count(b"\n") == 129
        for code, frozen in ((CONSOLE_SCRIPT, True), (LIBRARY, False)):
            assert run_child(["-c", FREEZE_PROBE + code, *SWEEP]) == (
                0, data + f"frozen {frozen}\n".encode(), b""
            )


def _sweep(points):
    return ["sweep", "--chi-ratio", "0.6", "--points", points]


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "pipe, argv",
    [
        pytest.param("closed", _sweep("3"), id="closed-3"),  # within one pipe buffer
        pytest.param("closed", _sweep("4000"), id="closed-4000"),  # past one pipe buffer
        pytest.param("closed", _sweep("10000"), id="closed-10000"),  # three row blocks
        # Nobody reads the pipe until the child exits, so a write past its
        # buffer would block; the raw stream then returns None, not a count.
        pytest.param("full", _sweep("4000"), id="full-4000"),
        # the header block fits the pipe's buffer, and a row block after it fills it
        pytest.param("full", _sweep("10000"), id="full-10000"),
        # argparse prints help and version text itself and would drop the error
        pytest.param("closed", ["--version"], id="closed-version"),
        pytest.param("closed", ["sweep", "--help"], id="closed-sweep-help"),
    ],
)
def test_a_closed_or_full_stdout_is_a_domain_failure(pipe, argv, unbuffered):
    read_end, write_end = os.pipe()
    if pipe == "closed":
        os.close(read_end)
    else:
        os.set_blocking(write_end, False)
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:  # sys.stdout.buffer is then a raw FileIO, which may write short
        env["PYTHONUNBUFFERED"] = "1"
    try:
        done = subprocess.run(
            [sys.executable, "-m", "quasispin", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
        if pipe == "full":
            os.close(read_end)
    assert done.returncode == 3
    assert done.stderr.startswith(b"error: cannot write to stdout: ")
    assert done.stderr.count(b"\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_a_full_output_file_is_a_domain_failure():
    # The header block fits the file's buffer; the row block after it finds
    # the device full.
    code, out, err = run_child(["-m", "quasispin", *_sweep("10000"), "--out", "/dev/full"])
    assert (code, out) == (3, b"")
    assert err.startswith(b"error: cannot write output file /dev/full: ")
    assert err.count(b"\n") == 1


SUBCOMMANDS = ("sweep", "critical", "phase", "fig1", "fig2", "exact-compare", "micro")
# A small run of each subcommand that exits 0.
RUNS = {
    "sweep": ["sweep", "--chi-ratio", "0.6", "--points", "3"],
    "critical": ["critical", "--chi-ratio", "0.45", "--points", "64"],
    "phase": ["phase", "--nx", "3", "--ny", "3"],
    "fig1": ["fig1", "--ratios", "0.6", "--points", "3"],
    "fig2": ["fig2", "--chi-ratio", "0.6", "--points", "3"],
    "exact-compare": ["exact-compare", "--chi-ratio", "0.6", "--theta", "0.1", "--n-list", "8"],
    "micro": ["micro", "--level", "1,1,3,2", "--gamma-cav", "0.5"],
}


class TestCliFrontEnd:
    """Parsing, help, the config merge and every usage check run without numpy or dataclasses."""

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
            ["sweep", "--chi-ratio", "-1"],
        ],
    )
    def test_exits_before_numpy_loads(self, argv):
        # nor dataclasses, which imports inspect, ast and dis: a third of the front end's imports
        code = 0 if {"--help", "--version"} & set(argv) else 2
        assert cli_loads(argv, also=("dataclasses", "inspect")) == (code, self.FRONT_END)

    def test_a_bad_config_key_exits_before_numpy_loads(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("bogus = 1\n", encoding="utf-8")
        assert cli_loads(["sweep", "--chi-ratio", "0.6", "--config", str(config)]) == (
            2, self.FRONT_END
        )

    @pytest.mark.parametrize(
        "argv", [RUNS[name] for name in ("sweep", "critical", "phase", "fig1", "fig2")]
    )
    def test_a_run_without_the_ladder_never_loads_it(self, argv):
        code, loaded = cli_loads(argv)
        assert code == 0
        # critical writes the scan's table, and needs no sweep, figure or phase map
        assert "numpy" in loaded and ("quasispin.sweep" in loaded) is (argv[0] != "critical")
        assert "quasispin.exact" not in loaded

    def test_exact_compare_loads_the_ladder(self):
        physics = [f"quasispin.{name}" for name in ("exact", "meanfield", "output", "thermal")]
        assert cli_loads(RUNS["exact-compare"]) == (0, ["numpy", *self.FRONT_END, *physics])

    def test_critical_loads_only_the_scan(self):
        physics = [f"quasispin.{name}" for name in ("meanfield", "output", "thermal")]
        assert cli_loads(RUNS["critical"]) == (0, ["numpy", *self.FRONT_END, *physics])

    def test_micro_loads_no_numpy(self):
        # the level formulas and the serializer are plain Python
        pure = ["quasispin.levels", "quasispin.output"]
        assert cli_loads(RUNS["micro"]) == (0, [*self.FRONT_END, *pure])

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_no_run_loads_dataclasses(self, name):
        # the records are NamedTuples, and numpy does not import dataclasses either
        code, loaded = cli_loads(RUNS[name], also=("dataclasses",))
        assert code == 0 and "dataclasses" not in loaded

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
