"""Help, version and usage-error bytes of ``main()``, pinned to a recorded fixture.

``help_bytes.json`` holds the exit code, stdout and stderr of every case below,
recorded from a parser that added every subcommand's arguments on each call.
The parser adds only those of the subcommand that runs, which must change no
byte. argparse's layout changes between Python versions, so the fixture also
records the ``major.minor`` it was made with, and the test runs only on that
version. After an intended change of help or error text, rewrite the fixture
with ``python tests/test_help_bytes.py`` and review its diff.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from quasispin.cli import _COMMANDS, main

FIXTURE = Path(__file__).with_name("help_bytes.json")
COLUMNS = "80"  # argparse wraps help to the terminal width, which COLUMNS sets

CASES = [
    ["--help"],
    ["--version"],
    *([name, "--help"] for name in _COMMANDS),
    [],  # no subcommand
    ["swep"],  # an unknown subcommand
    ["--chi-ratio", "0.6", "sweep"],  # an option before the subcommand
    ["-1", "sweep"],  # a negative number before it
    ["critical", "--chi-ratio", "0.6", "--bogus", "1"],
    ["sweep", "--chi-rat", "0.6", "--variant", "bogus"],  # an abbreviated flag, a bad choice
    ["phase", "--nx", "x"],
    ["micro", "--level", "1,1,3"],
    ["sweep"],  # a missing required flag
]


def capture(argv):
    """Exit code, stdout and stderr text of ``main(argv)``, stdout taking the CLI's byte path."""
    stdout, stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    stdout.flush()
    stdout_text = stdout.buffer.getvalue().decode("utf-8")
    return {"code": code, "stdout": stdout_text, "stderr": stderr.getvalue()}


def _version():
    return f"{sys.version_info.major}.{sys.version_info.minor}"


def _recorded():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv) or "(none)")
def test_main_prints_the_recorded_bytes(argv, monkeypatch):
    recorded = _recorded()
    if recorded["python"] != _version():
        pytest.skip(f"argparse layout of Python {recorded['python']} was recorded")
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert capture(argv) == recorded["cases"][" ".join(argv)]


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    cases = {" ".join(argv): capture(argv) for argv in CASES}
    text = json.dumps({"python": _version(), "cases": cases}, indent=1, ensure_ascii=False)
    FIXTURE.write_text(text + "\n", encoding="utf-8")
