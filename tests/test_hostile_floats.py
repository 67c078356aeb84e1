"""Hostile floats and integers never break the CLI's exit-code contract.

Every float a subcommand takes (each float flag, a ratio of ``--ratios``, a
number of ``--level``) gets NaN, an infinity, a subnormal, a value near the
float maximum or a huge integer: one at a time on every subcommand, and
several at once in a derandomized hypothesis search; a few accepted ones also
go to grids that span several blocks. Every integer it takes
(each integer flag, an atom count of ``--n-list``) gets, one at a time, a
value below its minimum, one past its cap or the float range, or hex text.
Whatever the values, ``main()`` returns 0, 2 or 3, lets no exception out,
raises no warning, and an exit-0 run writes finite numbers only.
"""

import contextlib
import csv
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasispin import cli
from quasispin.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, main

# The smallest valid invocation of each subcommand: grids as small as its checks allow.
BASE = {
    "sweep": ["--chi-ratio=0.6", "--points=3"],
    "critical": ["--chi-ratio=0.45", "--points=64"],
    "phase": ["--nx=3", "--ny=3"],
    "fig1": ["--ratios=0.6", "--points=3"],
    "fig2": ["--chi-ratio=0.6", "--points=3"],
    "exact-compare": ["--chi-ratio=0.6", "--theta=0.1", "--n-list=8"],
    "micro": ["--level=1,1,3,2", "--gamma-cav=0.5"],
}
HUGE = "1" + "0" * 400  # an integer past the float range
HOSTILE = [
    "nan", "-nan", "inf", "-inf", "5e-324", "-5e-324", "2.2250738585072014e-308",
    "1.7e308", "-1.7e308", "1" + "0" * 300, "-" + "9" * 308, HUGE, "-" + HUGE, "0", "-0.0",
]
# Each is rejected by a check or a cap before anything is allocated (10000001
# is one past MAX_PHASE_CELLS and past MAX_LADDER_ATOMS), or is accepted with
# a grid of a few points; --threads takes any count >= 0 and ignores it.
HOSTILE_INTS = ["-1", "0", "1", "10000001", str(2**63), HUGE, "0x10"]
VARIANTS = {
    name: ("proposed", "traditional", "both") if name in ("sweep", "critical", "fig2")
    else ("proposed", "traditional")
    for name in BASE
    if "variant" in cli._COMMANDS[name].defaults
}


def _flag_slots(name, parse):
    """(label, value -> argv tail) for each flag of subcommand ``name`` that ``parse`` reads."""
    return [
        (cli._option(dest), lambda value, option=cli._option(dest): [f"{option}={value}"])
        for dest in cli._COMMANDS[name].defaults
        if cli._FLAGS[dest].parse is parse
    ]


def _float_slots(name):
    """(label, value -> argv tail) for every float that subcommand ``name`` takes."""
    slots = _flag_slots(name, cli._real)
    if name == "fig1":
        slots.append(("--ratios", lambda value: [f"--ratios=0.6,{value}"]))
    if name == "micro":
        for index in range(4):
            slots.append((
                f"--level[{index}]",
                lambda value, index=index: [
                    "--level=" + ",".join(value if i == index else x for i, x in enumerate("1132"))
                ],
            ))
    return slots


SLOTS = {name: _float_slots(name) for name in BASE}
INT_SLOTS = {name: _flag_slots(name, int) for name in BASE}
INT_SLOTS["exact-compare"].append(("--n-list", lambda value: [f"--n-list=8,{value}"]))


def _numbers(text, output_format):
    """Every number in an output, as a float; NaN and Infinity included."""
    if output_format == "json":
        cells = [value for row in json.loads(text, parse_constant=float) for value in row.values()]
    else:
        cells = [cell for row in csv.reader(io.StringIO(text)) for cell in row]
    for cell in cells:
        if isinstance(cell, (int, float)) and not isinstance(cell, bool):
            yield float(cell)
        elif isinstance(cell, str):
            with contextlib.suppress(ValueError):
                yield float(cell)


def assert_contract(argv, output_format):
    # a binary-backed stdout, as in a process, so output takes the CLI's byte path
    stdout, stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*argv, f"--format={output_format}"])
    assert [str(warning.message) for warning in caught] == [], argv
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DOMAIN), argv
    stdout.flush()
    text = stdout.buffer.getvalue().decode("utf-8")
    if code == EXIT_OK:
        assert stderr.getvalue() == "", argv
        assert all(map(math.isfinite, _numbers(text, output_format))), (argv, text)
    else:
        assert text == "", argv
        assert stderr.getvalue().startswith("error: "), argv
        assert stderr.getvalue().count("\n") == 1, argv


@pytest.mark.parametrize(
    "name, label, slot",
    [(name, label, slot) for name, slots in SLOTS.items() for label, slot in slots],
    ids=lambda value: value if isinstance(value, str) else "",
)
def test_each_float_alone(name, label, slot):
    for index, value in enumerate(HOSTILE):
        assert_contract([name, *BASE[name], *slot(value)], ("csv", "json")[index % 2])


@pytest.mark.parametrize(
    "name, label, slot",
    [(name, label, slot) for name, slots in INT_SLOTS.items() for label, slot in slots],
    ids=lambda value: value if isinstance(value, str) else "",
)
def test_each_integer_alone(name, label, slot):
    for index, value in enumerate(HOSTILE_INTS):
        assert_contract([name, *BASE[name], *slot(value)], ("csv", "json")[index % 2])


# Grids of more than one block: six scan tiles of 300 lanes and six-row
# cell blocks (phase), three 2048-row serializer blocks (sweep) and a
# two-lane scan (fig1).
MULTI_BLOCK = {
    "phase": ["--nx=300", "--ny=300"],
    "sweep": ["--chi-ratio=0.6", "--points=5000"],
    "fig1": ["--ratios=0.6,0.7"],
}
# A value each grid accepts in that slot (a rejected one never reaches a
# block, and test_each_float_alone covers the rejections on small grids):
# subnormal, signed zero or large finite.
MULTI_BLOCK_CASES = [
    ("phase", "--chi-min", "5e-324", "csv"),  # a subnormal lane among 299 ordinary ones
    ("phase", "--tol", "5e-324", "json"),  # every bracket bisects until it cannot split
    ("sweep", "--theta-min", "-0.0", "csv"),
    ("sweep", "--omega-k", "1.7e308", "json"),
    ("sweep", "--tol", "5e-324", "csv"),
    ("fig1", "--ratios", "5e-324", "json"),  # the lanes 0.6 and 5e-324
    ("fig1", "--omega-k", "1.7e308", "csv"),
    ("fig1", "--tol", "5e-324", "json"),
]


@pytest.mark.parametrize("name, label, value, output_format", MULTI_BLOCK_CASES)
def test_multi_block_grids(name, label, value, output_format):
    slot = dict(SLOTS[name])[label]
    assert_contract([name, *MULTI_BLOCK[name], *slot(value)], output_format)


@st.composite
def invocations(draw):
    """A subcommand with hostile or ordinary values in any subset of its floats."""
    name = draw(st.sampled_from(sorted(BASE)))
    values = st.one_of(st.sampled_from(HOSTILE), st.floats(allow_subnormal=True).map(repr))
    argv = [name, *BASE[name]]
    for _, slot in SLOTS[name]:
        if draw(st.booleans()):
            argv += slot(draw(values))
    if name in VARIANTS:
        argv.append("--variant=" + draw(st.sampled_from(VARIANTS[name])))
    if name == "sweep" and draw(st.booleans()):
        argv.append("--normalize")
    return argv


@settings(max_examples=120, deadline=None, derandomize=True)
@given(argv=invocations(), output_format=st.sampled_from(["csv", "json"]))
def test_floats_together(argv, output_format):
    assert_contract(argv, output_format)
