"""The column-table serializer against the row-dict writer it replaced.

``oracles.serialize_records`` writes one dict per row through ``csv.writer``
or ``json.dumps``. The package writes column tables a block of rows at a
time, formatting a float column that repeats few values once per distinct
value. Both must give the same bytes: on generated tables with hostile
cells, on seeded tables long enough to cross row blocks and the repeat
probe, and on every CLI subcommand, whose oracle rows are the rows of the
library's tables.
"""

import math
import random
import sys
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import serialize_records, table_records
from quasispin.base import default_theta_max
from quasispin.cli import EXIT_OK, main
from quasispin.exact import compare_meanfield
from quasispin.meanfield import critical_temperatures
from quasispin.sweep import (
    concat_tables,
    figure1_table,
    figure2_table,
    phase_map,
    proposed_normalizer,
    serialize,
    sweep_table,
)
from quasispin.thermal import (
    ModelParams,
    TransitionLevel,
    Variant,
    coupling_constants,
    couplings_at,
    transition_amplitude,
)

SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308, 1.7976931348623157e308,
    math.nan, math.inf, -math.inf, 1.0 / 3.0, 0.1, 123456789.0, 1e-7, 1e22,
]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_subnormal=True))
# strings with quoting triggers, template markers and any non-surrogate character
CHARS = st.one_of(st.sampled_from(',"\r\n% ab'), st.characters(exclude_categories=("Cs",)))
TEXT = st.text(alphabet=CHARS, max_size=6)
CELLS = {
    "float": FLOATS,
    "int": st.integers(min_value=-(10**30), max_value=10**30),
    "bool": st.booleans(),
    "str": TEXT,
    "mixed": st.one_of(FLOATS, st.integers(), st.booleans(), TEXT),
}


@st.composite
def tables(draw):
    names = draw(st.lists(TEXT, unique=True, max_size=4))
    rows = draw(st.integers(min_value=0, max_value=5))
    kinds = [draw(st.sampled_from(sorted(CELLS))) for _ in names]
    return {
        name: draw(st.lists(CELLS[kind], min_size=rows, max_size=rows))
        for name, kind in zip(names, kinds)
    }


@settings(max_examples=400, deadline=None)
@given(table=tables(), output_format=st.sampled_from(["csv", "json"]),
       precision=st.integers(min_value=6, max_value=17))
def test_table_bytes_match_the_row_dict_writer(table, output_format, precision):
    expected = serialize_records(table_records(table), output_format, precision, list(table))
    assert serialize(table, output_format, precision) == expected


@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_empty_and_one_column_tables_match_the_row_dict_writer(output_format):
    for table in ({}, {"a": []}, {"a": [], "b": []}, {"": [""]}, {"a": ["", "x"]},
                  {"a": ["", "x"], "b": ["", ""]}):
        expected = serialize_records(table_records(table), output_format, 9, list(table))
        assert serialize(table, output_format) == expected


@pytest.mark.parametrize("precision", [10, 11, 15, 16])
def test_a_finite_cell_that_rounds_past_the_float_range_matches_the_row_dict_writer(precision):
    # the largest float rounds up to inf at these precisions, and JSON spells
    # it Infinity; the other cells are distinct, so the column is not memoized
    table = {"x": [sys.float_info.max, *map(float, range(4_000))]}
    for output_format in ("csv", "json"):
        expected = serialize_records(table_records(table), output_format, precision, ["x"])
        assert serialize(table, output_format, precision) == expected
    assert b"Infinity" in serialize(table, "json", precision)


@pytest.fixture(scope="module")
def long_tables():
    """Seeded tables that cross row blocks and the repeat probe of a float column.

    The first table's rows go through a template (its float columns hold
    zeros of both signs, or repeat only after the probe); the others are
    text rows joined once their float columns are memoized.
    """
    rows, head = 10_000, 1024
    rng = random.Random(8)
    pool = [*SPECIAL_FLOATS, 1.7e308, -1.7e308]
    unsigned = [value for value in pool if math.copysign(1.0, value) > 0 or value != 0.0]
    negative_zero = [-0.0 if value == 0.0 else value for value in pool]

    def drawn(values, count=rows):
        # a fresh NaN object now and then: the memo finds each one by identity
        return [float("nan") if rng.random() < 0.01 else rng.choice(values) for _ in range(count)]

    def distinct(count):
        return [rng.uniform(-1e3, 1e3) for _ in range(count)]

    words = ["ordered", "disordered", "a,b", 'say "x"', "", "line\nbreak"]
    return (
        {
            "both_zeros": drawn(pool),
            "repeats_then_distinct": drawn(pool[:4], head) + distinct(rows - head),
            "distinct_then_repeats": distinct(head) + drawn(pool[:4], rows - head),
            "phase": drawn(words),
        },
        # half as long, still past one row block, to keep the oracle's time down
        {"ratio": drawn(unsigned, rows // 2), "theta": drawn(negative_zero, rows // 2),
         "phase": drawn(words, rows // 2)},
        {"lone": drawn(unsigned, rows // 2)},
    )


@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_long_tables_match_the_row_dict_writer(output_format, long_tables):
    for precision in (6, 9, 17):
        for table in long_tables:
            records = table_records(table)
            expected = serialize_records(records, output_format, precision, list(table))
            assert serialize(table, output_format, precision) == expected
    # precision plays no part in the text of a one-column table or an empty one
    for table in ({"lone": ["", "x", "y,z"] * 3334}, {"a": [], "b": []}):
        expected = serialize_records(table_records(table), output_format, 9, list(table))
        assert serialize(table, output_format) == expected


def _peak_and_size(table, output_format):
    # tracemalloc peak while serializing, and the size of the output
    tracemalloc.start()
    try:
        out = serialize(table, output_format)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, len(out)


@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_phase_map_serialization_peaks_below_three_times_its_output(output_format):
    # The text is rendered a block at a time and exists whole only as the
    # returned bytes; the blocks and those bytes together are about twice it.
    cells, _ = _phase_map(256, 256)
    peak, size = _peak_and_size(cells, output_format)
    assert peak < 3 * size


@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_sweep_serialization_peaks_below_three_times_its_output(output_format):
    # A sweep's float columns are about half distinct values, so they are not
    # memoized; their JSON texts are rendered lazily, a row block at a time,
    # instead of as a list per column (3.8x the output before, 2.1x now).
    base = ModelParams(omega21=1.0, chi=0.6)
    grid = (0.0, default_theta_max(0.6), 12_000)
    table = concat_tables(
        [sweep_table(replace(base, variant=v), *grid) for v in Variant]
    )
    peak, size = _peak_and_size(table, output_format)
    assert len(table["theta"]) == 24_000
    assert peak < 3 * size


# --- CLI subcommands against the rows of the library's tables ---


def _rows(table):
    return table_records(table), tuple(table)


def _sweep_rows(ratio, variants, points, normalize):
    base = ModelParams(omega21=1.0, chi=ratio)
    theta_cr = proposed_normalizer(base) if normalize else None
    grid = (0.0, default_theta_max(ratio), points)
    return _rows(concat_tables(
        [sweep_table(replace(base, variant=v), *grid, theta_cr) for v in variants]
    ))


def _critical_rows(ratio, variants):
    # The couplings come from one scalar couplings_at call per root, which
    # pins the library's array call to the scalar one.
    rows = []
    for variant in variants:
        params = ModelParams(omega21=1.0, chi=ratio, variant=variant)
        table = critical_temperatures(params, (1e-4, 2.0), grid_points=512, tol=1e-10)
        for theta_cr, kind in zip(table["theta_cr"], table["kind"]):
            cpl = couplings_at(params, theta_cr)
            rows.append({"theta_cr": theta_cr, "kind": kind, "nbar": cpl.nbar,
                         "lambda": cpl.lam, "varpi": cpl.varpi, "variant": variant.value})
    return rows, ("theta_cr", "kind", "nbar", "lambda", "varpi", "variant")


def _phase_map(nx, ny):
    return phase_map(Variant.PROPOSED, (0.05, 0.95), (0.01, 1.0), nx=nx, ny=ny, tol=1e-10)


def _phase_rows(nx, ny):
    return _rows(_phase_map(nx, ny)[0])


def _boundary_rows(nx, ny):
    return _rows(_phase_map(nx, ny)[1])


def _fig1_rows(ratios):
    return _rows(figure1_table(ratios))


def _fig2_rows(ratio, variants):
    return _rows(concat_tables([figure2_table(ratio, variant=v) for v in variants]))


def _compare_rows(ratio, theta, n_list):
    table = compare_meanfield(ModelParams(omega21=1.0, chi=ratio), theta, n_list)
    rows = [{**row, "variant": "proposed"} for row in table_records(table)]
    return rows, ("n_atoms", "rz_exact", "rz_meanfield", "deviation", "variant")


def _micro_rows():
    amplitude = transition_amplitude((TransitionLevel(1.0, 1.0, 3.0, 2.0),), 1.0)
    chi, gamma = coupling_constants(amplitude, 0.5, 1.0, 1.0)
    delta = 2.0 * 1.0 - 1.0  # 2*omega_k - omega21
    row = {"amplitude": amplitude, "chi": chi, "gamma": gamma, "chi_over_gamma": delta / 1.0}
    return [row], ("amplitude", "chi", "gamma", "chi_over_gamma")


BOTH = (Variant.PROPOSED, Variant.TRADITIONAL)
CASES = {
    "sweep": (["sweep", "--chi-ratio", "0.6", "--variant", "both", "--points", "60"],
              lambda: _sweep_rows(0.6, BOTH, 60, False)),
    "sweep-normalize": (["sweep", "--chi-ratio", "0.5", "--points", "40", "--normalize"],
                        lambda: _sweep_rows(0.5, (Variant.PROPOSED,), 40, True)),
    "critical": (["critical", "--chi-ratio", "0.45", "--variant", "both"],
                 lambda: _critical_rows(0.45, BOTH)),
    "critical-empty": (["critical", "--chi-ratio", "0.5", "--variant", "traditional"],
                       lambda: _critical_rows(0.5, (Variant.TRADITIONAL,))),
    "phase": (["phase", "--nx", "23", "--ny", "31"], lambda: _phase_rows(23, 31)),
    "fig1": (["fig1", "--ratios", "0.45,0.6"], lambda: _fig1_rows([0.45, 0.6])),
    "fig2": (["fig2", "--chi-ratio", "0.6", "--variant", "both"],
             lambda: _fig2_rows(0.6, BOTH)),
    "exact-compare": (["exact-compare", "--chi-ratio", "0.6", "--theta", "0.1",
                       "--n-list", "8,64"], lambda: _compare_rows(0.6, 0.1, [8, 64])),
    "micro": (["micro", "--level", "1,1,3,2", "--gamma-cav", "0.5", "--omega-k", "1.0",
               "--omega21", "1.0"], _micro_rows),
}


@pytest.mark.parametrize("precision", [6, 17])
@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_bytes_match_the_row_dict_writer(case, output_format, precision, tmp_path):
    argv, oracle = CASES[case]
    out = tmp_path / "out"
    argv = [*argv, "--format", output_format, "--precision", str(precision), "--out", str(out)]
    assert main(argv) == EXIT_OK
    rows, fields = oracle()
    assert out.read_bytes() == serialize_records(rows, output_format, precision, fields)


@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_cli_boundary_bytes_match_the_row_dict_writer(output_format, tmp_path):
    grid, boundary = tmp_path / "grid", tmp_path / "boundary"
    argv = ["phase", "--nx", "23", "--ny", "31", "--format", output_format,
            "--out", str(grid), "--boundary-out", str(boundary)]
    assert main(argv) == EXIT_OK
    rows, fields = _boundary_rows(23, 31)
    assert len(rows) > 0
    assert boundary.read_bytes() == serialize_records(rows, output_format, 9, fields)
