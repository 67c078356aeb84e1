"""The column-table serializer against the row-dict writer it replaced.

``oracles.serialize_records`` writes one dict per row through ``csv.writer``
or ``json.dumps``. The package writes column tables a block of rows at a
time, formatting a float column that repeats few values once per distinct
value. Both must give the same bytes: on generated tables with hostile
cells, on seeded tables long enough to cross row blocks and the repeat
probe, and on every CLI subcommand, whose oracle rows are rebuilt from the
library's point objects.
"""

import math
import random
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import THERMO_FIELDS, serialize_records, table_records, thermo_record
from quasispin.cli import EXIT_OK, main
from quasispin.exact import compare_meanfield
from quasispin.meanfield import critical_temperatures
from quasispin.sweep import (
    SweepConfig,
    default_theta_max,
    figure1_series,
    figure2_series,
    phase_map,
    phase_map_table,
    proposed_normalizer,
    serialize,
    temperature_sweep,
)
from quasispin.thermal import (
    MicroscopicLevels,
    ModelParams,
    TransitionLevel,
    Variant,
    coupling_constants,
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


@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_phase_map_serialization_peaks_below_three_times_its_output(output_format):
    # The text is rendered a block at a time and exists whole only as the
    # returned bytes; the blocks and those bytes together are about twice it.
    table = phase_map_table(_phase_map(256, 256))
    tracemalloc.start()
    try:
        out = serialize(table, output_format)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(out)


# --- CLI subcommands against oracle rows built from the library's points ---


def _sweep_rows(ratio, variants, points, normalize):
    base = ModelParams(omega21=1.0, chi=ratio)
    theta_cr = proposed_normalizer(base).theta_cr if normalize else None
    rows = []
    for variant in variants:
        cfg = SweepConfig(replace(base, variant=variant), 0.0, default_theta_max(ratio), points)
        for point in temperature_sweep(cfg):
            prefix = {} if theta_cr is None else {"theta_norm": point.theta / theta_cr}
            rows.append({**prefix, **thermo_record(point)})
    fields = (("theta_norm",) if normalize else ()) + THERMO_FIELDS
    return rows, fields


def _critical_rows(ratio, variants):
    rows = []
    for variant in variants:
        params = ModelParams(omega21=1.0, chi=ratio, variant=variant)
        for point in critical_temperatures(params, (1e-4, 2.0), grid_points=512, tol=1e-10):
            cpl = point.couplings_at_cr
            rows.append({"theta_cr": point.theta_cr, "kind": point.kind.value, "nbar": cpl.nbar,
                         "lambda": cpl.lam, "varpi": cpl.varpi, "variant": variant.value})
    return rows, ("theta_cr", "kind", "nbar", "lambda", "varpi", "variant")


def _phase_map(nx, ny):
    return phase_map(Variant.PROPOSED, (0.05, 0.95), (0.01, 1.0), nx=nx, ny=ny, tol=1e-10)


def _phase_rows(nx, ny):
    pmap = _phase_map(nx, ny)
    names = ("disordered", "ordered")
    rows = [
        {"chi_ratio": ratio, "theta": theta, "phase": names[flag], "variant": "proposed"}
        for theta, row in zip(pmap.thetas, pmap.ordered.tolist())
        for ratio, flag in zip(pmap.chi_ratios, row)
    ]
    return rows, ("chi_ratio", "theta", "phase", "variant")


def _boundary_rows(nx, ny):
    rows = [
        {"chi_ratio": p.chi_ratio, "theta_cr": p.theta_cr, "kind": p.kind.value,
         "variant": "proposed"}
        for p in _phase_map(nx, ny).boundary
    ]
    return rows, ("chi_ratio", "theta_cr", "kind", "variant")


def _fig1_rows(ratios):
    rows = []
    for entry in figure1_series(ratios):
        for point in entry.proposed + entry.traditional:
            rows.append({"chi_ratio": entry.chi_ratio,
                         "theta_norm": point.theta / entry.theta_cr_max, **thermo_record(point)})
    return rows, ("chi_ratio", "theta_norm") + THERMO_FIELDS


def _fig2_rows(ratio, variants):
    rows = [
        {"theta": p.theta, "rz_eq10": p.rz_eq10, "rz_eq4": p.rz_eq4, "variant": p.variant.value}
        for variant in variants
        for p in figure2_series(ratio, variant=variant)
    ]
    return rows, ("theta", "rz_eq10", "rz_eq4", "variant")


def _compare_rows(ratio, theta, n_list):
    params = ModelParams(omega21=1.0, chi=ratio)
    rows = [
        {"n_atoms": c.n_atoms, "rz_exact": c.rz_exact, "rz_meanfield": c.rz_meanfield,
         "deviation": c.deviation, "variant": "proposed"}
        for c in compare_meanfield(params, theta, n_list)
    ]
    return rows, ("n_atoms", "rz_exact", "rz_meanfield", "deviation", "variant")


def _micro_rows():
    levels = MicroscopicLevels(levels=(TransitionLevel(1.0, 1.0, 3.0, 2.0),), gamma_cav=0.5)
    amplitude = transition_amplitude(levels, 1.0)
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
