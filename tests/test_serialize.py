"""The column-table serializer against the row-dict writer it replaced.

``oracles.serialize_records`` writes one dict per row through ``csv.writer``
or ``json.dumps``. The package writes column tables, of lists, 1-D arrays or
coded columns, a block of rows at a time, rendering each value of a coded
column once per table. Both must give the same bytes: on generated tables
with hostile cells, on seeded tables long enough to cross row blocks, and on
every CLI subcommand, whose oracle rows are the rows of the library's tables.
"""

import math
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import serialize_records, stacked, table_records
from quasispin import output, sweep
from quasispin.base import FIG1_POINTS, FIG2_POINTS, Coded, DomainError, default_theta_max
from quasispin.cli import EXIT_OK, _write_bytes, main
from quasispin.exact import compare_meanfield
from quasispin.meanfield import critical_temperatures, uniform_grid
from quasispin.levels import TransitionLevel, coupling_constants, transition_amplitude
from quasispin.output import serialize, serialize_blocks
from quasispin.sweep import THERMO_COLUMNS, phase_map, proposed_normalizer, sweep_table
from quasispin.thermal import ModelParams, Variant, couplings_at

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
    "mixed": st.one_of(FLOATS, st.integers(), st.booleans(), TEXT, st.none()),
}


@st.composite
def columns(draw, rows):
    # rows cells of one drawn kind, as a list or coded over a drawn list of values
    cells = CELLS[draw(st.sampled_from(sorted(CELLS)))]
    if not draw(st.booleans()):
        return draw(st.lists(cells, min_size=rows, max_size=rows))
    values = draw(st.lists(cells, min_size=1 if rows else 0, max_size=4))
    codes = st.integers(min_value=0, max_value=max(len(values) - 1, 0))
    dtype = draw(st.sampled_from([np.uint8, np.int64]))
    return Coded(np.array(draw(st.lists(codes, min_size=rows, max_size=rows)), dtype), values)


@st.composite
def tables(draw):
    names = draw(st.lists(TEXT, unique=True, max_size=4))
    rows = draw(st.integers(min_value=0, max_value=5))
    return {name: draw(columns(rows)) for name in names}


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


# --- a sequence of tables against their concatenation ---


@st.composite
def table_sequences(draw):
    # tables with the same columns, each column of any cell kind and form in each table
    names = draw(st.lists(TEXT, unique=True, max_size=3))
    sequence = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        rows = draw(st.integers(min_value=0, max_value=3))
        sequence.append({name: draw(columns(rows)) for name in names})
    return sequence


@settings(max_examples=200, deadline=None)
@given(tables=table_sequences(), output_format=st.sampled_from(["csv", "json"]),
       precision=st.integers(min_value=6, max_value=17))
def test_a_table_sequence_writes_the_bytes_of_its_concatenation(tables, output_format, precision):
    expected = serialize(stacked(tables), output_format, precision)
    assert b"".join(serialize_blocks(tables, output_format, precision)) == expected
    records = [record for table in tables for record in table_records(table)]
    assert expected == serialize_records(records, output_format, precision, list(tables[0]))


@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_concatenated_tables_write_the_bytes_of_the_sequence(output_format):
    # an int array then a list, coded columns with different values in each
    # table, and a coded column in one table beside a plain one in the next
    ratio = Coded(np.array([1, 0, 1], np.uint8), [0.25, -0.0])
    plain = {"r": [0.5, 0.25], "s": np.array(["a", "b,c"])}
    sequences = [
        [{"n": np.array([1, 2])}, {"n": [3]}],
        [{"r": ratio, "s": Coded(np.zeros(3, np.uint8), ["x"])},
         {"r": Coded(np.array([0, 0]), [math.nan]), "s": Coded(np.array([1, 0]), ["", "y"])}],
        [{"r": ratio, "s": Coded(np.zeros(3, np.uint8), ["x"])}, plain],
        [plain, {"r": ratio, "s": ["z"] * 3}],
    ]
    for tables in sequences:
        records = [record for table in tables for record in table_records(table)]
        assert serialize(tables, output_format) == serialize_records(
            records, output_format, 9, list(tables[0])
        )


def _sequence_table(rows, seed, arrays):
    # past a row block, with a repeating float column, a distinct one, quoted
    # text as arrays or lists, a list of ints, and a coded float column
    rng = np.random.default_rng(seed)
    columns = {
        "ratio": rng.choice([0.25, 0.5, 1.0 / 3.0, 1e-7], rows),
        "theta": rng.uniform(-1e3, 1e3, rows),
        "phase": np.array(["ordered", "a,b", 'say "x"', ""])[rng.integers(0, 4, rows)],
    }
    table = {name: column if arrays else column.tolist() for name, column in columns.items()}
    coded = Coded(rng.integers(0, 3, rows).astype(np.uint8), [0.0, -0.0, 1.0 / 7.0])
    return {**table, "n": rng.integers(-(2**40), 2**40, rows).tolist(), "coded": coded}


@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize("precision", [6, 9, 17])
def test_long_table_sequences_write_the_bytes_of_their_concatenation(output_format, precision):
    rows = sweep._ROW_BLOCK + 5
    full = [_sequence_table(rows, seed, arrays) for seed, arrays in ((1, True), (2, False))]
    empty = {name: column[:0] for name, column in full[0].items() if name != "coded"}
    empty["coded"] = Coded(np.zeros(0, np.uint8), [])
    lone = [{"x": ["", "a", ""]}, {"x": []}, {"x": [""]}]
    sequences = [
        [empty, *full], [full[0], empty, full[1]], [*full, empty],  # an empty table anywhere
        [empty, empty], [{"x": []}, {"x": []}],  # no rows at all
        lone,  # the one cell of a one-column row is quoted when empty
        [full[1], full[0], full[1]],  # a column an array in one table, a list in the next
    ]
    for tables in sequences:
        expected = serialize(stacked(tables), output_format, precision)
        assert b"".join(serialize_blocks(tables, output_format, precision)) == expected
    assert serialize([empty, empty], "json") == b"[]\n"
    assert serialize([empty, empty], "csv") == b"ratio,theta,phase,n,coded\n"


def test_a_later_table_with_other_columns_raises():
    first = {"a": [1.0], "b": ["x"]}
    for later in ({"b": ["y"], "a": [2.0]}, {"a": [2.0]}, {"a": [2.0], "b": ["y"], "c": [3]}):
        for output_format in ("csv", "json"):
            blocks = serialize_blocks([first, later], output_format)  # the first table is fine
            with pytest.raises(ValueError, match="must have the same columns"):
                b"".join(blocks)
    with pytest.raises(ValueError, match="columns differ in length"):
        serialize([first, {"a": [2.0, 3.0], "b": ["y"]}])
    with pytest.raises(ValueError, match="no tables to serialize"):
        serialize_blocks([])


def test_the_first_table_is_taken_when_the_generator_is_made(tmp_path):
    # A failure while the first table is made reaches the caller before an
    # output file is opened; a failure in a later one after the blocks before it
    def tables(fail_at):
        for index in range(3):
            if index == fail_at:
                raise DomainError(f"table {index}")
            yield {"x": [float(index)] * 3}

    out = tmp_path / "out"
    with pytest.raises(DomainError, match="table 0"):
        _write_bytes(str(out), serialize_blocks(tables(0)))
    assert not out.exists()
    with pytest.raises(DomainError, match="table 2"):
        _write_bytes(str(out), serialize_blocks(tables(2)))
    assert out.read_bytes() == b"x\n0\n0\n0\n1\n1\n1"


@pytest.mark.parametrize("precision", [10, 11, 15, 16])
def test_a_finite_cell_that_rounds_past_the_float_range_matches_the_row_dict_writer(precision):
    # the largest float rounds up to inf at these precisions, and JSON spells
    # it Infinity, in a plain column and as the value of a coded one
    cells = [sys.float_info.max, *map(float, range(4_000))]
    coded = Coded(np.arange(len(cells))[::-1], cells)
    for table in ({"x": cells}, {"x": coded}):
        for output_format in ("csv", "json"):
            expected = serialize_records(table_records(table), output_format, precision, ["x"])
            assert serialize(table, output_format, precision) == expected
    assert b"Infinity" in serialize(table, "json", precision)


@pytest.fixture(scope="module")
def long_tables():
    """Seeded tables that cross row blocks, with plain and coded columns.

    Their float columns hold zeros of both signs and NaN, and repeat few
    values over some rows and hold distinct ones over others; the coded
    columns draw their codes over the same pools of values.
    """
    rows, head = 10_000, 1024
    rng = random.Random(8)
    pool = [*SPECIAL_FLOATS, 1.7e308, -1.7e308]
    unsigned = [value for value in pool if math.copysign(1.0, value) > 0 or value != 0.0]
    negative_zero = [-0.0 if value == 0.0 else value for value in pool]

    def drawn(values, count=rows):
        # a fresh NaN object now and then
        return [float("nan") if rng.random() < 0.01 else rng.choice(values) for _ in range(count)]

    def coded(values, count):
        return Coded(np.array([rng.randrange(len(values)) for _ in range(count)]), values)

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
        {"ratio": coded(pool, rows // 2), "theta": drawn(negative_zero, rows // 2),
         "phase": coded(words, rows // 2)},
        {"lone": coded(words, rows // 2)},
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


@pytest.mark.parametrize(
    "column",
    [
        np.array(SPECIAL_FLOATS * 300),  # 4800 cells: past one row block
        np.array([0.1, -0.0, 1e-7, 3.0e38, math.nan, -math.inf], dtype=np.float32),
        np.array([0.25, -0.0, 0.5] * 2000),  # repeats, with zeros of both signs
        # repeats, with one sign of zero in each row block
        np.array([0.0, 0.5] * 2048 + [-0.0, 0.5] * 2048 + [0.0, 0.5] * 8),
        np.array(["ordered", "a,b", "", 'say "x"'] * 1100),
        np.array(["ordered", "disordered", 3, 0.5] * 1100, dtype=object),
        np.array([True, False, True]),
        np.array([-(2**62), 0, 7], dtype=np.int64),
    ],
    ids=["float64", "float32", "repeats", "zeros-by-block", "str", "object", "bool", "int64"],
)
@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_an_array_column_writes_the_bytes_of_its_list(column, output_format):
    cells = column.tolist()
    for table in ({"x": column}, {"x": column, "y": cells}):
        as_list = {name: cells for name in table}
        for precision in (6, 17):
            expected = serialize(as_list, output_format, precision)
            assert serialize(table, output_format, precision) == expected
    assert serialize({"x": column}, output_format) == serialize_records(
        table_records({"x": cells}), output_format, 9, ["x"]
    )


def test_the_blocks_are_the_header_each_row_block_and_the_tail():
    B = sweep._ROW_BLOCK
    rows = 2 * B + 1
    table = {"x": np.arange(rows, dtype=float), "phase": ["ordered"] * rows}
    csv_blocks = list(serialize_blocks(table))
    assert len(csv_blocks) == 5
    assert csv_blocks[0] == b"x,phase\n" and csv_blocks[-1] == b"\n"
    assert [block.count(b"\n") for block in csv_blocks[1:-1]] == [B - 1, B, 1]
    json_blocks = list(serialize_blocks(table, "json"))
    assert (len(json_blocks), json_blocks[0], json_blocks[-1]) == (5, b"[\n", b"\n]\n")
    for output_format, blocks in (("csv", csv_blocks), ("json", json_blocks)):
        assert b"".join(blocks) == serialize(table, output_format)


@pytest.mark.parametrize(
    "table, output_format, precision, error, message",
    [
        ({"x": [1.0]}, "csv", 5, DomainError, "precision must be an integer in"),
        ({"x": [1.0]}, "csv", 9.5, DomainError, "precision must be an integer in"),
        ({"x": [1.0]}, "xml", 9, DomainError, "output format must be"),
        ({"x": np.zeros(3), "y": [1.0, 2.0]}, "json", 9, ValueError, "columns differ in length"),
    ],
)
def test_the_arguments_are_checked_when_the_generator_is_made(
    table, output_format, precision, error, message, tmp_path
):
    # before any block is asked for, so the CLI opens no output file
    with pytest.raises(error, match=message):
        serialize_blocks(table, output_format, precision)
    out = tmp_path / "out"
    with pytest.raises(error, match=message):
        _write_bytes(str(out), serialize_blocks(table, output_format, precision))
    assert not out.exists()


@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_a_repeating_head_then_distinct_cells_match_the_row_dict_writer(output_format):
    # a sweep's saturated low-theta head repeats one value, and the cells
    # after it are distinct
    head = [0.25] * 1024
    distinct = [1.0 + index / 7.0 for index in range(3 * sweep._ROW_BLOCK)]
    table = {"f_per_atom": np.array(head + distinct)}
    expected = serialize_records(table_records(table), output_format, 9, list(table))
    assert serialize(table, output_format) == expected


@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_row_blocks_with_zeros_of_either_sign_match_the_row_dict_writer(output_format):
    repeats = [0.5, 0.25, 1.0 / 3.0]
    blocks = [[zero, *repeats] * (sweep._ROW_BLOCK // 4) for zero in (0.0, -0.0, 0.75)]
    table = {"x": np.array([cell for block in blocks for cell in block])}
    for precision in (6, 17):
        expected = serialize_records(table_records(table), output_format, precision, ["x"])
        assert serialize(table, output_format, precision) == expected


def _blocks_of(*values, dtype=np.float64):
    # two whole row blocks and a one-row last block, each of one value
    B = sweep._ROW_BLOCK
    return np.array([values[0]] * B + [values[1]] * B + [values[2]], dtype=dtype)


@pytest.mark.parametrize(
    "column",
    [
        _blocks_of(0.0, -0.0, 0.0),
        _blocks_of(math.nan, math.inf, 1.0),
        _blocks_of(1e300, -1e300, 1e300),
        _blocks_of(0.1, -0.0, math.nan, dtype=np.float32),
        np.repeat(_blocks_of(1.0 / 3.0, 0.25, -math.inf), 2)[::2],  # a strided view
    ],
    ids=["zeros", "nan-inf-one", "1e300", "float32", "strided"],
)
@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_row_blocks_of_one_value_match_the_row_dict_writer(column, output_format):
    # the constant blocks next to columns of distinct cells, text and codes,
    # and alone or with other constant columns, where no column has cells
    rows = len(column)
    tables = [
        {"c": column, "x": np.arange(rows) / 7.0,
         "phase": ["ordered", "a,b%s"] * (rows // 2) + [""],
         "variant": Coded(np.arange(rows) % 2, ["traditional", 0.5])},
        {"c": column},
        {"c": column, "d": np.zeros(rows), "e": column[::-1]},
    ]
    for precision in (6, 9, 17):
        for table in tables:
            records = table_records(table)
            expected = serialize_records(records, output_format, precision, list(table))
            assert serialize(table, output_format, precision) == expected


@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_a_row_block_of_one_bit_pattern_is_rendered_as_one_cell(output_format, monkeypatch):
    # a block that mixes 0.0 and -0.0, or two NaN payloads, is not one bit
    # pattern, so each of its cells is rendered
    render = "_csv_field" if output_format == "csv" else "_json_texts"
    calls = []
    original = getattr(output, render)

    def spy(kind, cells, *args):
        calls.append(list(cells))
        return original(kind, cells, *args)

    monkeypatch.setattr(output, render, spy)
    B = output._ROW_BLOCK
    payload = np.array([0x7FF8000000000001], np.uint64).view(np.float64)[0]
    column = np.array([0.25] * B + [0.0, -0.0] * (B // 2) + [math.nan, payload] * (B // 2) + [7.0])
    expected = serialize({"x": column.tolist()}, output_format)
    calls.clear()
    assert serialize({"x": column}, output_format) == expected
    assert [len(cells) for cells in calls] == [1, B, B, 1]
    assert calls[0] == [0.25] and calls[-1] == [7.0]


@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_each_value_of_a_coded_column_is_rendered_once_per_table(output_format, monkeypatch):
    # the values go through the render path of a plain column once per
    # table, and each row block only gathers their texts
    render = "_csv_field" if output_format == "csv" else "_json_texts"
    calls = []
    original = getattr(output, render)

    def spy(kind, cells, *args):
        calls.append(list(cells))
        return original(kind, cells, *args)

    monkeypatch.setattr(output, render, spy)
    rows = 3 * output._ROW_BLOCK + 1
    values = [[0.5, -0.0, math.nan, "a,b", None, True], ["x", ""]]
    tables = [{"x": Coded(np.arange(rows) % len(cells), cells)} for cells in values]
    for sequence in ([tables[0]], tables):
        expected = serialize([{"x": table["x"].tolist()} for table in sequence], output_format)
        calls.clear()
        assert serialize(sequence, output_format) == expected
        assert calls == [table["x"].values for table in sequence]


@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_a_values_list_shared_by_consecutive_tables_is_rendered_once(output_format, monkeypatch):
    # one list object in the same column of consecutive tables is rendered
    # once per serialization; an equal list that is another object, or a
    # list back after another one, is rendered again
    render = "_csv_field" if output_format == "csv" else "_json_texts"
    calls = []
    original = getattr(output, render)

    def spy(kind, cells, *args):
        calls.append(cells)
        return original(kind, cells, *args)

    monkeypatch.setattr(output, render, spy)
    shared, other = [0.25, "a,b", None], ["x", ""]
    copy = list(shared)
    codes = np.arange(output._ROW_BLOCK + 5) % 2
    cases = [
        ([shared] * 4, [shared]),
        ([shared, copy, shared], [shared, copy, shared]),
        ([shared, shared, other, other, shared], [shared, other, shared]),
    ]
    for lists, rendered in cases:
        tables = [{"x": Coded(codes, values)} for values in lists]
        expected = serialize([{"x": table["x"].tolist()} for table in tables], output_format)
        calls.clear()
        assert serialize(tables, output_format) == expected
        assert [id(cells) for cells in calls] == [id(values) for values in rendered]


@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_a_coded_zero_keeps_its_sign(output_format):
    table = {"x": Coded(np.array([0, 1, 1, 0], np.uint8), [0.0, -0.0]), "y": ["a"] * 4}
    lines = serialize(table, output_format, 17).decode().splitlines()
    if output_format == "csv":
        assert lines[1:] == ["0,a", "-0,a", "-0,a", "0,a"]
    else:
        assert [line.strip() for line in lines if '"x"' in line] == [
            '"x": 0.0,', '"x": -0.0,', '"x": -0.0,', '"x": 0.0,'
        ]
    assert serialize(table, output_format, 17) == serialize(
        {"x": table["x"].tolist(), "y": table["y"]}, output_format, 17
    )


def test_the_cell_columns_of_a_phase_map_are_coded():
    # Whole temperature rows of about _ROW_BLOCK cells a block (one row when
    # nx is larger); the ratios and the phase names are one list shared by
    # every block, and each block's temperatures are its own rows.
    for nx, ny in [(7, 5), (700, 5), (sweep._ROW_BLOCK + 1, 3)]:
        cells, boundary = _phase_map(nx, ny)
        blocks = list(cells)
        rows = max(1, sweep._ROW_BLOCK // nx)
        starts = range(0, ny, rows)
        thetas = uniform_grid(0.01, 1.0, ny).tolist()
        assert len(blocks) == len(starts)
        for block, start in zip(blocks, starts):
            assert all(type(column) is Coded for column in block.values())
            assert block["theta"].values == thetas[start : start + rows]
            for name in ("chi_ratio", "phase", "variant"):
                assert block[name].values is blocks[0][name].values
            for column in block.values():
                assert column.codes.dtype == np.min_scalar_type(len(column.values) - 1)
        whole = stacked(blocks)
        assert whole["chi_ratio"] == uniform_grid(0.05, 0.95, nx).tolist() * ny
        assert whole["theta"] == [theta for theta in thetas for _ in range(nx)]
        assert whole["variant"] == ["proposed"] * nx * ny
        assert set(whole["phase"]) <= {"ordered", "disordered"}
        assert all(type(column) is list for column in boundary.values())


def test_writing_a_large_table_through_the_block_path_stays_bounded(tmp_path):
    # 200 000 sweep rows are about 22 MB of CSV; the blocks are written as
    # they are produced, so the writer holds about one block of text and of
    # boxed cells, whatever the table's length. Writing the whole output as
    # one bytes object would peak at about twice its size.
    base = ModelParams(omega21=1.0, chi=0.6)
    table = sweep_table(base, 0.0, default_theta_max(0.6), 200_000)
    out = tmp_path / "sweep.csv"
    tracemalloc.start()
    try:
        _write_bytes(str(out), serialize_blocks(table))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 20_000_000
    assert peak < 4 * 2**20


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
    # The blocks are rendered one at a time and joined into the returned
    # bytes; the blocks and those bytes together are about twice the output.
    cells, _ = _phase_map(256, 256)
    peak, size = _peak_and_size(cells, output_format)
    assert peak < 3 * size


@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_sweep_serialization_peaks_below_three_times_its_output(output_format):
    # A sweep's float columns are boxed, and their JSON texts rendered, a row
    # block at a time, not as a list per column: the blocks and the joined
    # bytes together are about twice the output.
    base = ModelParams(omega21=1.0, chi=0.6)
    grid = (0.0, default_theta_max(0.6), 12_000)
    tables = [sweep_table(base._replace(variant=v), *grid) for v in Variant]
    peak, size = _peak_and_size(tables, output_format)
    assert sum(len(table["theta"]) for table in tables) == 24_000
    assert peak < 3 * size


# --- CLI subcommands against the rows of the library's tables ---


def _rows(table):
    return table_records(table), tuple(table)


def _sweep_rows(ratio, variants, points, normalize):
    base = ModelParams(omega21=1.0, chi=ratio)
    theta_cr = proposed_normalizer(base) if normalize else None
    grid = (0.0, default_theta_max(ratio), points)
    return _rows(stacked(
        sweep_table(base._replace(variant=v), *grid, theta_cr) for v in variants
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
    return _rows(stacked(_phase_map(nx, ny)[0]))


def _boundary_rows(nx, ny):
    return _rows(_phase_map(nx, ny)[1])


def _fig1_rows(ratios, points=FIG1_POINTS):
    # each ratio's whole-grid sweeps on [0, 1.05 * theta_cr], normalized by
    # the proposed root
    rows = []
    for ratio in ratios:
        base = ModelParams(omega21=1.0, chi=ratio)
        theta_cr = proposed_normalizer(base)
        for variant in Variant:
            table = sweep_table(base._replace(variant=variant), 0.0, 1.05 * theta_cr, points,
                                theta_cr)
            rows += [{"chi_ratio": ratio, **row} for row in table_records(table)]
    return rows, ("chi_ratio", "theta_norm", *THERMO_COLUMNS)


def _fig2_rows(ratio, variants, points=FIG2_POINTS):
    # each variant's whole-grid sweep on [0, 2 * theta_cr], theta_cr its own largest root
    rows = []
    for variant in variants:
        params = ModelParams(omega21=1.0, chi=ratio, variant=variant)
        theta_cr = critical_temperatures(params, (1e-4, 2.0), grid_points=1024)["theta_cr"][-1]
        rows += table_records(sweep_table(params, 0.0, 2.0 * theta_cr, points))
    return rows, ("theta", "rz_eq10", "rz_eq4", "variant")


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
    "phase-1500x5": (["phase", "--nx", "1500", "--ny", "5"], lambda: _phase_rows(1500, 5)),
    "fig1": (["fig1", "--ratios", "0.45,0.6"], lambda: _fig1_rows([0.45, 0.6])),
    "fig1-2049": (["fig1", "--ratios", "0.45,0.6", "--points", "2049"],
                  lambda: _fig1_rows([0.45, 0.6], 2049)),
    "fig2": (["fig2", "--chi-ratio", "0.6", "--variant", "both"],
             lambda: _fig2_rows(0.6, BOTH)),
    "fig2-4097": (["fig2", "--chi-ratio", "0.6", "--variant", "both", "--points", "4097"],
                  lambda: _fig2_rows(0.6, BOTH, 4097)),
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
