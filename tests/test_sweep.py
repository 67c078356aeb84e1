import json
import math
import re
import warnings

import numpy as np
import pytest

from oracles import stacked, table_records
from quasispin import meanfield, sweep
from quasispin.base import default_theta_max
from quasispin.meanfield import (
    MAX_PHASE_CELLS,
    NoCriticalPointError,
    critical_temperatures,
    gap_solve,
    ordering_measure,
    population_inversion,
    rz_relaxation,
)
from quasispin.sweep import (
    THERMO_COLUMNS,
    figure1_blocks,
    figure2_blocks,
    phase_map,
    plot_script,
    proposed_normalizer,
    sweep_blocks,
    sweep_table,
)
from quasispin.output import serialize
from quasispin.thermal import DomainError, ModelParams, Variant, couplings_at

TRAD_CR_06 = 0.2 / math.atanh(2.0 / 3.0)


def trad(chi: float) -> ModelParams:
    return ModelParams(omega21=1.0, chi=chi, variant=Variant.TRADITIONAL)


def prop(chi: float) -> ModelParams:
    return ModelParams(omega21=1.0, chi=chi, variant=Variant.PROPOSED)


def as_lists(table: dict) -> dict:
    """The table with each array or coded column as the list of its cells."""
    return {
        name: column if isinstance(column, list) else column.tolist()
        for name, column in table.items()
    }


def sweep_rows(params: ModelParams, theta_min: float, theta_max: float, points: int) -> list:
    return table_records(sweep_table(params, theta_min, theta_max, points))


class TestThermoPoint:
    def test_zero_temperature_endpoint(self):
        point = sweep_rows(trad(0.6), 0.0, 0.3, 2)[0]
        assert point["phase"] == "ordered"
        assert point["c_abs"] == pytest.approx(0.3726779962499649, rel=1e-15)
        assert point["f_per_atom"] == pytest.approx(-0.21666666666666667, rel=1e-15)
        assert point["rz_eq10"] == pytest.approx(-1.0 / 3.0, rel=1e-12)
        assert point["rz_eq4"] == pytest.approx(-1.0 / 3.0, rel=1e-12)
        assert point["nbar"] == 0.0

    def test_record_follows_fixed_schema(self):
        table = sweep_table(prop(0.6), theta_min=0.0, theta_max=0.3, points=2)
        assert list(table) == list(THERMO_COLUMNS)
        assert table["variant"].tolist() == ["proposed", "proposed"]
        # the last row is the point at theta = 0.3, as the scalar core solves
        # it, with plain string cells
        cpl = couplings_at(prop(0.6), 0.3)
        sol = gap_solve(cpl)
        table = as_lists(table)
        assert [column[-1] for column in table.values()] == [
            0.3, cpl.nbar, cpl.lam, cpl.varpi, sol.c_abs, sol.free_energy_per_atom,
            population_inversion(cpl, sol), rz_relaxation(cpl), sol.phase.value, "proposed",
        ]
        assert type(table["phase"][-1]) is str and type(table["variant"][-1]) is str

    def test_proposed_point_carries_occupation(self):
        point = sweep_rows(prop(0.6), 0.0, 0.4, 2)[-1]
        assert point["nbar"] > 0.0
        assert point["lambda"] > 0.6


class TestTemperatureSweep:
    def test_grid_endpoints_are_exact(self):
        assert sweep_table(trad(0.6), 0.0, 0.75, 4)["theta"].tolist() == [0.0, 0.25, 0.5, 0.75]

    def test_transition_is_visible(self):
        rows = sweep_rows(trad(0.6), 0.0, 0.75, 120)
        assert rows[0]["phase"] == "ordered"
        assert rows[-1]["phase"] == "disordered"
        for row in rows:
            if row["phase"] == "disordered":
                assert row["c_abs"] == 0.0
            else:
                assert row["c_abs"] > 0.0

    def test_config_validation(self):
        def bad_range(lo, hi):
            return re.escape(f"need 0 <= theta_min < theta_max, got [{lo}, {hi}]")

        with pytest.raises(DomainError, match=bad_range(-0.1, 0.5)):
            sweep_table(trad(0.6), theta_min=-0.1, theta_max=0.5, points=10)
        with pytest.raises(DomainError, match=bad_range(0.5, 0.5)):
            sweep_table(trad(0.6), theta_min=0.5, theta_max=0.5, points=10)
        with pytest.raises(DomainError, match=re.escape("points must be >= 2, got 1")):
            sweep_table(trad(0.6), theta_min=0.0, theta_max=0.5, points=1)
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError, match=bad_range(0.0, bad)):
                sweep_table(trad(0.6), theta_min=0.0, theta_max=bad, points=10)
            with pytest.raises(DomainError, match=bad_range(bad, 0.5)):
                sweep_table(trad(0.6), theta_min=bad, theta_max=0.5, points=10)
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="theta_cr must be positive and finite"):
                sweep_table(trad(0.6), 0.0, 0.5, 10, bad)

    def test_rejects_a_fractional_point_count(self):
        with pytest.raises(DomainError, match="whole number of points, got 4.5"):
            sweep_table(trad(0.6), 0.0, 0.5, 4.5)
        thetas = sweep_table(trad(0.6), 0.0, 0.75, np.int64(4))["theta"]
        assert thetas.tolist() == [0.0, 0.25, 0.5, 0.75]

    def test_normalized_table_starts_with_theta_norm(self):
        grid = (0.0, 0.6, 80)
        normalized = sweep_table(prop(0.5), *grid, theta_cr=0.3)
        assert list(normalized) == ["theta_norm", *THERMO_COLUMNS]
        assert normalized["theta_norm"][-1] == 0.6 / 0.3
        normalized = as_lists(normalized)
        assert normalized["theta_norm"] == [theta / 0.3 for theta in normalized["theta"]]
        plain = as_lists(sweep_table(prop(0.5), *grid))
        assert {name: normalized[name] for name in THERMO_COLUMNS} == plain

    def test_masked_branches_raise_no_runtime_warnings(self):
        # theta = 0 lanes, subnormal-scale temperatures and varpi = 0 (ratio 0.5
        # with constant couplings) all sit behind masks in the array core.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for params in (prop(0.6), trad(0.6), prop(0.5), trad(0.5), trad(0.3)):
                for theta_min in (0.0, 1e-300):
                    assert len(sweep_rows(params, theta_min, 1.0, 64)) == 64
            for variant in Variant:
                cells, _ = phase_map(variant, (0.25, 0.75), (1e-300, 1.0), nx=5, ny=33)
                assert stacked(cells)["chi_ratio"][2] == 0.5


class TestSweepBlocks:
    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("theta_min", [0.0, 0.05])
    @pytest.mark.parametrize("theta_cr", [None, 0.37])
    def test_the_blocks_stack_to_the_sweep_table(self, variant, theta_min, theta_cr):
        block = sweep._ROW_BLOCK
        args = (ModelParams(omega21=1.0, chi=0.6, variant=variant), theta_min,
                default_theta_max(0.6), 2 * block + 123, theta_cr)
        blocks = list(sweep_blocks(*args))
        assert [len(table["theta"]) for table in blocks] == [block, block, 123]
        whole = sweep_table(*args)
        assert set(whole["phase"].tolist()) == {"ordered", "disordered"}
        assert list(blocks[0]) == list(whole)
        assert stacked(blocks) == as_lists(whole)

    def test_the_arguments_are_checked_by_the_call(self):
        for args in ((0.5, 0.2, 10), (0.0, 1.0, 1), (0.0, 1.0, 4, -1.0)):
            with pytest.raises(DomainError):
                sweep_blocks(trad(0.6), *args)
        with pytest.raises(DomainError, match="takes a float chi"):
            sweep_blocks(ModelParams(omega21=1.0, chi=np.array([0.6])), 0.0, 1.0, 4)


class TestNormalizerAndDefaults:
    def test_normalizer_always_uses_growing_coupling_variant(self):
        # the axis scale comes from the temperature-dependent counterpart
        # even when the sweep itself is the constant-coupling variant
        for params in (trad(0.6), prop(0.6)):
            point = proposed_normalizer(params)
            assert point == pytest.approx(0.5707659565, rel=1e-6)

    def test_normalizer_reports_missing_transition(self):
        with pytest.raises(NoCriticalPointError):
            proposed_normalizer(prop(0.05))

    def test_missing_transition_names_the_scan_range_and_the_exact_ratio(self):
        with pytest.raises(NoCriticalPointError, match=re.escape(
            "chi/omega21 = 0.05 (proposed variant) with theta/omega21 in [0.0001, 2]"
        )):
            proposed_normalizer(trad(0.05))
        # just below the reentrance threshold 0.44034261486: all digits shown
        with pytest.raises(NoCriticalPointError, match=re.escape("= 0.440342614 (")):
            proposed_normalizer(prop(0.440342614))

    def test_default_extent_uses_constant_coupling_closed_form(self):
        assert default_theta_max(0.6) == pytest.approx(3.0 * TRAD_CR_06, rel=1e-12)
        assert default_theta_max(1.0) == pytest.approx(1.5, rel=1e-12)

    def test_default_extent_fallback_without_transition(self):
        assert default_theta_max(0.5) == 2.0
        assert default_theta_max(0.3) == 2.0

    def test_default_extent_rejects_bad_ratio(self):
        with pytest.raises(DomainError):
            default_theta_max(0.0)


class TestFigure1:
    def test_series_layout(self):
        table = stacked(figure1_blocks([0.45, 0.6], points=40))
        assert table["chi_ratio"] == [0.45] * 80 + [0.6] * 80
        rows = table_records(table)
        for block, theta_cr in ((0, 0.4269273096), (80, 0.5707659565)):
            proposed, traditional = rows[block : block + 40], rows[block + 40 : block + 80]
            assert {row["variant"] for row in proposed} == {"proposed"}
            assert {row["variant"] for row in traditional} == {"traditional"}
            assert [row["theta"] for row in proposed] == [row["theta"] for row in traditional]
            assert proposed[0]["theta"] == 0.0
            assert proposed[-1]["theta"] == pytest.approx(1.05 * theta_cr, rel=1e-6)
            assert proposed[-1]["theta_norm"] == pytest.approx(1.05, rel=1e-12)

    def test_blocks_are_the_row_blocks_of_each_sweep(self):
        block = sweep._ROW_BLOCK
        blocks = list(figure1_blocks([0.45, 0.6], points=block + 1))
        assert [len(table["theta"]) for table in blocks] == [block, 1] * 4
        assert [table["chi_ratio"].values for table in blocks] == [[0.45]] * 4 + [[0.6]] * 4

    def test_curve_reaches_zero_at_the_transition(self):
        rows = [row for row in table_records(stacked(figure1_blocks([0.6], points=200)))
                if row["variant"] == "proposed"]
        above = [row for row in rows if row["theta_norm"] > 1.01]
        below = [row for row in rows if 0.0 < row["theta_norm"] < 0.8]
        assert above and all(row["c_abs"] == 0.0 for row in above)
        assert below and all(row["c_abs"] > 0.0 for row in below)

    def test_records_schema(self):
        table = stacked(figure1_blocks([0.6], points=8))
        assert all(len(column) == 2 * 8 for column in table.values())
        assert list(table) == ["chi_ratio", "theta_norm"] + list(THERMO_COLUMNS)
        assert table["theta_norm"][7] == pytest.approx(1.05, rel=1e-12)
        # proposed block first, then traditional: the sweeps of both variants
        # on [0, 1.05 * theta_cr], normalized by the proposed root
        assert table["variant"] == ["proposed"] * 8 + ["traditional"] * 8
        theta_cr = proposed_normalizer(prop(0.6))
        sweeps = stacked(
            sweep_table(prop(0.6)._replace(variant=v), 0.0, 1.05 * theta_cr, 8, theta_cr)
            for v in Variant
        )
        assert {name: table[name] for name in sweeps} == sweeps

    def test_validation(self):
        with pytest.raises(DomainError):
            figure1_blocks([])
        with pytest.raises(DomainError):
            figure1_blocks([1.2])
        with pytest.raises(NoCriticalPointError):
            figure1_blocks([0.05])

    def test_missing_transition_names_the_first_ratio_without_one(self):
        with pytest.raises(NoCriticalPointError, match=re.escape(
            "chi/omega21 = 0.05 (proposed variant) with theta/omega21 in [0.0001, 2]"
        )):
            figure1_blocks([0.6, 0.05, 0.04])

    def test_missing_transition_is_reported_before_an_oversized_grid(self):
        with pytest.raises(NoCriticalPointError):
            figure1_blocks([0.6, 0.05], points=MAX_PHASE_CELLS + 1)
        with pytest.raises(DomainError, match="exceeds the cap"):
            figure1_blocks([0.6], points=MAX_PHASE_CELLS + 1)


class TestFigure2:
    def test_columns_split_at_the_transition(self):
        rows = table_records(stacked(figure2_blocks(0.6, points=80, variant=Variant.PROPOSED)))
        theta_cr = 0.5707659565
        assert rows[0]["theta"] == 0.0
        assert rows[-1]["theta"] == pytest.approx(2.0 * theta_cr, rel=1e-6)
        below = [row for row in rows if 0.0 < row["theta"] < 0.95 * theta_cr]
        above = [row for row in rows if row["theta"] > 1.1 * theta_cr]
        assert below and all(
            abs(row["rz_eq10"] - row["rz_eq4"]) <= 1e-8 for row in below
        ), "columns must coincide in the ordered phase"
        assert above and all(abs(row["rz_eq10"] - row["rz_eq4"]) > 1e-3 for row in above)

    def test_traditional_variant_uses_its_own_scale(self):
        table = stacked(figure2_blocks(0.6, points=20, variant=Variant.TRADITIONAL))
        assert table["theta"][-1] == pytest.approx(2.0 * TRAD_CR_06, rel=1e-6)
        assert table["variant"] == ["traditional"] * 20

    def test_records_schema(self):
        table = stacked(figure2_blocks(0.6, points=5))
        assert list(table) == ["theta", "rz_eq10", "rz_eq4", "variant"]
        # the columns of the variant's sweep on [0, 2 * theta_cr]
        theta_cr = critical_temperatures(prop(0.6), (1e-4, 2.0), grid_points=1024)["theta_cr"][-1]
        sweep = sweep_table(prop(0.6), 0.0, 2.0 * theta_cr, 5)
        assert table == as_lists({name: sweep[name] for name in table})

    def test_missing_transition_is_reported(self):
        with pytest.raises(NoCriticalPointError):
            figure2_blocks(0.5, variant=Variant.TRADITIONAL)
        with pytest.raises(DomainError):
            figure2_blocks(1.5)

    def test_missing_transition_names_the_variant_and_the_scan_range(self):
        with pytest.raises(NoCriticalPointError, match=re.escape(
            "chi/omega21 = 0.5 (traditional variant) with theta/omega21 in [0.0001, 2]"
        )):
            figure2_blocks(0.5, variant=Variant.TRADITIONAL)


def grid_classification(variant, ratios, thetas):
    """Ordered flags of every cell, theta rows by ratio columns, in one array call."""
    params = ModelParams(omega21=1.0, chi=np.array(ratios), variant=variant)
    return ordering_measure(couplings_at(params, np.array(thetas)[:, None])) > 0.0


class TestPhaseMap:
    def test_cells_match_scalar_classification(self):
        cells, _ = phase_map(Variant.PROPOSED, (0.3, 0.7), (0.05, 0.65), nx=9, ny=11)
        cells = stacked(cells)
        assert all(len(column) == 99 for column in cells.values())
        for row in table_records(cells):
            cpl = couplings_at(prop(row["chi_ratio"]), row["theta"])
            assert (row["phase"] == "ordered") == (ordering_measure(cpl) > 0.0)

    def test_boundary_matches_closed_form_per_column(self):
        _, boundary = phase_map(Variant.TRADITIONAL, (0.55, 0.95), (0.05, 0.5), nx=5, ny=64)
        rows = table_records(boundary)
        assert len(rows) == 5
        for row in rows:
            varpi = 1.0 - row["chi_ratio"]
            closed = varpi / (2.0 * math.atanh(varpi / row["chi_ratio"]))
            assert row["kind"] == "vanishing"
            assert row["theta_cr"] == pytest.approx(closed, rel=1e-6)

    def test_records_are_row_major(self):
        cells, _ = phase_map(Variant.PROPOSED, (0.4, 0.6), (0.1, 0.3), nx=3, ny=2)
        cells = stacked(cells)
        assert list(cells) == ["chi_ratio", "theta", "phase", "variant"]
        assert all(len(column) == 6 for column in cells.values())
        assert cells["chi_ratio"] == [0.4, 0.5, 0.6] * 2
        assert cells["theta"] == [0.1] * 3 + [0.3] * 3
        assert cells["variant"] == ["proposed"] * 6
        whole = grid_classification(Variant.PROPOSED, [0.4, 0.5, 0.6], [0.1, 0.3])
        assert cells["phase"] == ["ordered" if flag else "disordered" for flag in whole.ravel()]

    def test_boundary_records_schema(self):
        _, boundary = phase_map(Variant.TRADITIONAL, (0.55, 0.95), (0.05, 0.5), nx=5, ny=64)
        assert list(boundary) == ["chi_ratio", "theta_cr", "kind", "variant"]
        assert boundary["chi_ratio"] == [0.55, 0.65, 0.75, 0.85, 0.95]
        assert all(type(theta) is float for theta in boundary["theta_cr"])
        assert boundary["kind"] == ["vanishing"] * 5
        assert boundary["variant"] == ["traditional"] * 5

    @pytest.mark.parametrize("variant", list(Variant))
    def test_boundary_roots_lie_between_opposite_cells(self, variant):
        # 300x256 cells span two column blocks of the classification
        nx, ny = 300, 256
        cells, boundary = phase_map(variant, (0.05, 0.95), (0.01, 1.0), nx=nx, ny=ny)
        cells = stacked(cells)
        ratios, thetas = cells["chi_ratio"][:nx], cells["theta"][::nx]
        assert len(thetas) == ny
        ordered = np.array(cells["phase"]).reshape(ny, nx) == "ordered"
        assert np.array_equal(ordered, grid_classification(variant, ratios, thetas))
        rows = table_records(boundary)
        assert len(rows) >= 150
        for row in rows:
            column = ratios.index(row["chi_ratio"])
            index = int(np.searchsorted(thetas, row["theta_cr"]))
            assert 0 < index < ny
            assert ordered[index - 1, column] != ordered[index, column]

    @pytest.mark.parametrize("nx, ny", [(2, 5), (11, 40)])
    def test_boundary_of_a_column_at_unit_ratio(self, nx, ny):
        # the last column has varpi = 0 on every cell: ordered iff theta < 1/2
        cells, boundary = phase_map(Variant.TRADITIONAL, (0.5, 1.0), (0.1, 0.9), nx=nx, ny=ny)
        cells = stacked(cells)
        ratios, thetas = cells["chi_ratio"][:nx], np.array(cells["theta"][::nx])
        ordered = np.array(cells["phase"]).reshape(ny, nx) == "ordered"
        assert ordered[:, -1].tolist() == (thetas < 0.5).tolist()
        for column, ratio in enumerate(ratios):
            flips = np.flatnonzero(ordered[1:, column] != ordered[:-1, column])
            roots = [
                theta for r, theta in zip(boundary["chi_ratio"], boundary["theta_cr"]) if r == ratio
            ]
            assert len(roots) == flips.size, ratio
            for flip, root in zip(flips, roots):
                assert thetas[flip] < root < thetas[flip + 1]
        assert (boundary["chi_ratio"][-1], boundary["kind"][-1]) == (1.0, "vanishing")
        assert boundary["theta_cr"][-1] == pytest.approx(0.5, rel=1e-10)

    def test_validation(self):
        with pytest.raises(DomainError):
            phase_map(Variant.PROPOSED, (0.1, 0.5), (0.1, math.inf), nx=4, ny=4)
        with pytest.raises(DomainError):
            phase_map(Variant.PROPOSED, (0.1, math.inf), (0.1, 0.5), nx=4, ny=4)
        with pytest.raises(DomainError):
            phase_map(Variant.PROPOSED, (0.0, 0.5), (0.1, 0.5), nx=4, ny=4)
        with pytest.raises(DomainError):
            phase_map(Variant.PROPOSED, (0.1, 0.5), (0.5, 0.1), nx=4, ny=4)
        with pytest.raises(DomainError):
            phase_map(Variant.PROPOSED, (0.1, 0.5), (0.1, 0.5), nx=1, ny=4)
        with pytest.raises(DomainError):
            phase_map(Variant.PROPOSED, (0.1, 0.5), (0.1, 0.5), nx=4000, ny=3000)
        with pytest.raises(DomainError, match="tol must be positive"):
            phase_map(Variant.PROPOSED, (0.1, 0.5), (0.1, 0.5), nx=4, ny=4, tol=0.0)

    def test_each_tiles_measure_is_evaluated_once(self, monkeypatch):
        # The cells' measure is the node measure of the scan's tiles: one
        # 2-D evaluation per tile of whole lanes by a run of temperatures,
        # covering the map once; every bracket is then bisected in one
        # lockstep loop of 1-D midpoint evaluations.
        shapes = []

        def spy(cpl):
            measure = ordering_measure(cpl)
            shapes.append(np.shape(measure))
            return measure

        monkeypatch.setattr(meanfield, "ordering_measure", spy)
        nx, ny = 300, 256
        _, boundary = phase_map(Variant.PROPOSED, (0.05, 0.95), (0.01, 1.0), nx=nx, ny=ny)
        run = meanfield._TILE_CELLS // nx
        tiles = [(min(run, ny - start), nx) for start in range(0, ny, run)]
        assert [shape for shape in shapes if len(shape) == 2] == tiles
        steps = [shape for shape in shapes if len(shape) == 1]
        assert len(boundary["theta_cr"]) > 150
        assert 0 < len(steps) < 64


class TestSerialize:
    def test_csv_is_rfc4180(self):
        table = {"a": [1.0 / 3.0], "b": ["x,y"], "c": ['he said "hi"'], "d": [7]}
        data = serialize(table)
        assert data == b'a,b,c,d\n0.333333333,"x,y","he said ""hi""",7\n'

    def test_csv_uses_lf_only(self):
        assert b"\r" not in serialize({"a": [1.0, 2.0]})
        # a CR inside a cell is quoted, so it cannot end a row
        assert serialize({"a": ["x\ry", "z"]}) == b'a\n"x\ry"\nz\n'

    def test_precision_controls_significant_digits(self):
        low = serialize({"x": [math.pi]}, precision=6)
        high = serialize({"x": [math.pi]}, precision=17)
        assert low == b"x\n3.14159\n"
        assert float(high.decode().splitlines()[1]) == math.pi

    def test_json_round_trip(self):
        table = {"theta": [0.1234567891234], "phase": ["ordered"], "n": [3]}
        data = serialize(table, "json", precision=9)
        assert data.endswith(b"\n")
        parsed = json.loads(data)
        assert parsed == [{"theta": 0.123456789, "phase": "ordered", "n": 3}]
        # key order is preserved verbatim
        assert data.index(b"theta") < data.index(b"phase") < data.index(b'"n"')

    def test_booleans_serialize_lowercase_in_csv(self):
        assert serialize({"flag": [True]}) == b"flag\ntrue\n"
        assert serialize({"flag": [False, 1.5]}) == b"flag\nfalse\n1.5\n"

    def test_empty_tables_keep_their_columns(self):
        assert serialize({"a": [], "b": []}) == b"a,b\n"
        assert serialize({"a": []}, "json") == b"[]\n"
        assert serialize({}) == b"\n"

    def test_key_order_is_column_order(self):
        assert serialize({"b": [2.0], "a": [1.0]}) == b"b,a\n2,1\n"
        assert serialize({"a": [1.0], "b": [2.0]}) == b"a,b\n1,2\n"

    def test_columns_must_have_equal_length(self):
        with pytest.raises(ValueError):
            serialize({"a": [1.0, 2.0], "b": [1.0]})

    def test_precision_bounds(self):
        for bad in (5, 18, 9.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                serialize({"x": [1.0]}, precision=bad)

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    def test_integral_precision_of_any_type_formats_as_an_int(self, output_format):
        table = {"a": [1.5, math.pi], "b": [1.0 / 3.0, 1.0 / 3.0]}
        expected = serialize(table, output_format, 9)
        for precision in (9.0, np.int64(9), np.float64(9.0)):
            assert serialize(table, output_format, precision) == expected

    def test_unknown_format_is_a_domain_error(self):
        for bad in ("xml", "CSV", ""):
            with pytest.raises(DomainError, match="output format must be 'csv' or 'json'"):
                serialize({"a": [1.5]}, bad)

    def test_byte_identical_across_calls(self):
        table = {"x": [0.1 * i for i in range(20)], "tag": [f"r{i}" for i in range(20)]}
        assert serialize(table) == serialize(table)
        assert serialize(table, "json") == serialize(table, "json")


class TestPlotScript:
    def test_scripts_reference_columns_by_name(self):
        fig1 = plot_script("fig1", "series.csv")
        assert "theta_norm" in fig1 and "c_abs" in fig1 and "series.csv" in fig1
        fig2 = plot_script("fig2", "pop.csv")
        assert "rz_eq10" in fig2 and "rz_eq4" in fig2

    def test_scripts_are_valid_python(self):
        for kind in ("fig1", "fig2"):
            compile(plot_script(kind, "data.csv"), "<plot>", "exec")

    def test_unknown_kind_is_rejected(self):
        # the phase subcommand takes no --plot-script, so phase has no script
        for kind in ("fig3", "phase"):
            with pytest.raises(DomainError, match=r"expected one of \['fig1', 'fig2'\]"):
                plot_script(kind, "x.csv")
