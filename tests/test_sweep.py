import json
import math
import warnings

import numpy as np
import pytest

from quasispin.meanfield import NoCriticalPointError, Phase, TransitionKind, is_ordered
from quasispin.sweep import (
    THERMO_COLUMNS,
    OutputFormat,
    SweepConfig,
    boundary_records,
    default_theta_max,
    figure1_records,
    figure1_series,
    figure2_records,
    figure2_series,
    phase_map,
    phase_map_records,
    plot_script,
    proposed_normalizer,
    serialize,
    sweep_records,
    temperature_sweep,
    thermo_point,
)
from quasispin.thermal import DomainError, ModelParams, Variant, couplings_at

TRAD_CR_06 = 0.2 / math.atanh(2.0 / 3.0)


def trad(chi: float) -> ModelParams:
    return ModelParams(omega21=1.0, chi=chi, variant=Variant.TRADITIONAL)


def prop(chi: float) -> ModelParams:
    return ModelParams(omega21=1.0, chi=chi, variant=Variant.PROPOSED)


class TestThermoPoint:
    def test_zero_temperature_endpoint(self):
        point = thermo_point(trad(0.6), 0.0)
        assert point.phase is Phase.ORDERED
        assert point.c_abs == pytest.approx(0.3726779962499649, rel=1e-15)
        assert point.f_per_atom == pytest.approx(-0.21666666666666667, rel=1e-15)
        assert point.rz_eq10 == pytest.approx(-1.0 / 3.0, rel=1e-12)
        assert point.rz_eq4 == pytest.approx(-1.0 / 3.0, rel=1e-12)
        assert point.nbar == 0.0

    def test_record_follows_fixed_schema(self):
        record = thermo_point(prop(0.6), 0.3).record()
        assert list(record.keys()) == list(THERMO_COLUMNS)
        assert record["variant"] == "proposed"
        assert record["phase"] in ("ordered", "disordered")

    def test_proposed_point_carries_occupation(self):
        point = thermo_point(prop(0.6), 0.4)
        assert point.nbar > 0.0
        assert point.lam > 0.6


class TestTemperatureSweep:
    def test_grid_endpoints_are_exact(self):
        cfg = SweepConfig(params=trad(0.6), theta_min=0.0, theta_max=0.75, points=4)
        points = temperature_sweep(cfg)
        assert [p.theta for p in points] == [0.0, 0.25, 0.5, 0.75]

    def test_transition_is_visible(self):
        cfg = SweepConfig(params=trad(0.6), theta_min=0.0, theta_max=0.75, points=120)
        points = temperature_sweep(cfg)
        phases = [p.phase for p in points]
        assert phases[0] is Phase.ORDERED
        assert phases[-1] is Phase.DISORDERED
        for point in points:
            if point.phase is Phase.DISORDERED:
                assert point.c_abs == 0.0
            else:
                assert point.c_abs > 0.0

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SweepConfig(params=trad(0.6), theta_min=-0.1, theta_max=0.5, points=10)
        with pytest.raises(DomainError):
            SweepConfig(params=trad(0.6), theta_min=0.5, theta_max=0.5, points=10)
        with pytest.raises(DomainError):
            SweepConfig(params=trad(0.6), theta_min=0.0, theta_max=0.5, points=1)
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError):
                SweepConfig(params=trad(0.6), theta_min=0.0, theta_max=bad, points=10)
            with pytest.raises(DomainError):
                SweepConfig(params=trad(0.6), theta_min=bad, theta_max=0.5, points=10)

    def test_records_match_points(self):
        cfg = SweepConfig(params=prop(0.5), theta_min=0.0, theta_max=0.6, points=80)
        assert sweep_records(cfg) == [p.record() for p in temperature_sweep(cfg)]
        normalized = sweep_records(cfg, theta_cr=0.3)
        assert list(normalized[0]) == ["theta_norm", *THERMO_COLUMNS]
        assert normalized[-1]["theta_norm"] == 0.6 / 0.3

    def test_masked_branches_raise_no_runtime_warnings(self):
        # theta = 0 lanes, subnormal-scale temperatures and varpi = 0 (ratio 0.5
        # with constant couplings) all sit behind masks in the array core.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for params in (prop(0.6), trad(0.6), prop(0.5), trad(0.5), trad(0.3)):
                for theta_min in (0.0, 1e-300):
                    cfg = SweepConfig(params=params, theta_min=theta_min, theta_max=1.0, points=64)
                    assert len(temperature_sweep(cfg)) == 64
            for variant in Variant:
                pmap = phase_map(variant, (0.25, 0.75), (1e-300, 1.0), nx=5, ny=33)
                assert pmap.chi_ratios[2] == 0.5


class TestNormalizerAndDefaults:
    def test_normalizer_always_uses_growing_coupling_variant(self):
        # the axis scale comes from the temperature-dependent counterpart
        # even when the sweep itself is the constant-coupling variant
        for params in (trad(0.6), prop(0.6)):
            point = proposed_normalizer(params)
            assert point.theta_cr == pytest.approx(0.5707659565, rel=1e-6)

    def test_normalizer_reports_missing_transition(self):
        with pytest.raises(NoCriticalPointError):
            proposed_normalizer(prop(0.05))

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
        series = figure1_series([0.45, 0.6], points=40)
        assert [s.chi_ratio for s in series] == [0.45, 0.6]
        assert series[0].theta_cr_max == pytest.approx(0.4269273096, rel=1e-6)
        assert series[1].theta_cr_max == pytest.approx(0.5707659565, rel=1e-6)
        for entry in series:
            assert len(entry.proposed) == 40
            assert len(entry.traditional) == 40
            assert entry.proposed[0].theta == 0.0
            assert entry.proposed[-1].theta == pytest.approx(
                1.05 * entry.theta_cr_max, rel=1e-12
            )

    def test_curve_reaches_zero_at_the_transition(self):
        series = figure1_series([0.6], points=200)[0]
        above = [p for p in series.proposed if p.theta > 1.01 * series.theta_cr_max]
        below = [p for p in series.proposed if 0.0 < p.theta < 0.8 * series.theta_cr_max]
        assert above and all(p.c_abs == 0.0 for p in above)
        assert below and all(p.c_abs > 0.0 for p in below)

    def test_records_schema(self):
        series = figure1_series([0.6], points=8)
        records = figure1_records(series)
        assert len(records) == 2 * 8
        assert list(records[0].keys()) == ["chi_ratio", "theta_norm"] + list(THERMO_COLUMNS)
        assert records[7]["theta_norm"] == pytest.approx(1.05, rel=1e-12)
        # proposed block first, then traditional
        assert [r["variant"] for r in records] == ["proposed"] * 8 + ["traditional"] * 8

    def test_validation(self):
        with pytest.raises(DomainError):
            figure1_series([])
        with pytest.raises(DomainError):
            figure1_series([1.2])
        with pytest.raises(NoCriticalPointError):
            figure1_series([0.05])


class TestFigure2:
    def test_columns_split_at_the_transition(self):
        points = figure2_series(0.6, points=80, variant=Variant.PROPOSED)
        theta_cr = 0.5707659565
        assert points[0].theta == 0.0
        assert points[-1].theta == pytest.approx(2.0 * theta_cr, rel=1e-6)
        below = [p for p in points if 0.0 < p.theta < 0.95 * theta_cr]
        above = [p for p in points if p.theta > 1.1 * theta_cr]
        assert below and all(
            abs(p.rz_eq10 - p.rz_eq4) <= 1e-8 for p in below
        ), "columns must coincide in the ordered phase"
        assert above and all(abs(p.rz_eq10 - p.rz_eq4) > 1e-3 for p in above)

    def test_traditional_variant_uses_its_own_scale(self):
        points = figure2_series(0.6, points=20, variant=Variant.TRADITIONAL)
        assert points[-1].theta == pytest.approx(2.0 * TRAD_CR_06, rel=1e-6)
        assert all(p.variant is Variant.TRADITIONAL for p in points)

    def test_records_schema(self):
        records = figure2_records(figure2_series(0.6, points=5))
        assert list(records[0].keys()) == ["theta", "rz_eq10", "rz_eq4", "variant"]

    def test_missing_transition_is_reported(self):
        with pytest.raises(NoCriticalPointError):
            figure2_series(0.5, variant=Variant.TRADITIONAL)
        with pytest.raises(DomainError):
            figure2_series(1.5)


class TestPhaseMap:
    def test_cells_match_scalar_classification(self):
        pmap = phase_map(Variant.PROPOSED, (0.3, 0.7), (0.05, 0.65), nx=9, ny=11)
        assert pmap.ordered.shape == (11, 9)
        assert pmap.ordered.dtype == np.bool_
        for i, theta in enumerate(pmap.thetas):
            for j, ratio in enumerate(pmap.chi_ratios):
                cpl = couplings_at(prop(ratio), theta)
                assert pmap.ordered[i, j] == is_ordered(cpl)

    def test_boundary_matches_closed_form_per_column(self):
        pmap = phase_map(Variant.TRADITIONAL, (0.55, 0.95), (0.05, 0.5), nx=5, ny=64)
        assert len(pmap.boundary) == 5
        for point in pmap.boundary:
            varpi = 1.0 - point.chi_ratio
            closed = varpi / (2.0 * math.atanh(varpi / point.chi_ratio))
            assert point.kind is TransitionKind.VANISHING
            assert point.theta_cr == pytest.approx(closed, rel=1e-6)

    def test_records_are_row_major(self):
        pmap = phase_map(Variant.PROPOSED, (0.4, 0.6), (0.1, 0.3), nx=3, ny=2)
        records = phase_map_records(pmap)
        assert len(records) == 6
        assert [r["chi_ratio"] for r in records[:3]] == [0.4, 0.5, 0.6]
        assert records[0]["theta"] == 0.1
        assert records[3]["theta"] == 0.3
        assert all(r["variant"] == "proposed" for r in records)
        assert set(r["phase"] for r in records) <= {"ordered", "disordered"}

    def test_boundary_records_schema(self):
        pmap = phase_map(Variant.TRADITIONAL, (0.55, 0.95), (0.05, 0.5), nx=5, ny=64)
        records = boundary_records(pmap)
        assert list(records[0].keys()) == ["chi_ratio", "theta_cr", "kind", "variant"]

    @pytest.mark.parametrize("variant", list(Variant))
    def test_boundary_roots_lie_between_opposite_cells(self, variant):
        # 300x256 cells span two column blocks of the classification
        pmap = phase_map(variant, (0.05, 0.95), (0.01, 1.0), nx=300, ny=256)
        assert len(pmap.boundary) >= 150
        params = ModelParams(omega21=1.0, chi=np.array(pmap.chi_ratios), variant=variant)
        whole = is_ordered(couplings_at(params, np.array(pmap.thetas)[:, None]))
        assert np.array_equal(pmap.ordered, whole)
        for point in pmap.boundary:
            column = pmap.chi_ratios.index(point.chi_ratio)
            row = int(np.searchsorted(pmap.thetas, point.theta_cr))
            assert 0 < row < len(pmap.thetas)
            assert pmap.ordered[row - 1, column] != pmap.ordered[row, column]

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


class TestSerialize:
    def test_csv_is_rfc4180(self):
        records = [{"a": 1.0 / 3.0, "b": "x,y", "c": 'he said "hi"', "d": 7}]
        data = serialize(records)
        assert data == b'a,b,c,d\n0.333333333,"x,y","he said ""hi""",7\n'

    def test_csv_uses_lf_only(self):
        records = [{"a": 1.0}, {"a": 2.0}]
        assert b"\r" not in serialize(records)

    def test_precision_controls_significant_digits(self):
        low = serialize([{"x": math.pi}], precision=6)
        high = serialize([{"x": math.pi}], precision=17)
        assert low == b"x\n3.14159\n"
        assert float(high.decode().splitlines()[1]) == math.pi

    def test_json_round_trip(self):
        records = [{"theta": 0.1234567891234, "phase": "ordered", "n": 3}]
        data = serialize(records, OutputFormat.JSON, precision=9)
        assert data.endswith(b"\n")
        parsed = json.loads(data)
        assert parsed == [{"theta": 0.123456789, "phase": "ordered", "n": 3}]
        # key order is preserved verbatim
        assert data.index(b"theta") < data.index(b"phase") < data.index(b'"n"')

    def test_booleans_serialize_lowercase_in_csv(self):
        assert serialize([{"flag": True}]) == b"flag\ntrue\n"

    def test_empty_records_need_fieldnames(self):
        assert serialize([], fieldnames=["a", "b"]) == b"a,b\n"
        assert serialize([], OutputFormat.JSON, fieldnames=["a"]) == b"[]\n"
        with pytest.raises(DomainError):
            serialize([])

    def test_fieldnames_select_and_order_columns(self):
        records = [{"b": 2.0, "a": 1.0}]
        assert serialize(records, fieldnames=["a", "b"]) == b"a,b\n1,2\n"

    def test_precision_bounds(self):
        for bad in (5, 18, 9.5):
            with pytest.raises(DomainError):
                serialize([{"x": 1.0}], precision=bad)

    def test_byte_identical_across_calls(self):
        records = [{"x": 0.1 * i, "tag": f"r{i}"} for i in range(20)]
        assert serialize(records) == serialize(records)
        assert serialize(records, OutputFormat.JSON) == serialize(records, OutputFormat.JSON)


class TestPlotScript:
    def test_scripts_reference_columns_by_name(self):
        fig1 = plot_script("fig1", "series.csv")
        assert "theta_norm" in fig1 and "c_abs" in fig1 and "series.csv" in fig1
        fig2 = plot_script("fig2", "pop.csv")
        assert "rz_eq10" in fig2 and "rz_eq4" in fig2
        phase = plot_script("phase", "map.csv")
        assert "chi_ratio" in phase

    def test_scripts_are_valid_python(self):
        for kind in ("fig1", "fig2", "phase"):
            compile(plot_script(kind, "data.csv"), "<plot>", "exec")

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(DomainError):
            plot_script("fig3", "x.csv")
