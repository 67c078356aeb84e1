import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasispin.meanfield as meanfield
from quasispin.meanfield import (
    Phase,
    TransitionKind,
    critical_temperatures,
    free_energy_per_atom,
    gap_solve,
    ordering_measure,
    population_inversion,
    rz_relaxation,
    transition_roots,
    uniform_grid,
)
from quasispin.cli import EXIT_OK, main
from quasispin.exact import compare_meanfield
from quasispin.sweep import _SCAN_CEIL, _SCAN_FLOOR, phase_map, proposed_normalizer, sweep_table
from quasispin.thermal import Couplings, DomainError, ModelParams, Variant, couplings_at
from quasispin.thermal import mean_photon_number

from oracles import bisection_solution, stacked
from oracles import free_energy as oracle_free_energy
from oracles import order_parameter as oracle_order_parameter

# closed form for the constant-coupling transition: |varpi|/(2*artanh(|varpi|/lam))
TRAD_CR_06 = 0.2 / math.atanh(2.0 / 3.0)
# chi/omega21 at which the proposed variant's reentrant window opens
R_STAR = 0.4403426148559534
# Columns of a critical_temperatures table, in order
CRITICAL_COLUMNS = ("theta_cr", "kind", "nbar", "lambda", "varpi", "variant")


def trad(chi: float) -> ModelParams:
    return ModelParams(omega21=1.0, chi=chi, variant=Variant.TRADITIONAL)


def prop(chi: float) -> ModelParams:
    return ModelParams(omega21=1.0, chi=chi, variant=Variant.PROPOSED)


class TestFreeEnergy:
    def test_frozen_value(self):
        cpl = Couplings(theta=0.2, nbar=0.0, lam=0.6, varpi=0.4)
        assert free_energy_per_atom(0.0, cpl) == pytest.approx(
            -0.2253856022085945, abs=1e-14
        )

    def test_matches_textbook_form(self):
        for theta in (0.05, 0.2, 0.7, 3.0):
            for lam, varpi in ((0.6, 0.4), (0.5, 0.5), (1.2, -0.3), (0.9, 0.0)):
                cpl = Couplings(theta=theta, nbar=0.0, lam=lam, varpi=varpi)
                for c in (0.0, 0.1, 0.25, 0.5):
                    assert free_energy_per_atom(c, cpl) == pytest.approx(
                        oracle_free_energy(c, lam, varpi, theta), rel=1e-12
                    )

    def test_no_overflow_at_tiny_temperature(self):
        cpl = Couplings(theta=1e-12, nbar=0.0, lam=0.6, varpi=0.4)
        value = free_energy_per_atom(0.3, cpl)
        assert math.isfinite(value)
        # saturated limit: lam*c^2 - E/2
        splitting = math.hypot(0.4, 2.0 * 0.6 * 0.3)
        assert value == pytest.approx(0.6 * 0.09 - 0.5 * splitting, rel=1e-12)

    def test_huge_coupling_at_zero_order_stays_finite(self):
        # 2*lam alone overflows to inf, and inf*0 is nan; RuntimeWarnings are errors here
        cpl = Couplings(theta=0.1, nbar=0.0, lam=1e308, varpi=-1e308)
        assert free_energy_per_atom(0.0, cpl) == -0.5e308

    def test_rejects_bad_arguments(self):
        cpl = Couplings(theta=0.2, nbar=0.0, lam=0.6, varpi=0.4)
        for c_abs in (-0.1, math.nan):
            with pytest.raises(DomainError, match="c_abs must be non-negative"):
                free_energy_per_atom(c_abs, cpl)


class TestGapSolve:
    def test_ordered_just_below_constant_coupling_transition(self):
        cpl = couplings_at(trad(0.6), TRAD_CR_06 * (1.0 - 1e-4))
        sol = gap_solve(cpl)
        assert sol.phase is Phase.ORDERED
        assert 0.0 < sol.c_abs < 0.02
        assert sol.splitting > abs(cpl.varpi)

    def test_disordered_just_above_constant_coupling_transition(self):
        cpl = couplings_at(trad(0.6), TRAD_CR_06 * (1.0 + 1e-4))
        sol = gap_solve(cpl)
        assert sol.phase is Phase.DISORDERED
        assert sol.c_abs == 0.0
        assert sol.splitting == abs(cpl.varpi)

    def test_matches_brute_force_minimizer(self):
        cases = [
            (trad(0.6), 0.1),
            (trad(0.6), 0.2),
            (trad(0.6), 0.26),
            (trad(0.9), 0.3),
            (prop(0.5), 0.2),
            (prop(0.5), 0.35),
            (prop(0.45), 0.35),
            (prop(0.6), 0.45),
        ]
        for params, theta in cases:
            cpl = couplings_at(params, theta)
            sol = gap_solve(cpl)
            reference = oracle_order_parameter(cpl.lam, cpl.varpi, cpl.theta)
            assert sol.c_abs == pytest.approx(reference, abs=1e-6)

    def test_solution_is_a_free_energy_minimum(self):
        cpl = couplings_at(trad(0.6), 0.15)
        sol = gap_solve(cpl)
        center = free_energy_per_atom(sol.c_abs, cpl)
        assert center <= free_energy_per_atom(0.0, cpl)
        assert center <= free_energy_per_atom(sol.c_abs + 1e-4, cpl)
        assert center <= free_energy_per_atom(sol.c_abs - 1e-4, cpl)

    def test_residual_is_tiny(self):
        for theta in (0.05, 0.15, 0.2, 0.24):
            sol = gap_solve(couplings_at(trad(0.6), theta))
            assert sol.residual <= 1e-12

    def test_disordered_above_half_lam(self):
        # no root of the gap equation exists at all for theta >= lam/2
        cpl = Couplings(theta=0.31, nbar=0.0, lam=0.6, varpi=0.1)
        assert gap_solve(cpl).phase is Phase.DISORDERED

    @settings(max_examples=60, deadline=None)
    @given(
        chi=st.floats(0.35, 0.9),
        theta=st.floats(0.05, 1.0),
        scale=st.floats(0.1, 10.0),
    )
    def test_scale_invariance(self, chi, theta, scale):
        # physics depends only on energy ratios: scaling every energy and
        # the temperature by the same factor leaves c unchanged and scales
        # the free energy linearly
        base = couplings_at(prop(chi), theta)
        scaled = couplings_at(
            ModelParams(omega21=scale, chi=chi * scale, omega_k=0.5 * scale), theta * scale
        )
        sol = gap_solve(base)
        sol_scaled = gap_solve(scaled)
        assert sol_scaled.phase == sol.phase
        assert sol_scaled.c_abs == pytest.approx(sol.c_abs, abs=1e-9)
        assert sol_scaled.free_energy_per_atom == pytest.approx(
            scale * sol.free_energy_per_atom, rel=1e-9
        )

    def test_an_ordered_lane_whose_square_overflows_is_rejected(self):
        # lam > |varpi| at 1e200: ordered, but lam**2 is past the float range
        huge = ModelParams(omega21=1.5e200, chi=1e200, variant=Variant.TRADITIONAL)
        cpl = couplings_at(huge, 0.1)
        with pytest.raises(DomainError, match="lam = 1e\\+200 overflows its square"):
            gap_solve(cpl)
        # a lane disordered by a wide margin solves without a warning
        lanes = Couplings(
            theta=np.full(2, 0.1), nbar=np.zeros(2),
            lam=np.array([0.6, 1.0]), varpi=np.array([0.4, -1e300]),
        )
        assert list(gap_solve(lanes).phase) == ["ordered", "disordered"]

    def test_a_free_energy_past_the_float_range_is_rejected(self):
        # 2*lam overflows on a disordered lane: past the solver's float range
        cpl = Couplings(theta=0.1, nbar=0.0, lam=1e308, varpi=-1e308)
        with pytest.raises(DomainError, match=re.escape("past the float range at lam = 1e+308")):
            gap_solve(cpl)

    def test_rejects_bad_arguments(self):
        good = Couplings(theta=0.2, nbar=0.0, lam=0.6, varpi=0.4)
        for theta in (-1e-300, -0.2, math.nan, math.inf):
            with pytest.raises(DomainError, match="theta must be non-negative and finite"):
                gap_solve(replace(good, theta=theta))
        with pytest.raises(DomainError):
            gap_solve(replace(good, lam=0.0))

    @pytest.mark.parametrize(
        "lam, varpi",
        [(0.6, 0.4), (0.4, 0.6), (0.5, 0.5), (0.5, -0.5), (0.5, 0.0), (1e308, -0.5)],
        ids=["ordered", "disordered", "marginal", "marginal-negative", "zero-varpi", "huge-lam"],
    )
    def test_scalar_zero_temperature_is_the_zero_lane_of_an_array(self, lam, varpi):
        # one core for every shape: a float theta = 0 gives the bits of a theta = 0
        # lane, the saturated limit of the same formulas
        scalar = Couplings(theta=0.0, nbar=0.0, lam=lam, varpi=varpi)
        lanes = Couplings(
            theta=np.array([0.0, 0.2]), nbar=np.zeros(2),
            lam=np.full(2, lam), varpi=np.full(2, varpi),
        )
        measure = ordering_measure(scalar)
        assert type(measure) is float
        limit = lam - abs(varpi) if varpi else 0.5 * lam
        assert _bits(measure) == _bits(ordering_measure(lanes)[0]) == _bits(limit)
        for c_abs in (0.0, 0.25):
            energy = free_energy_per_atom(c_abs, scalar)
            assert type(energy) is float
            limit = lam * c_abs * c_abs - 0.5 * np.hypot(varpi, lam * (2.0 * c_abs))
            assert _bits(energy) == _bits(free_energy_per_atom(c_abs, lanes)[0]) == _bits(limit)
        if varpi == 0.0:
            assert _bits(free_energy_per_atom(0.0, scalar)) == _bits(0.0)
        if lam == 1e308:
            messages = []
            for cpl in (scalar, lanes):
                with pytest.raises(DomainError) as error:
                    gap_solve(cpl)
                messages.append(str(error.value))
            assert messages[0] == messages[1] == "gap_solve: lam = 1e+308 overflows its square"
            return
        one, many = gap_solve(scalar), gap_solve(lanes)
        assert one.phase is Phase(many.phase[0])
        assert (measure > 0.0) == (one.phase is Phase.ORDERED)
        assert one.free_energy_per_atom == free_energy_per_atom(one.c_abs, scalar)
        for name in ("c_abs", "splitting", "residual", "free_energy_per_atom"):
            value, lane = getattr(one, name), getattr(many, name)[0]
            assert type(value) is float
            assert np.array([value]).tobytes() == np.array([lane]).tobytes(), name


class TestZeroTemperature:
    def test_ordered_endpoint(self):
        cpl = couplings_at(trad(0.6), 0.0)
        sol = gap_solve(cpl)
        assert sol.phase is Phase.ORDERED
        assert sol.c_abs == pytest.approx(0.3726779962499649, rel=1e-15)
        assert sol.splitting == 0.6
        assert sol.free_energy_per_atom == pytest.approx(-0.21666666666666667, rel=1e-15)

    def test_disordered_endpoint(self):
        cpl = Couplings(theta=0.0, nbar=0.0, lam=0.4, varpi=0.6)
        sol = gap_solve(cpl)
        assert sol.phase is Phase.DISORDERED
        assert sol.c_abs == 0.0
        assert sol.splitting == 0.6
        assert sol.free_energy_per_atom == -0.3

    def test_marginal_coupling_is_disordered(self):
        cpl = Couplings(theta=0.0, nbar=0.0, lam=0.5, varpi=0.5)
        assert gap_solve(cpl).phase is Phase.DISORDERED

    def test_continuity_with_small_theta(self):
        cpl0 = couplings_at(trad(0.6), 0.0)
        cpl = couplings_at(trad(0.6), 1e-8)
        assert gap_solve(cpl).c_abs == pytest.approx(gap_solve(cpl0).c_abs, abs=1e-9)


class TestTemperatureDomain:
    # One range check, 0 <= theta < inf, for every core function of a temperature
    CALLS = {
        "couplings_at-proposed": lambda theta: couplings_at(prop(0.6), theta),
        "couplings_at-traditional": lambda theta: couplings_at(trad(0.6), theta),
        "mean_photon_number": lambda theta: mean_photon_number(theta, 0.5),
        "gap_solve": lambda theta: gap_solve(Couplings(theta, 0.0, 0.6, 0.4)),
        "free_energy_per_atom": lambda theta: free_energy_per_atom(
            0.1, Couplings(theta, 0.0, 0.6, 0.4)
        ),
        "ordering_measure": lambda theta: ordering_measure(Couplings(theta, 0.0, 0.6, 0.4)),
    }

    @pytest.mark.parametrize("name", list(CALLS))
    def test_one_temperature_range(self, name):
        call = self.CALLS[name]
        for theta in (0.0, 5e-324):
            call(theta)  # every warning is an error here
        for theta in (-1e-300, math.nan, math.inf):
            with pytest.raises(DomainError) as error:
                call(theta)
            assert str(error.value) == f"theta must be non-negative and finite, got {theta!r}"


def _bits(value: float) -> bytes:
    return np.array([value], dtype=float).tobytes()


class TestCriticalTemperatures:
    def test_constant_coupling_matches_closed_form(self):
        table = critical_temperatures(trad(0.6), (1e-4, 2.0), grid_points=1024)
        assert len(table["theta_cr"]) == 1
        assert table["theta_cr"][0] == pytest.approx(TRAD_CR_06, abs=1e-8)
        assert table["kind"] == [TransitionKind.VANISHING.value]

    def test_constant_coupling_other_ratio(self):
        table = critical_temperatures(trad(0.9), (1e-4, 2.0), grid_points=1024)
        closed = 0.1 / (2.0 * math.atanh(0.1 / 0.9))
        assert len(table["theta_cr"]) == 1
        assert table["theta_cr"][0] == pytest.approx(closed, rel=1e-8)

    def test_marginal_constant_coupling_has_no_transition(self):
        # lam = |varpi|: the measure saturates to zero from below but never
        # crosses; saturation plateaus must not be counted as roots
        table = critical_temperatures(trad(0.5), (1e-6, 5.0), grid_points=512)
        assert table == dict.fromkeys(CRITICAL_COLUMNS, [])

    def test_weak_constant_coupling_has_no_transition(self):
        table = critical_temperatures(trad(0.4), (1e-4, 2.0), grid_points=512)
        assert table == dict.fromkeys(CRITICAL_COLUMNS, [])

    @pytest.mark.parametrize("params", [trad(1.0), ModelParams(1.0, 1.0, omega_k=1000.0)])
    def test_vanishing_varpi_has_its_root_at_half_lam(self, params):
        # varpi = 0 on every node below theta ~ 1.34 in both models (at
        # omega_k = 1000 nbar underflows to 0 there), so the measure is
        # lam/2 - theta; ratios 1 +- 1e-10 find the same root within tol
        table = critical_temperatures(params, (1e-4, 2.0))
        assert table["kind"] == [TransitionKind.VANISHING.value]
        assert (table["nbar"], table["lambda"], table["varpi"]) == ([0.0], [1.0], [0.0])
        assert table["theta_cr"][0] == pytest.approx(0.5, rel=1e-10)
        for ratio in (1.0 - 1e-10, 1.0 + 1e-10):
            (near,) = critical_temperatures(replace(params, chi=ratio), (1e-4, 2.0))["theta_cr"]
            assert near == pytest.approx(table["theta_cr"][0], rel=1e-9)

    def test_reentrant_pair(self):
        table = critical_temperatures(prop(0.45), (1e-4, 2.0), grid_points=1024)
        assert table["kind"] == [TransitionKind.ONSET.value, TransitionKind.VANISHING.value]
        assert table["theta_cr"][0] == pytest.approx(0.2615809527, rel=1e-6)
        assert table["theta_cr"][1] == pytest.approx(0.4269273096, rel=1e-6)

    def test_growing_coupling_single_vanishing_point(self):
        table = critical_temperatures(prop(0.6), (1e-4, 2.0), grid_points=1024)
        assert table["kind"] == [TransitionKind.VANISHING.value]
        assert table["theta_cr"][0] == pytest.approx(0.5707659565, rel=1e-6)

    def test_marginal_ratio_keeps_only_the_true_root(self):
        # at chi = omega21/2 the low-theta side saturates exactly to zero;
        # only the genuine high-theta crossing may be reported
        table = critical_temperatures(prop(0.5), (1e-4, 2.0), grid_points=1024)
        assert table["kind"] == [TransitionKind.VANISHING.value]
        assert table["theta_cr"][0] == pytest.approx(0.5195217303, rel=1e-6)

    def test_roots_stable_under_grid_refinement(self):
        for params in (trad(0.6), prop(0.45)):
            coarse = critical_temperatures(params, (1e-4, 2.0), grid_points=512)["theta_cr"]
            fine = critical_temperatures(params, (1e-4, 2.0), grid_points=1024)["theta_cr"]
            assert len(coarse) == len(fine)
            for a, b in zip(coarse, fine):
                assert b == pytest.approx(a, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(R_STAR + 1e-3, 0.999))
    def test_scan_ceiling_lies_above_every_proposed_root(self, ratio):
        # The normalizer and fig2 scan only up to _SCAN_CEIL*omega21; a scan
        # five times wider finds the same last root and nothing above it.
        wide = critical_temperatures(prop(ratio), (_SCAN_FLOOR, 10.0), grid_points=4096)
        assert wide["theta_cr"] and wide["theta_cr"][-1] < _SCAN_CEIL
        normalizer = proposed_normalizer(prop(ratio))
        assert normalizer == pytest.approx(wide["theta_cr"][-1], rel=1e-9)

    def test_last_root_near_unit_ratio(self):
        root = proposed_normalizer(prop(0.999))
        assert root == pytest.approx(0.5530967, abs=1e-7)

    def test_couplings_attached_to_each_root(self):
        # the array couplings of all roots equal the scalar ones bit for bit
        for params in (prop(0.6), prop(0.45), trad(0.6), ModelParams(2.0, 1.3, omega_k=0.7)):
            table = critical_temperatures(params, (1e-4, 4.0), grid_points=512)
            assert table["theta_cr"]
            for row in zip(*table.values()):
                direct = couplings_at(params, row[0])
                assert row[2:] == (direct.nbar, direct.lam, direct.varpi, params.variant.value)

    def test_columns_are_those_of_the_critical_csv(self, capsys):
        from quasispin.cli import main

        table = critical_temperatures(prop(0.45), (1e-4, 2.0))
        assert list(table) == list(CRITICAL_COLUMNS)
        assert main(["critical", "--chi-ratio", "0.45", "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == ",".join(table)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            critical_temperatures(trad(0.6), (0.0, 2.0))
        with pytest.raises(DomainError):
            critical_temperatures(trad(0.6), (2.0, 1.0))
        with pytest.raises(DomainError):
            critical_temperatures(trad(0.6), (1e-4, 2.0), grid_points=32)
        with pytest.raises(DomainError):
            critical_temperatures(trad(0.6), (1e-4, 2.0), tol=0.0)


class TestTransitionRoots:
    # Ratios with 0, 1 and 2 roots on a 4096-node grid, a reentrant window
    # only that grid resolves (R_STAR + 1e-7), and a repeated ratio.
    RATIOS = [0.05, 0.3, 0.45, 0.6, R_STAR + 1e-7, 0.9, 0.45]
    GRID = uniform_grid(1e-4, 2.0, 4096)

    @pytest.mark.parametrize("omega_k", [0.5, 0.3])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_lanes_equal_scalar_scans(self, variant, omega_k):
        params = ModelParams(omega21=1.0, chi=np.array(self.RATIOS), omega_k=omega_k, variant=variant)
        lanes = transition_roots(params, self.GRID)
        assert [lane for _, _, lane in lanes] == sorted(lane for _, _, lane in lanes)
        for index, ratio in enumerate(self.RATIOS):
            scalar = transition_roots(replace(params, chi=ratio), self.GRID)
            assert {lane for _, _, lane in scalar} <= {0}
            assert transition_roots(replace(params, chi=np.array([ratio])), self.GRID) == scalar
            mine = [(root, kind) for root, kind, lane in lanes if lane == index]
            assert mine == [(root, kind) for root, kind, _ in scalar]

    def test_lanes_cover_zero_one_and_two_roots(self):
        params = ModelParams(omega21=1.0, chi=np.array(self.RATIOS))
        lanes = [lane for _, _, lane in transition_roots(params, self.GRID)]
        counts = [lanes.count(index) for index in range(len(self.RATIOS))]
        assert counts == [0, 0, 2, 1, 2, 1, 2]

    @pytest.mark.parametrize("variant", list(Variant))
    def test_phase_map_boundary_is_the_per_column_scan(self, variant):
        _, boundary = phase_map(variant, (0.42, 0.62), (0.05, 1.0), nx=11, ny=300, omega_k=0.45)
        ratios, thetas = uniform_grid(0.42, 0.62, 11), uniform_grid(0.05, 1.0, 300)
        rows = [
            (ratio, root, kind.value)
            for ratio in ratios.tolist()
            for root, kind, _ in transition_roots(
                ModelParams(omega21=1.0, chi=ratio, omega_k=0.45, variant=variant), thetas
            )
        ]
        assert rows
        assert list(zip(boundary["chi_ratio"], boundary["theta_cr"], boundary["kind"])) == rows

    @pytest.mark.parametrize(
        "grid, tol",
        [
            (np.array([[0.1, 0.2], [0.3, 0.4]]), 1e-10),  # not 1-D
            (np.array([0.1]), 1e-10),  # one node
            (np.array([0.1, 0.2, 0.2, 0.3]), 1e-10),  # repeated node
            (np.array([0.3, 0.2, 0.1]), 1e-10),  # decreasing
            (np.array([0.1, math.nan, 0.3]), 1e-10),
            (np.array([0.1, 0.2]), 0.0),
            (np.array([0.1, 0.2]), -1e-10),
            (np.array([0.1, 0.2]), math.nan),
        ],
    )
    def test_rejects_a_bad_grid_or_tol(self, grid, tol):
        with pytest.raises(DomainError):
            transition_roots(prop(0.6), grid, tol)

    def test_uniform_grid_needs_two_points(self):
        for points in (1, 0, -3):
            with pytest.raises(DomainError, match="at least 2"):
                uniform_grid(0.1, 0.2, points)

    def test_uniform_grid_needs_a_whole_number_of_points(self):
        for points in (4.5, 100.5, np.float64(2.5), math.nan):
            with pytest.raises(DomainError, match="whole number of points"):
                uniform_grid(0.0, 1.0, points)
        with pytest.raises(DomainError, match="whole number of points, got 100.5"):
            critical_temperatures(trad(0.6), (1e-4, 2.0), grid_points=100.5)
        assert uniform_grid(0.0, 1.0, np.int64(5)).tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert uniform_grid(0.0, 1.0, 5.0).tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_critical_temperatures_rejects_lanes(self):
        with pytest.raises(DomainError, match="float chi"):
            critical_temperatures(ModelParams(omega21=1.0, chi=np.array([0.45, 0.6])), (1e-4, 2.0))

    @pytest.mark.parametrize(
        "entry, call",
        [
            ("sweep_table", lambda params: sweep_table(params, 0.0, 1.0, 2)),
            ("sweep_table", lambda params: sweep_table(params, 0.0, 1.0, 3)),
            ("compare_meanfield", lambda params: compare_meanfield(params, 0.1, [8])),
            ("proposed_normalizer", proposed_normalizer),
        ],
        ids=["sweep_table-2", "sweep_table-3", "exact", "normalizer"],
    )
    def test_entries_that_solve_one_model_reject_lanes(self, entry, call):
        with pytest.raises(DomainError, match=f"{entry} takes a float chi"):
            call(ModelParams(omega21=1.0, chi=np.array([0.6, 0.7])))

    def test_rejects_a_chi_of_more_than_one_dimension(self):
        params = ModelParams(omega21=1.0, chi=np.full((2, 2), 0.6))
        with pytest.raises(DomainError, match="1-D"):
            transition_roots(params, self.GRID)


class TestTiledScan:
    # Tile sizes of a few cells, so that theta runs end on every few nodes
    # and lanes are split, and of more than any grid here, so that a scan is
    # one tile.
    TILES = [2, 7, 10**9]
    RATIOS = TestTransitionRoots.RATIOS + [0.5, 1.0, 1.3]

    @pytest.mark.parametrize("tile", TILES)
    @pytest.mark.parametrize("variant", list(Variant))
    def test_the_tile_size_changes_no_root(self, monkeypatch, variant, tile):
        params = ModelParams(omega21=1.0, chi=np.array(self.RATIOS), variant=variant)
        # the second grid resolves the reentrant window at R_STAR + 1e-7
        grids = [uniform_grid(1e-4, 2.0, 128), uniform_grid(0.34, 0.355, 128)]
        expected = [transition_roots(params, grid) for grid in grids]
        monkeypatch.setattr(meanfield, "_TILE_CELLS", tile)
        assert [transition_roots(params, grid) for grid in grids] == expected
        assert len(expected[0]) >= 4

    @pytest.mark.parametrize("tile", TILES)
    @pytest.mark.parametrize("variant", list(Variant))
    def test_the_tile_size_changes_no_cell_of_a_phase_map(self, monkeypatch, variant, tile):
        args = (variant, (0.42, 1.2), (0.01, 1.0), 13, 97)
        cells, boundary = phase_map(*args)
        expected = stacked(cells), boundary
        monkeypatch.setattr(meanfield, "_TILE_CELLS", tile)
        cells, boundary = phase_map(*args)
        assert (stacked(cells), boundary) == expected
        assert len(boundary["theta_cr"]) >= 10

    @pytest.mark.parametrize("tile", [3, 10**9])
    def test_the_tile_size_changes_no_cli_byte(self, monkeypatch, tmp_path, capsys, tile):
        runs = [
            ["critical", "--chi-ratio", repr(R_STAR + 1e-7), "--variant", "both",
             "--points", "4096", "--precision", "17"],
            ["critical", "--chi-ratio", "0.6", "--variant", "both", "--format", "json"],
            ["phase", "--chi-min", "0.42", "--chi-max", "0.62", "--nx", "23", "--ny", "31",
             "--precision", "17", "--boundary-out", str(tmp_path / "boundary")],
            ["fig1", "--ratios", "0.45,0.6", "--points", "50", "--format", "json"],
        ]

        def outputs():
            results = []
            for argv in runs:
                assert main(argv) == EXIT_OK
                results.append(capsys.readouterr().out)
            return results, (tmp_path / "boundary").read_bytes()

        expected = outputs()
        monkeypatch.setattr(meanfield, "_TILE_CELLS", tile)
        assert outputs() == expected
        assert expected[1].count(b"\n") > 10

    @staticmethod
    def _brackets(monkeypatch, signs, tile):
        # The (lo, hi, up) brackets that a scan of one lane brackets on the
        # nodes 1, 2, ... whose measures have the given signs, in tiles of
        # tile nodes; the root then lies in the first zero or sign change
        # after lo.
        grid = np.arange(1.0, len(signs) + 1.0)

        def measure(cpl):
            theta = np.asarray(cpl.theta, dtype=float)
            index = np.minimum(np.floor(theta - 0.5).astype(int), len(signs) - 1)
            return np.broadcast_to(np.take(signs, index), np.shape(cpl.lam)).astype(float)

        seen = []
        bisect = meanfield._sign_change_roots

        def spy(params, chi, tol, lo, hi, up, lane):
            seen.extend(zip(lo.tolist(), hi.tolist(), up.tolist()))
            return bisect(params, chi, tol, lo, hi, up, lane)

        monkeypatch.setattr(meanfield, "ordering_measure", measure)
        monkeypatch.setattr(meanfield, "_sign_change_roots", spy)
        monkeypatch.setattr(meanfield, "_TILE_CELLS", tile)
        roots = transition_roots(prop(0.6), grid)
        assert len(roots) == len(seen)
        return seen

    @pytest.mark.parametrize("tile", [2, 3, 100])
    def test_a_zero_run_across_a_tile_edge_is_skipped(self, monkeypatch, tile):
        # nodes 3..7 are exact zeros: with tiles of 2 or 3 nodes the run
        # crosses tile edges, and the sign change across it is one bracket
        # from node 2 to node 8
        signs = [1, 1, 0, 0, 0, 0, 0, -1, -1, -1]
        assert self._brackets(monkeypatch, signs, tile) == [(2.0, 8.0, True)]
        flipped = [-sign for sign in signs]
        assert self._brackets(monkeypatch, flipped, tile) == [(2.0, 8.0, False)]

    @pytest.mark.parametrize("tile", [2, 3, 100])
    def test_a_zero_run_between_equal_signs_is_no_bracket(self, monkeypatch, tile):
        for signs in ([1, 1, 0, 0, 0, 0, 0, 1, 1, 1], [0, 0, 0, -1, 0, 0, -1, -1, 0, 0]):
            assert self._brackets(monkeypatch, signs, tile) == []

    @pytest.mark.parametrize("tile", [1, 2, 3, 100])
    def test_a_sign_change_on_a_tile_edge_is_bracketed(self, monkeypatch, tile):
        signs = [1, 1, -1, -1, 0, 1, -1, 0, 0, 0]
        assert self._brackets(monkeypatch, signs, tile) == [
            (2.0, 3.0, True), (4.0, 6.0, False), (6.0, 7.0, True)
        ]


class TestPhaseClassification:
    def test_measure_sign_agrees_with_gap_solver(self):
        models = [trad(0.45), trad(0.5), trad(0.6), prop(0.45), prop(0.5), prop(0.6)]
        # varpi = 0 below theta ~ 1.34, where the measure is lam/2 - theta
        models += [trad(1.0), ModelParams(1.0, 1.0, omega_k=1000.0)]
        for params in models:
            for i in range(50):
                theta = 0.02 + i * (1.0 - 0.02) / 49
                cpl = couplings_at(params, theta)
                assert (ordering_measure(cpl) > 0.0) == (gap_solve(cpl).phase is Phase.ORDERED)

    def test_degenerate_varpi_uses_half_lam(self):
        ordered = Couplings(theta=0.2, nbar=0.0, lam=0.5, varpi=0.0)
        disordered = Couplings(theta=0.3, nbar=0.0, lam=0.5, varpi=0.0)
        assert ordering_measure(ordered) > 0.0
        assert not ordering_measure(disordered) > 0.0

    def test_measure_sign_agrees_with_gap_solver_off_the_last_ulps_of_a_root(self):
        # The two tests round differently within a few tens of ulps of theta
        # around a root; 1e4 ulps away, on either side, they agree on every lane.
        ratios = np.linspace(0.3, 1.5, 200)
        for variant in Variant:
            params = ModelParams(omega21=1.0, chi=ratios, variant=variant)
            roots = transition_roots(params, uniform_grid(1e-4, 2.0, 1024), tol=1e-300)
            theta_cr = np.array([root for root, _, _ in roots])
            lane = np.array([lane for _, _, lane in roots])
            assert len(roots) >= 150
            shift = 1e4 * np.spacing(theta_cr)
            thetas = np.concatenate([theta_cr - shift, theta_cr + shift])
            chi = np.concatenate([ratios[lane], ratios[lane]])
            cpl = couplings_at(ModelParams(omega21=1.0, chi=chi, variant=variant), thetas)
            ordered = gap_solve(cpl).phase == Phase.ORDERED.value
            assert np.array_equal(ordering_measure(cpl) > 0.0, ordered), variant
            # each root separates the phases at this distance
            assert np.all(ordered[: len(roots)] != ordered[len(roots):]), variant


class TestPopulationInversion:
    def test_matches_relaxation_value_in_ordered_phase(self):
        cpl = couplings_at(trad(0.6), 0.2)
        sol = gap_solve(cpl)
        assert sol.phase is Phase.ORDERED
        assert population_inversion(cpl, sol) == pytest.approx(
            rz_relaxation(cpl), abs=1e-10
        )

    def test_disordered_value(self):
        cpl = couplings_at(trad(0.6), 0.3)
        sol = gap_solve(cpl)
        assert sol.phase is Phase.DISORDERED
        expected = -0.5 * math.tanh(0.4 / 0.6)  # -(varpi/2E)*tanh(E/2theta), E = |varpi|
        assert population_inversion(cpl, sol) == pytest.approx(expected, rel=1e-12)

    def test_saturates_at_zero_temperature(self):
        cpl = couplings_at(trad(0.6), 0.0)
        sol = gap_solve(cpl)
        assert population_inversion(cpl, sol) == pytest.approx(-1.0 / 3.0, rel=1e-12)

    def test_zero_temperature_disordered_is_fully_polarized(self):
        cpl = Couplings(theta=0.0, nbar=0.0, lam=0.4, varpi=0.6)
        sol = gap_solve(cpl)
        assert population_inversion(cpl, sol) == -0.5

    def test_symmetric_point_is_unpolarized(self):
        cpl = Couplings(theta=0.2, nbar=0.0, lam=0.5, varpi=0.0)
        sol = gap_solve(cpl)
        assert abs(population_inversion(cpl, sol)) <= 1e-14

    def test_zero_varpi_is_unsigned_zero(self):
        # -varpi/... would read -0.0 on a varpi = +0.0 lane, cold or warm
        lanes = Couplings(
            theta=np.array([0.0, 0.2, 0.3]), nbar=np.zeros(3),
            lam=np.full(3, 0.5), varpi=np.zeros(3),
        )
        assert gap_solve(lanes).phase.tolist() == ["ordered", "ordered", "disordered"]
        zeros = np.zeros(3).tobytes()
        assert population_inversion(lanes, gap_solve(lanes)).tobytes() == zeros
        assert rz_relaxation(lanes).tobytes() == zeros
        one = Couplings(theta=0.0, nbar=0.0, lam=0.5, varpi=0.0)
        assert _bits(population_inversion(one, gap_solve(one))) == _bits(0.0)
        assert _bits(rz_relaxation(one)) == _bits(0.0)

    def test_bounded_by_half(self):
        for params in (trad(0.6), prop(0.5), prop(0.9)):
            for i in range(40):
                theta = 0.02 + i * 0.05
                cpl = couplings_at(params, theta)
                rz = population_inversion(cpl, gap_solve(cpl))
                assert abs(rz) <= 0.5

    @pytest.mark.parametrize("lam, varpi", [(5e-324, 1.0), (1e308, -1e308)])
    def test_relaxation_value_past_the_float_range_is_rejected(self, lam, varpi):
        # -varpi/(2*lam) read -inf at a subnormal lam, and 0 (not 0.5) once 2*lam overflowed
        cpl = Couplings(theta=0.2, nbar=0.0, lam=lam, varpi=varpi)
        with pytest.raises(DomainError, match=re.escape(f"past the float range at lam = {lam:g}")):
            rz_relaxation(cpl)

    def test_relaxation_requires_positive_lam(self):
        cpl = Couplings(theta=0.2, nbar=0.0, lam=0.0, varpi=1.0)
        with pytest.raises(DomainError):
            rz_relaxation(cpl)


def _half_lam_crossing(params: ModelParams) -> float | None:
    # Largest theta found with theta < lam(theta)/2 next to the crossing
    # theta = lam(theta)/2, where the gap root shrinks to 0; None if no crossing.
    def below(theta: float) -> bool:
        return theta < 0.5 * couplings_at(params, theta).lam

    lo, hi = 1e-3, 2.0
    if not below(lo) or below(hi):
        return None
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return lo
        lo, hi = (mid, hi) if below(mid) else (lo, mid)


def _solver_allowance(lam: float, theta: float, splitting: float, c_abs: float) -> float:
    # Two float solvers each pin the splitting E to a few ulps of lam divided
    # by |g'(E)|, g(E) = lam*tanh(E/(2*theta)) - E, and c = sqrt(E**2 -
    # varpi**2)/(2*lam) passes a change dE on as E*dE/(4*lam**2*c). Away from
    # transitions that is far below 1e-12; at a transition c -> 0 and no two
    # float solvers can agree to 1e-12, neither being closer to the exact c.
    if c_abs == 0.0 or theta == 0.0:
        return 1e-12
    slope = lam * (1.0 - math.tanh(splitting / (2.0 * theta)) ** 2) / (2.0 * theta) - 1.0
    d_splitting = 8.0 * np.finfo(float).eps * lam / max(abs(slope), 1e-300)
    return max(1e-12, splitting * d_splitting / (4.0 * lam * lam * c_abs))


class TestArrayCore:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_matches_bisection_oracle(self, variant):
        ratios = [0.05 + 0.05 * k for k in range(1, 18)] + [R_STAR + 1e-7]
        ordered, worst_residual = 0, 0.0
        for ratio in ratios:
            params = ModelParams(omega21=1.0, chi=ratio, variant=variant)
            roots = critical_temperatures(params, (1e-4, 2.0), 1024)["theta_cr"]
            top = roots[-1] if roots else 1.0
            thetas = [0.0, 1e-300, *np.linspace(0.0, 3.0 * top, 200)[1:]]
            thetas += [root * (1.0 + d) for root in roots for d in (-1e-9, 0.0, 1e-9)]
            crossing = _half_lam_crossing(params)
            if crossing is not None:
                thetas += [crossing] + [crossing * (1.0 - 10.0**-k) for k in range(1, 16)]
            cpl = couplings_at(params, np.array(thetas))
            sol = gap_solve(cpl)
            rz = population_inversion(cpl, sol)
            worst_residual = max(worst_residual, sol.residual.max())
            for i, theta in enumerate(thetas):
                ref = bisection_solution(float(cpl.lam[i]), float(cpl.varpi[i]), theta)
                where = f"{variant.value} ratio={ratio} theta={theta!r}"
                assert sol.phase[i] == ref["phase"], where
                allowed = _solver_allowance(cpl.lam[i], theta, ref["splitting"], ref["c_abs"])
                assert abs(sol.c_abs[i] - ref["c_abs"]) <= allowed, where
                assert abs(sol.free_energy_per_atom[i] - ref["f_per_atom"]) <= 1e-12, where
                assert abs(rz[i] - ref["rz_eq10"]) <= 1e-12, where
                ordered += ref["phase"] == "ordered"
        assert ordered > 200 and worst_residual <= 1e-14

    def test_scalar_and_array_forms_agree(self):
        thetas = np.concatenate([[0.0, 1e-300], np.linspace(0.01, 2.0, 97)])
        cases = (prop(0.45), prop(0.5), trad(0.5), trad(0.6), ModelParams(2.0, 0.7, omega_k=0.8))
        for params in cases:
            cpl = couplings_at(params, thetas)
            warm = couplings_at(params, thetas[1:])
            measure = ordering_measure(warm)
            ordered = measure > 0.0
            sol = gap_solve(warm)
            for i, theta in enumerate(thetas.tolist()):
                one = couplings_at(params, theta)
                assert (one.nbar, one.lam, one.varpi) == (cpl.nbar[i], cpl.lam[i], cpl.varpi[i])
                if theta == 0.0:
                    continue
                assert ordering_measure(one) == measure[i - 1]
                assert (ordering_measure(one) > 0.0) == ordered[i - 1]
                scalar = gap_solve(one)
                assert scalar.phase.value == sol.phase[i - 1]
                assert scalar.c_abs == sol.c_abs[i - 1]
                assert scalar.free_energy_per_atom == sol.free_energy_per_atom[i - 1]

    def test_unconverged_lane_raises(self, monkeypatch):
        monkeypatch.setattr(meanfield, "_NEWTON_CAP", 2)
        with pytest.raises(RuntimeError, match="not converged"):
            gap_solve(couplings_at(trad(0.6), np.array([0.05, 0.29])))

    def test_rejects_non_finite_scan_range(self):
        with pytest.raises(DomainError):
            critical_temperatures(trad(0.6), (1e-4, math.inf))

    def test_rejects_grids_with_repeated_nodes(self):
        ulp_above = math.nextafter(0.5, 1.0)
        for points in (3, 4, 1000):
            with pytest.raises(DomainError, match="not all distinct"):
                meanfield.uniform_grid(0.5, ulp_above, points)
        assert meanfield.uniform_grid(0.5, ulp_above, 2).tolist() == [0.5, ulp_above]
        with pytest.raises(DomainError):
            critical_temperatures(trad(0.6), (0.5, ulp_above), grid_points=64)
