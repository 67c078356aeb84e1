import math
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
    is_ordered,
    ordering_measure,
    population_inversion,
    rz_relaxation,
    validity_report,
    zero_temperature_solution,
)
from quasispin.thermal import Couplings, DomainError, ModelParams, Variant, couplings_at

from oracles import bisection_solution
from oracles import free_energy as oracle_free_energy
from oracles import order_parameter as oracle_order_parameter

# closed form for the constant-coupling transition: |varpi|/(2*artanh(|varpi|/lam))
TRAD_CR_06 = 0.2 / math.atanh(2.0 / 3.0)
# chi/omega21 at which the proposed variant's reentrant window opens
R_STAR = 0.4403426148559534


def trad(chi: float) -> ModelParams:
    return ModelParams(omega21=1.0, chi=chi, variant=Variant.TRADITIONAL)


def prop(chi: float) -> ModelParams:
    return ModelParams(omega21=1.0, chi=chi, variant=Variant.PROPOSED)


class TestFreeEnergy:
    def test_frozen_value(self):
        cpl = Couplings(theta=0.2, nbar=0.0, omega=1.0, lam=0.6, varpi=0.4)
        assert free_energy_per_atom(0.0, cpl) == pytest.approx(
            -0.2253856022085945, abs=1e-14
        )

    def test_matches_textbook_form(self):
        for theta in (0.05, 0.2, 0.7, 3.0):
            for lam, varpi in ((0.6, 0.4), (0.5, 0.5), (1.2, -0.3), (0.9, 0.0)):
                cpl = Couplings(theta=theta, nbar=0.0, omega=lam + varpi, lam=lam, varpi=varpi)
                for c in (0.0, 0.1, 0.25, 0.5):
                    assert free_energy_per_atom(c, cpl) == pytest.approx(
                        oracle_free_energy(c, lam, varpi, theta), rel=1e-12
                    )

    def test_no_overflow_at_tiny_temperature(self):
        cpl = Couplings(theta=1e-12, nbar=0.0, omega=1.0, lam=0.6, varpi=0.4)
        value = free_energy_per_atom(0.3, cpl)
        assert math.isfinite(value)
        # saturated limit: lam*c^2 - E/2
        splitting = math.hypot(0.4, 2.0 * 0.6 * 0.3)
        assert value == pytest.approx(0.6 * 0.09 - 0.5 * splitting, rel=1e-12)

    def test_rejects_bad_arguments(self):
        cpl = Couplings(theta=0.2, nbar=0.0, omega=1.0, lam=0.6, varpi=0.4)
        with pytest.raises(DomainError):
            free_energy_per_atom(-0.1, cpl)
        with pytest.raises(DomainError):
            free_energy_per_atom(0.1, replace(cpl, theta=0.0))


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
        cpl = Couplings(theta=0.31, nbar=0.0, omega=0.7, lam=0.6, varpi=0.1)
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

    def test_rejects_bad_arguments(self):
        good = Couplings(theta=0.2, nbar=0.0, omega=1.0, lam=0.6, varpi=0.4)
        with pytest.raises(DomainError):
            gap_solve(replace(good, theta=0.0))
        with pytest.raises(DomainError):
            gap_solve(replace(good, lam=0.0))
        with pytest.raises(DomainError):
            gap_solve(good, tol=0.0)
        with pytest.raises(DomainError):
            gap_solve(good, tol=0.01)


class TestZeroTemperature:
    def test_ordered_endpoint(self):
        cpl = couplings_at(trad(0.6), 0.0)
        sol = zero_temperature_solution(cpl)
        assert sol.phase is Phase.ORDERED
        assert sol.c_abs == pytest.approx(0.3726779962499649, rel=1e-15)
        assert sol.splitting == 0.6
        assert sol.free_energy_per_atom == pytest.approx(-0.21666666666666667, rel=1e-15)

    def test_disordered_endpoint(self):
        cpl = Couplings(theta=0.0, nbar=0.0, omega=1.0, lam=0.4, varpi=0.6)
        sol = zero_temperature_solution(cpl)
        assert sol.phase is Phase.DISORDERED
        assert sol.c_abs == 0.0
        assert sol.splitting == 0.6
        assert sol.free_energy_per_atom == -0.3

    def test_marginal_coupling_is_disordered(self):
        cpl = Couplings(theta=0.0, nbar=0.0, omega=1.0, lam=0.5, varpi=0.5)
        assert zero_temperature_solution(cpl).phase is Phase.DISORDERED

    def test_continuity_with_small_theta(self):
        cpl0 = couplings_at(trad(0.6), 0.0)
        cpl = couplings_at(trad(0.6), 1e-8)
        assert gap_solve(cpl).c_abs == pytest.approx(
            zero_temperature_solution(cpl0).c_abs, abs=1e-9
        )


class TestCriticalTemperatures:
    def test_constant_coupling_matches_closed_form(self):
        points = critical_temperatures(trad(0.6), (1e-4, 2.0), grid_points=1024)
        assert len(points) == 1
        assert points[0].theta_cr == pytest.approx(TRAD_CR_06, abs=1e-8)
        assert points[0].kind is TransitionKind.VANISHING

    def test_constant_coupling_other_ratio(self):
        points = critical_temperatures(trad(0.9), (1e-4, 2.0), grid_points=1024)
        closed = 0.1 / (2.0 * math.atanh(0.1 / 0.9))
        assert len(points) == 1
        assert points[0].theta_cr == pytest.approx(closed, rel=1e-8)

    def test_marginal_constant_coupling_has_no_transition(self):
        # lam = |varpi|: the measure saturates to zero from below but never
        # crosses; saturation plateaus must not be counted as roots
        assert critical_temperatures(trad(0.5), (1e-6, 5.0), grid_points=512) == []

    def test_weak_constant_coupling_has_no_transition(self):
        assert critical_temperatures(trad(0.4), (1e-4, 2.0), grid_points=512) == []

    def test_reentrant_pair(self):
        points = critical_temperatures(prop(0.45), (1e-4, 2.0), grid_points=1024)
        assert [p.kind for p in points] == [TransitionKind.ONSET, TransitionKind.VANISHING]
        assert points[0].theta_cr == pytest.approx(0.2615809527, rel=1e-6)
        assert points[1].theta_cr == pytest.approx(0.4269273096, rel=1e-6)

    def test_growing_coupling_single_vanishing_point(self):
        points = critical_temperatures(prop(0.6), (1e-4, 2.0), grid_points=1024)
        assert [p.kind for p in points] == [TransitionKind.VANISHING]
        assert points[0].theta_cr == pytest.approx(0.5707659565, rel=1e-6)

    def test_marginal_ratio_keeps_only_the_true_root(self):
        # at chi = omega21/2 the low-theta side saturates exactly to zero;
        # only the genuine high-theta crossing may be reported
        points = critical_temperatures(prop(0.5), (1e-4, 2.0), grid_points=1024)
        assert [p.kind for p in points] == [TransitionKind.VANISHING]
        assert points[0].theta_cr == pytest.approx(0.5195217303, rel=1e-6)

    def test_roots_stable_under_grid_refinement(self):
        for params in (trad(0.6), prop(0.45)):
            coarse = critical_temperatures(params, (1e-4, 2.0), grid_points=512)
            fine = critical_temperatures(params, (1e-4, 2.0), grid_points=1024)
            assert len(coarse) == len(fine)
            for a, b in zip(coarse, fine):
                assert b.theta_cr == pytest.approx(a.theta_cr, rel=1e-9)

    def test_couplings_attached_to_each_root(self):
        point = critical_temperatures(prop(0.6), (1e-4, 2.0), grid_points=512)[0]
        direct = couplings_at(prop(0.6), point.theta_cr)
        assert point.couplings_at_cr == direct

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            critical_temperatures(trad(0.6), (0.0, 2.0))
        with pytest.raises(DomainError):
            critical_temperatures(trad(0.6), (2.0, 1.0))
        with pytest.raises(DomainError):
            critical_temperatures(trad(0.6), (1e-4, 2.0), grid_points=32)
        with pytest.raises(DomainError):
            critical_temperatures(trad(0.6), (1e-4, 2.0), tol=0.0)


class TestPhaseClassification:
    def test_measure_sign_agrees_with_gap_solver(self):
        for params in (trad(0.45), trad(0.5), trad(0.6), prop(0.45), prop(0.5), prop(0.6)):
            for i in range(50):
                theta = 0.02 + i * (1.0 - 0.02) / 49
                cpl = couplings_at(params, theta)
                assert is_ordered(cpl) == (gap_solve(cpl).phase is Phase.ORDERED)

    def test_degenerate_varpi_uses_half_lam(self):
        ordered = Couplings(theta=0.2, nbar=0.0, omega=0.5, lam=0.5, varpi=0.0)
        disordered = Couplings(theta=0.3, nbar=0.0, omega=0.5, lam=0.5, varpi=0.0)
        assert is_ordered(ordered)
        assert not is_ordered(disordered)

    def test_measure_requires_positive_theta(self):
        cpl = Couplings(theta=0.0, nbar=0.0, omega=1.0, lam=0.6, varpi=0.4)
        with pytest.raises(DomainError):
            ordering_measure(cpl)


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
        sol = zero_temperature_solution(cpl)
        assert population_inversion(cpl, sol) == pytest.approx(-1.0 / 3.0, rel=1e-12)

    def test_zero_temperature_disordered_is_fully_polarized(self):
        cpl = Couplings(theta=0.0, nbar=0.0, omega=1.0, lam=0.4, varpi=0.6)
        sol = zero_temperature_solution(cpl)
        assert population_inversion(cpl, sol) == -0.5

    def test_symmetric_point_is_unpolarized(self):
        cpl = Couplings(theta=0.2, nbar=0.0, omega=0.5, lam=0.5, varpi=0.0)
        sol = gap_solve(cpl)
        assert abs(population_inversion(cpl, sol)) <= 1e-14

    def test_bounded_by_half(self):
        for params in (trad(0.6), prop(0.5), prop(0.9)):
            for i in range(40):
                theta = 0.02 + i * 0.05
                cpl = couplings_at(params, theta)
                rz = population_inversion(cpl, gap_solve(cpl))
                assert abs(rz) <= 0.5

    def test_relaxation_requires_positive_lam(self):
        cpl = Couplings(theta=0.2, nbar=0.0, omega=1.0, lam=0.0, varpi=1.0)
        with pytest.raises(DomainError):
            rz_relaxation(cpl)


class TestValidityReport:
    def test_constant_coupling_inside_window(self):
        report = validity_report(trad(0.6), 0.3)
        assert report.bloch_ok
        assert report.window_ok
        assert report.bloch_margin == pytest.approx(100 * 0.6 - 0.4, rel=1e-12)
        assert report.window_lower_margin == pytest.approx(1.0 / 0.6, rel=1e-12)
        assert report.window_upper_margin == pytest.approx(2.0 - 1.0 / 0.6, rel=1e-12)

    def test_weak_coupling_leaves_window(self):
        report = validity_report(trad(0.4), 0.1)
        assert not report.window_ok
        assert report.window_upper_margin < 0.0

    def test_heating_leaves_window(self):
        cold = validity_report(prop(0.6), 0.05)
        hot = validity_report(prop(0.6), 3.0)
        assert cold.window_ok
        assert not hot.window_ok
        assert hot.window_lower_margin < 0.0

    def test_collective_bound_fails_for_tiny_ensembles(self):
        params = ModelParams(omega21=1.0, chi=0.1, n_atoms=2, variant=Variant.TRADITIONAL)
        report = validity_report(params, 0.1)
        assert not report.bloch_ok
        assert report.bloch_margin < 0.0


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
            roots = [p.theta_cr for p in critical_temperatures(params, (1e-4, 2.0), 1024)]
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
            measure, ordered = ordering_measure(warm), is_ordered(warm)
            sol = gap_solve(warm)
            for i, theta in enumerate(thetas.tolist()):
                one = couplings_at(params, theta)
                assert (one.nbar, one.omega, one.lam, one.varpi) == (
                    cpl.nbar[i], cpl.omega[i], cpl.lam[i], cpl.varpi[i]
                )
                if theta == 0.0:
                    continue
                assert ordering_measure(one) == measure[i - 1]
                assert is_ordered(one) == ordered[i - 1]
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
