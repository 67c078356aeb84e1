"""Acceptance suite: one test per criterion, at the stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.
"""

import math
import random

import numpy as np
import pytest

from quasispin.cli import EXIT_OK, main
from quasispin.exact import compare_meanfield, dicke_spectrum, ground_state_m
from quasispin.meanfield import (
    Phase,
    critical_temperatures,
    free_energy_per_atom,
    gap_solve,
    population_inversion,
    rz_relaxation,
)
from quasispin.thermal import ModelParams, Variant, couplings_at

from oracles import ladder_ground_m, order_parameter as oracle_order_parameter, temperature_sweep

SCAN = (1e-4, 2.0)
GRID = 1024


def params_for(ratio: float, variant: Variant) -> ModelParams:
    return ModelParams(omega21=1.0, chi=ratio, variant=variant)


def test_criterion_01_gap_solution_matches_brute_force_minimizer():
    """|c_solver - c_bruteforce| <= 1e-6 for both variants across ratios and temperatures."""
    thetas = np.linspace(0.08, 1.2, 50)
    ratios = [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    worst = 0.0
    for variant in (Variant.PROPOSED, Variant.TRADITIONAL):
        for ratio in ratios:
            params = params_for(ratio, variant)
            for theta in thetas:
                cpl = couplings_at(params, float(theta))
                sol = gap_solve(cpl)
                reference = oracle_order_parameter(cpl.lam, cpl.varpi, cpl.theta)
                worst = max(worst, abs(sol.c_abs - reference))
    assert worst <= 1e-6, f"worst |c - c_ref| = {worst:.3e}"


def test_criterion_02_constant_coupling_transition_matches_closed_form():
    """Scanned transition for the constant-coupling variant at ratio 0.6 hits the closed form to 1e-8."""
    closed = 0.2 / math.atanh(2.0 / 3.0)
    table = critical_temperatures(params_for(0.6, Variant.TRADITIONAL), SCAN, GRID)
    assert len(table["theta_cr"]) == 1
    assert abs(table["theta_cr"][0] - closed) <= 1e-8
    assert table["kind"] == ["vanishing"]


def test_criterion_03_marginal_constant_coupling_has_no_transition():
    """Ratio 0.5 with constant couplings never orders: the scan must return nothing."""
    table = critical_temperatures(
        params_for(0.5, Variant.TRADITIONAL), (1e-6, 5.0), grid_points=512
    )
    assert table["theta_cr"] == []


def test_criterion_04_growing_couplings_raise_the_transition():
    """The temperature-dependent variant orders up to a strictly higher temperature."""
    margin = 10.0 * 1e-10
    for ratio in (0.51, 0.6):
        proposed = critical_temperatures(params_for(ratio, Variant.PROPOSED), SCAN, GRID)
        traditional = critical_temperatures(params_for(ratio, Variant.TRADITIONAL), SCAN, GRID)
        assert proposed["theta_cr"] and traditional["theta_cr"]
        assert proposed["theta_cr"][-1] > traditional["theta_cr"][-1] + margin


def test_criterion_05_marginal_ratio_is_reentrant_with_growing_couplings():
    """Ratio 0.5: disordered at the bottom, ordered in between, disordered above the root."""
    params = params_for(0.5, Variant.PROPOSED)
    table = critical_temperatures(params, SCAN, GRID)
    assert table["kind"] == ["vanishing"]
    (root,) = table["theta_cr"]

    assert gap_solve(couplings_at(params, 1e-6)).phase is Phase.DISORDERED
    profile = [
        gap_solve(couplings_at(params, float(t))).c_abs for t in np.linspace(0.01, 0.5, 100)
    ]
    assert max(profile) == pytest.approx(0.3090161109810497, abs=2e-3)
    assert gap_solve(couplings_at(params, root * 1.001)).phase is Phase.DISORDERED
    assert gap_solve(couplings_at(params, 0.6)).phase is Phase.DISORDERED


def test_criterion_06_equilibrium_polarization_equals_relaxation_value_when_ordered():
    """|rz_eq10 - rz_eq4| <= 1e-8 at every ordered sweep point and at the transition itself."""
    for variant in (Variant.PROPOSED, Variant.TRADITIONAL):
        params = params_for(0.6, variant)
        theta_cr = critical_temperatures(params, SCAN, GRID)["theta_cr"][-1]
        points = temperature_sweep(params, 0.0, 2.0 * theta_cr, 200)
        ordered = [p for p in points if p.phase is Phase.ORDERED]
        assert ordered, "sweep must contain ordered points"
        for point in ordered:
            assert abs(point.rz_eq10 - point.rz_eq4) <= 1e-8

        cpl = couplings_at(params, theta_cr)
        at_cr = population_inversion(cpl, gap_solve(cpl))
        assert abs(at_cr - rz_relaxation(cpl)) <= 1e-8


def test_criterion_07_ordered_solutions_are_stationary_points():
    """Central difference |dF/dc| <= 1e-6 (step 1e-5) at every ordered solution."""
    step = 1e-5
    checked = 0
    for variant in (Variant.PROPOSED, Variant.TRADITIONAL):
        for ratio in (0.45, 0.5, 0.6, 0.9):
            params = params_for(ratio, variant)
            for theta in np.linspace(0.02, 1.2, 40):
                cpl = couplings_at(params, float(theta))
                sol = gap_solve(cpl)
                if sol.phase is not Phase.ORDERED or sol.c_abs <= step:
                    continue
                derivative = (
                    free_energy_per_atom(sol.c_abs + step, cpl)
                    - free_energy_per_atom(sol.c_abs - step, cpl)
                ) / (2.0 * step)
                assert abs(derivative) <= 1e-6, (
                    f"variant={variant.value} ratio={ratio} theta={theta}: dF/dc={derivative:.3e}"
                )
                checked += 1
    assert checked > 50


def test_criterion_08_exact_ladder_ground_state_and_low_temperature_limit():
    """Closed-form ladder minimum matches enumeration; theta -> 0 Gibbs sits within half a step of the saturated value."""
    rng = random.Random(7)
    for _ in range(200):
        n_atoms = rng.randrange(2, 80)
        lambda_n = rng.uniform(0.05, 2.0)
        varpi = rng.uniform(-3.0, 3.0)
        spectrum = dicke_spectrum(n_atoms, lambda_n, varpi)
        assert ground_state_m(spectrum) == ladder_ground_m(n_atoms, lambda_n, varpi)

    params = params_for(0.6, Variant.TRADITIONAL)
    table = compare_meanfield(params, 1e-6, [8, 64, 512])
    assert table["n_atoms"] == [8, 64, 512]
    for n_atoms, deviation in zip(table["n_atoms"], table["deviation"]):
        assert deviation <= 0.5 / n_atoms + 1e-9


def test_criterion_09_couplings_are_monotone_in_temperature():
    """Growing-coupling variant: lam strictly increases and varpi strictly decreases with theta."""
    for ratio in (0.3, 0.6):
        params = params_for(ratio, Variant.PROPOSED)
        cpls = [couplings_at(params, float(t)) for t in np.linspace(0.05, 3.0, 256)]
        for a, b in zip(cpls, cpls[1:]):
            assert b.lam > a.lam
            assert b.varpi < a.varpi


def test_criterion_10_cli_outputs_are_byte_identical(tmp_path):
    """fig1/fig2/phase runs are reproducible byte for byte, independent of --threads."""

    def run(name: str, argv: list[str]) -> bytes:
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        return out.read_bytes()

    fig1 = ["fig1", "--ratios", "0.45,0.6", "--points", "60"]
    fig2 = ["fig2", "--chi-ratio", "0.6", "--points", "50"]
    phase = [
        "phase", "--chi-min", "0.3", "--chi-max", "0.7",
        "--theta-min", "0.05", "--theta-max", "0.65", "--nx", "12", "--ny", "16",
    ]
    for label, argv in (("fig1", fig1), ("fig2", fig2), ("phase", phase)):
        first = run(f"{label}_a.csv", argv)
        second = run(f"{label}_b.csv", argv)
        pooled = run(f"{label}_c.csv", argv + ["--threads", "3"])
        assert first == second, f"{label}: repeated run differs"
        assert first == pooled, f"{label}: thread count changed the output"
        assert first.startswith(b"theta") or first.startswith(b"chi_ratio")
