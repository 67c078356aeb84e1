import math
import random
import tracemalloc

import numpy as np
import pytest

from quasispin.exact import (
    MAX_LADDER_ATOMS,
    _weighted_levels,
    compare_meanfield,
    dicke_spectrum,
    gibbs_observables,
    ground_state_m,
)
from quasispin.meanfield import rz_relaxation
from quasispin.thermal import DomainError, ModelParams, Variant, couplings_at

from oracles import ladder_ground_m, ladder_rz

TRAD_CR_06 = 0.2 / math.atanh(2.0 / 3.0)


def trad06() -> ModelParams:
    return ModelParams(omega21=1.0, chi=0.6, variant=Variant.TRADITIONAL)


class TestSpectrum:
    def test_two_atom_ladder(self):
        spectrum = dicke_spectrum(2, 0.3, 0.4)
        assert spectrum.spin == 1.0
        assert spectrum.m_values.tolist() == [-1.0, 0.0, 1.0]
        assert spectrum.energies == pytest.approx([-0.7, -0.6, 0.1], rel=1e-12)

    def test_odd_count_gives_half_integer_labels(self):
        spectrum = dicke_spectrum(5, 0.2, 0.1)
        assert spectrum.spin == 2.5
        assert spectrum.m_values.tolist() == [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5]
        assert len(spectrum.energies) == 6

    def test_second_difference_is_constant(self):
        spectrum = dicke_spectrum(12, 0.07, -0.3)
        second = np.diff(spectrum.energies, n=2)
        assert second == pytest.approx(np.full(11, 2 * 0.07), rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            dicke_spectrum(1, 0.1, 0.5)
        with pytest.raises(DomainError):
            dicke_spectrum(2.5, 0.1, 0.5)
        with pytest.raises(DomainError):
            dicke_spectrum(MAX_LADDER_ATOMS + 1, 0.1, 0.5)
        with pytest.raises(DomainError):
            dicke_spectrum(8, 0.0, 0.5)
        with pytest.raises(DomainError, match="ladder energies past the float range"):
            dicke_spectrum(8, 1e300, 1e308)


class TestGroundState:
    def test_exact_tie_takes_the_smaller_label(self):
        # continuous minimizer sits exactly at -2.5: the levels m = -3 and
        # m = -2 are degenerate (up to rounding in the evaluated energies)
        # and the tie rule picks the smaller label
        spectrum = dicke_spectrum(10, 0.1, 0.5)
        index_m3 = int(-3 + spectrum.spin)
        index_m2 = int(-2 + spectrum.spin)
        assert -spectrum.varpi / (2.0 * spectrum.lambda_n) == -2.5
        assert spectrum.energies[index_m3] == pytest.approx(
            spectrum.energies[index_m2], abs=1e-14
        )
        assert ground_state_m(spectrum) == -3.0

    def test_clamps_to_the_ladder_ends(self):
        down = dicke_spectrum(6, 0.05, 4.0)  # strong positive varpi pushes m to -j
        up = dicke_spectrum(6, 0.05, -4.0)
        assert ground_state_m(down) == -3.0
        assert ground_state_m(up) == 3.0

    def test_minimizer_past_the_float_range_clamps(self):
        # -varpi/(2*lambda_n) overflows to -inf or inf at a subnormal coupling
        assert ground_state_m(dicke_spectrum(6, 1e-320, 4.0)) == -3.0
        assert ground_state_m(dicke_spectrum(6, 1e-320, -4.0)) == 3.0

    def test_matches_enumeration_on_random_draws(self):
        rng = random.Random(20260816)
        for _ in range(200):
            n_atoms = rng.randrange(2, 60)
            lambda_n = rng.uniform(0.05, 2.0)
            varpi = rng.uniform(-3.0, 3.0)
            spectrum = dicke_spectrum(n_atoms, lambda_n, varpi)
            assert ground_state_m(spectrum) == ladder_ground_m(n_atoms, lambda_n, varpi)


class TestGibbs:
    def test_matches_direct_summation(self):
        for theta in (0.05, 0.3, 2.0):
            for varpi in (0.5, -0.5, 0.0):
                spectrum = dicke_spectrum(8, 0.1, varpi)
                obs = gibbs_observables(spectrum, theta)
                assert obs.rz_per_atom == pytest.approx(
                    ladder_rz(8, 0.1, varpi, theta), rel=1e-12, abs=1e-15
                )

    def test_polarization_is_bounded(self):
        spectrum = dicke_spectrum(16, 0.2, -1.0)
        for theta in (0.01, 0.1, 1.0, 10.0):
            obs = gibbs_observables(spectrum, theta)
            assert -0.5 <= obs.rz_per_atom <= 0.5

    def test_symmetric_spectrum_is_unpolarized(self):
        spectrum = dicke_spectrum(8, 0.1, 0.0)
        assert abs(gibbs_observables(spectrum, 0.3).rz_per_atom) <= 1e-14

    def test_tiny_temperature_reaches_the_ground_state(self):
        spectrum = dicke_spectrum(8, 0.075, 0.4)  # lam = 0.6 at N = 8
        obs = gibbs_observables(spectrum, 1e-8)
        assert obs.z_shifted == pytest.approx(1.0, rel=1e-12)
        assert obs.rz_per_atom == pytest.approx(ground_state_m(spectrum) / 8.0, rel=1e-12)
        assert obs.f_per_atom == pytest.approx(float(spectrum.energies.min()) / 8.0, rel=1e-12)

    def test_free_energy_below_ground_energy(self):
        spectrum = dicke_spectrum(8, 0.1, 0.5)
        obs = gibbs_observables(spectrum, 0.4)
        assert obs.f_per_atom <= float(spectrum.energies.min()) / 8.0

    def test_requires_positive_theta(self):
        spectrum = dicke_spectrum(4, 0.1, 0.5)
        with pytest.raises(DomainError):
            gibbs_observables(spectrum, 0.0)


def full_ladder_weights(spectrum, theta):
    """Shifted Boltzmann weights of every level, as the whole-ladder sum takes them."""
    with np.errstate(over="ignore"):  # exponents past the float range weigh 0
        return np.exp(-(spectrum.energies - spectrum.energies.min()) / theta)


def random_ladder(rng):
    """(n_atoms, lambda_n, varpi, theta) over interior, clamped and nearly tied minimizers.

    |varpi| > lambda_n*n_atoms puts the continuous minimizer off the ladder;
    varpi near -lambda_n*(2*m + 1) makes the levels m and m + 1 degenerate
    up to the rounding of their energies. A coupling down to 1e-300 with
    varpi of order one puts the minimizer a float-range distance off the
    ladder, where varpi/lambda_n and its square overflow. The temperatures
    run from the smallest subnormal to values whose window covers the whole
    ladder.
    """
    n_atoms = rng.choice([2, 3, 8, 33, 500, 4097, 19999, 20000])
    lambda_n = 10.0 ** rng.uniform(-5.0, 1.0)
    kind = rng.random()
    if kind < 0.2:
        lambda_n = 10.0 ** rng.uniform(-300.0, -150.0)
        varpi = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0)
    elif kind < 0.4:
        label = rng.randrange(n_atoms) - 0.5 * n_atoms
        detune = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-12.0, -6.0)
        varpi = -lambda_n * (2.0 * label + 1.0 + detune)
    else:
        varpi = rng.choice([-1.0, 1.0]) * lambda_n * n_atoms * 10.0 ** rng.uniform(-3.0, 3.0)
    span = abs(varpi) * n_atoms + lambda_n * n_atoms**2  # bounds the ladder's energy range
    theta = rng.choice([
        5e-324,
        10.0 ** rng.uniform(-300.0, -20.0),
        10.0 ** rng.uniform(-8.0, 2.0),
        span * 10.0 ** rng.uniform(-4.0, 1.0),
    ])
    return n_atoms, lambda_n, varpi, theta


class TestWeightWindow:
    """The levels ``compare_meanfield`` sums against the whole ladder."""

    def test_matches_the_full_ladder_on_random_draws(self):
        rng = random.Random(20261018)
        clamped = narrow = whole = tiny = 0
        for _ in range(800):
            n_atoms, lambda_n, varpi, theta = random_ladder(rng)
            window = _weighted_levels(n_atoms, lambda_n, varpi, theta)
            full = dicke_spectrum(n_atoms, lambda_n, varpi)
            start, stop = window.offset, window.offset + window.energies.size
            case = (n_atoms, lambda_n, varpi, theta)
            # every level is bit-identical to its whole-ladder entry
            assert np.array_equal(window.energies, full.energies[start:stop]), case
            assert np.array_equal(window.m_values, full.m_values[start:stop]), case
            weights = full_ladder_weights(full, theta)
            assert not weights[:start].any() and not weights[stop:].any(), case
            obs = gibbs_observables(window, theta)
            with np.errstate(over="ignore"):
                reference = ladder_rz(n_atoms, lambda_n, varpi, theta)
            assert abs(obs.rz_per_atom - reference) <= 1e-12, case
            assert obs.f_per_atom == pytest.approx(
                gibbs_observables(full, theta).f_per_atom, rel=1e-12, abs=1e-300
            ), case
            clamped += abs(varpi) > lambda_n * n_atoms
            narrow += 2 * window.energies.size < n_atoms
            whole += window.energies.size == n_atoms + 1
            tiny += lambda_n < 1e-100 and 4 * window.energies.size > n_atoms
        assert min(clamped, narrow, whole, tiny) >= 40, (clamped, narrow, whole, tiny)

    def test_clamped_minimizer_bounds_the_window_from_the_ladder_end(self):
        # the continuous minimizer -varpi/(2*lambda_n) ~ -2025 lies far below
        # m = -1; a window centred on it would hold no level but m = -1
        window = _weighted_levels(2, 2.43e-4, 0.984, 0.841)
        assert window.energies.size == 3
        rz = gibbs_observables(window, 0.841).rz_per_atom
        assert rz == pytest.approx(ladder_rz(2, 2.43e-4, 0.984, 0.841), abs=1e-15)
        assert rz > -0.33  # not the -0.5 of the lowest level alone

    def test_float_range_check_agrees_with_the_whole_ladder(self):
        # couplings where the ladder's terms straddle the float range
        rng = random.Random(7)
        top = float(np.finfo(float).max)
        outcomes = []
        for _ in range(300):
            n_atoms = rng.choice([2, 3, 8, 500, 4097, 20000])
            spin = 0.5 * n_atoms
            lambda_n = top / (spin * (spin + 1.0)) * 10.0 ** rng.uniform(-1.0, 0.3)
            varpi = rng.choice([-1.0, 1.0]) * (top / spin) * rng.uniform(0.0, 1.5)
            try:
                dicke_spectrum(n_atoms, lambda_n, varpi)
                whole_ladder = "finite"
            except DomainError:
                whole_ladder = "past the range"
            try:
                _weighted_levels(n_atoms, lambda_n, varpi, 0.1)
                window = "finite"
            except DomainError as exc:
                assert "ladder energies past the float range" in str(exc)
                window = "past the range"
            assert window == whole_ladder, (n_atoms, lambda_n, varpi)
            outcomes.append(window)
        assert min(outcomes.count("finite"), outcomes.count("past the range")) >= 50
        with pytest.raises(DomainError, match="ladder energies past the float range"):
            _weighted_levels(8, 1e300, 1e308, 0.1)


class TestCompareMeanfield:
    def test_record_structure(self):
        table = compare_meanfield(trad06(), 0.1, [8, 32])
        assert table["n_atoms"] == [8, 32]
        assert table["variant"] == ["traditional", "traditional"]
        for rz_exact, rz_meanfield, deviation in zip(
            table["rz_exact"], table["rz_meanfield"], table["deviation"]
        ):
            assert deviation == pytest.approx(abs(rz_exact - rz_meanfield), rel=1e-15)
            assert rz_meanfield == table["rz_meanfield"][0]  # shared mean-field value

    def test_columns_are_those_of_the_exact_compare_csv(self, capsys):
        from quasispin.cli import main

        columns = ("n_atoms", "rz_exact", "rz_meanfield", "deviation", "variant")
        table = compare_meanfield(trad06(), 0.1, [8, 32])
        assert list(table) == list(columns)
        argv = ["exact-compare", "--chi-ratio", "0.6", "--theta", "0.1", "--format", "csv"]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[0] == ",".join(table)
        assert compare_meanfield(trad06(), 0.1, []) == dict.fromkeys(columns, [])

    def test_ordered_phase_deviation_shrinks_with_size(self):
        theta = 0.5 * TRAD_CR_06
        table = compare_meanfield(trad06(), theta, [8, 16, 32, 64, 128, 256, 512])
        devs = table["deviation"]
        for small, large in zip(devs, devs[1:]):
            assert large <= small + 1e-12
        assert devs[-1] < 1e-9

    def test_above_transition_converges_to_relaxation_value(self):
        # the fixed-magnitude ladder has no disordered phase: above the
        # transition it approaches -varpi/(2*lam), not the disordered
        # mean-field polarization
        theta = 2.0 * TRAD_CR_06
        cpl = couplings_at(trad06(), theta)
        target = rz_relaxation(cpl)
        table = compare_meanfield(trad06(), theta, [8, 16, 32, 64, 128, 256, 512])
        gaps = [abs(rz_exact - target) for rz_exact in table["rz_exact"]]
        for small, large in zip(gaps, gaps[1:]):
            assert large <= small + 1e-12
        assert gaps[-1] < 1e-6

    def test_ground_state_limit_is_quantization_limited(self):
        # at theta -> 0 the ladder pins to one m, so the distance to the
        # saturated mean-field value is at most half a quantization step
        for n_atoms in (8, 64, 512):
            (deviation,) = compare_meanfield(trad06(), 1e-6, [n_atoms])["deviation"]
            assert deviation <= 0.5 / n_atoms + 1e-9

    def test_requires_positive_theta(self):
        with pytest.raises(DomainError):
            compare_meanfield(trad06(), 0.0, [8])

    def test_rejects_bad_sizes(self):
        with pytest.raises(DomainError):
            compare_meanfield(trad06(), 0.1, [1])
        for bad in (math.nan, math.inf, -math.inf, 2.5):
            with pytest.raises(DomainError, match="n_atoms must be an integer >= 2"):
                compare_meanfield(trad06(), 0.1, [bad])
        with pytest.raises(DomainError, match="exceeds the ladder size cap"):
            compare_meanfield(trad06(), 0.1, [10**400])
        assert compare_meanfield(trad06(), 0.1, [np.int64(8)])["n_atoms"] == [8]

    def test_largest_ensemble_builds_no_ladder_sized_array(self):
        # the whole ladder at N = 1e6 would take 8 MB an array, ~30 MB at peak
        params = ModelParams(omega21=1.0, chi=0.6)
        compare_meanfield(params, 0.07, [8])  # module-level setup is not the sum's
        tracemalloc.start()
        try:
            table = compare_meanfield(params, 0.07, [1000, 10000, 100000, 1000000])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        assert table["deviation"][-1] <= 1e-6
