import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasispin.levels import (
    SingularLevelError,
    TransitionLevel,
    coupling_constants,
    transition_amplitude,
)
from quasispin.thermal import Couplings, DomainError, ModelParams, Variant, couplings_at
from quasispin.thermal import mean_photon_number

from oracles import planck_occupation


class TestMeanPhotonNumber:
    def test_frozen_value(self):
        assert mean_photon_number(0.5, 0.5) == pytest.approx(
            0.5819767068693265, rel=1e-15
        )

    def test_zero_temperature_is_empty(self):
        assert mean_photon_number(0.0, 0.5) == 0.0

    def test_deep_quantum_regime_underflows_cleanly(self):
        assert mean_photon_number(1e-6, 0.5) == 0.0

    def test_matches_independent_form(self):
        for theta in (0.01, 0.1, 0.5, 1.0, 10.0, 300.0):
            assert mean_photon_number(theta, 0.5) == pytest.approx(
                planck_occupation(theta, 0.5), rel=1e-12
            )

    def test_classical_limit(self):
        # occupation approaches theta/omega_k - 1/2 from below at high theta
        assert mean_photon_number(1e4, 0.5) == pytest.approx(2e4 - 0.5, rel=1e-4)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            mean_photon_number(-0.1, 0.5)
        with pytest.raises(DomainError):
            mean_photon_number(0.5, 0.0)
        with pytest.raises(DomainError):
            mean_photon_number(0.5, -1.0)

    @given(theta=st.floats(1e-3, 1e3), omega_k=st.floats(1e-3, 1e3))
    def test_nonnegative_and_finite(self, theta, omega_k):
        nbar = mean_photon_number(theta, omega_k)
        assert nbar >= 0.0
        assert math.isfinite(nbar)

    def test_strictly_increasing_in_theta(self):
        thetas = [0.05 + 0.01 * i for i in range(200)]
        values = [mean_photon_number(t, 0.5) for t in thetas]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestModelParams:
    def test_defaults(self):
        params = ModelParams(omega21=2.0, chi=0.8)
        assert params.omega_k == 1.0  # half the bare splitting
        assert params.variant is Variant.PROPOSED

    def test_variant_coercion_from_string(self):
        params = ModelParams(omega21=1.0, chi=0.5, variant="traditional")
        assert params.variant is Variant.TRADITIONAL

    def test_validation(self):
        with pytest.raises(DomainError):
            ModelParams(omega21=0.0, chi=0.5)
        with pytest.raises(DomainError):
            ModelParams(omega21=1.0, chi=-0.5)
        with pytest.raises(DomainError):
            ModelParams(omega21=1.0, chi=0.5, omega_k=0.0)
        with pytest.raises(ValueError):
            ModelParams(omega21=1.0, chi=0.5, variant="bogus")

    def test_rejects_non_finite_inputs(self):
        for kwargs in (
            dict(omega21=math.nan, chi=0.5),
            dict(omega21=math.inf, chi=0.5),
            dict(omega21=1.0, chi=math.inf),
            dict(omega21=1.0, chi=0.5, omega_k=math.inf),
            dict(omega21=1.0, chi=np.array([0.5, math.nan])),
        ):
            with pytest.raises(DomainError):
                ModelParams(**kwargs)

    def test_replace_checks_and_coerces(self):
        params = ModelParams(omega21=1.0, chi=0.6)
        for chi in (-1.0, math.nan):
            with pytest.raises(DomainError, match="chi must be positive and finite"):
                params._replace(chi=chi)
        assert params._replace(variant="traditional").variant is Variant.TRADITIONAL
        assert params._replace(chi=0.7) == ModelParams(omega21=1.0, chi=0.7)
        assert params.chi == 0.6  # the original is unchanged

    def test_make_checks(self):
        with pytest.raises(DomainError, match="omega_k must be positive and finite"):
            ModelParams._make((1.0, 0.6, -0.5, "proposed"))
        assert ModelParams._make((1.0, 0.6, None, "traditional")).variant is Variant.TRADITIONAL

    def test_positional_fields_and_tuple_behaviour(self):
        params = ModelParams(1.0, 0.6)
        assert params.omega_k == 0.5
        assert params == (1.0, 0.6, 0.5, Variant.PROPOSED)
        assert params[1] == 0.6 and len(params) == 4

    def test_pickle_round_trip(self):
        import pickle

        params = ModelParams(omega21=2.0, chi=0.8, omega_k=0.9, variant="traditional")
        copy = pickle.loads(pickle.dumps(params))
        assert copy == params and type(copy) is ModelParams

    def test_fields_are_read_only(self):
        params = ModelParams(omega21=1.0, chi=0.6)
        with pytest.raises(AttributeError):
            params.chi = 0.7
        with pytest.raises(AttributeError):
            params.extra = 1.0


class TestCouplingsAt:
    def test_traditional_freezes_occupation(self):
        params = ModelParams(omega21=1.0, chi=0.6, variant=Variant.TRADITIONAL)
        cpl = couplings_at(params, 5.0)
        assert cpl.nbar == 0.0
        assert cpl.lam == 0.6
        assert cpl.varpi == pytest.approx(0.4, rel=1e-15)

    def test_proposed_tracks_occupation(self):
        params = ModelParams(omega21=1.0, chi=0.6)
        cpl = couplings_at(params, 0.5)
        nbar = mean_photon_number(0.5, 0.5)
        assert cpl.nbar == nbar
        assert cpl.lam == pytest.approx(0.6 * (1.0 + 2.0 * nbar), rel=1e-15)
        assert cpl.varpi + cpl.lam == pytest.approx(1.0 - 2.0 * nbar * nbar * 0.6, rel=1e-15)

    @settings(max_examples=200)
    @given(
        theta=st.floats(0.0, 50.0),
        chi=st.floats(1e-3, 10.0),
        omega21=st.floats(1e-3, 10.0),
        ratio_k=st.floats(0.1, 2.0),
    )
    def test_detuned_splitting_identity_is_exact(self, theta, chi, omega21, ratio_k):
        # varpi must equal omega - lam bitwise, omega = omega21 - 2*nbar**2*chi:
        # downstream phase tests rely on the sign of varpi flipping exactly
        # where omega crosses lam.
        params = ModelParams(omega21=omega21, chi=chi, omega_k=ratio_k * omega21)
        cpl = couplings_at(params, theta)
        assert cpl.varpi == omega21 - 2.0 * cpl.nbar * cpl.nbar * chi - cpl.lam

    def test_array_temperatures_broadcast(self):
        params = ModelParams(omega21=1.0, chi=np.array([0.4, 0.6]))
        thetas = np.array([[0.0], [0.5]])
        cpl = couplings_at(params, thetas)
        assert cpl.lam.shape == (2, 2)
        assert cpl.nbar[0, 0] == 0.0
        assert cpl.lam[1, 1] == couplings_at(ModelParams(omega21=1.0, chi=0.6), 0.5).lam

    def test_rejects_bad_temperatures(self):
        for variant in Variant:
            params = ModelParams(omega21=1.0, chi=0.6, variant=variant)
            for theta in (-0.1, math.inf, math.nan, np.array([0.1, math.inf])):
                with pytest.raises(DomainError):
                    couplings_at(params, theta)

    def test_couplings_record_theta(self):
        params = ModelParams(omega21=1.0, chi=0.6)
        assert couplings_at(params, 0.25).theta == 0.25

    def test_overflowing_couplings_raise_without_warnings(self):
        # 2*nbar**2*chi passes the float range near theta ~ 1e154 at omega_k = 1/2
        params = ModelParams(omega21=1.0, chi=0.6)
        wide = ModelParams(omega21=1.0, chi=np.array([0.3, 0.6]))
        for args in ((params, 1e308), (params, np.array([0.0, 1.0, 1e200, 1e300])),
                     (wide, np.array([[1.0], [1e250]]))):
            with pytest.raises(DomainError, match="overflow at theta = 1e\\+(308|200|250)"):
                couplings_at(*args)
        assert math.isfinite(couplings_at(params, 1e150).varpi)
        traditional = ModelParams(omega21=1.0, chi=0.6, variant=Variant.TRADITIONAL)
        assert couplings_at(traditional, 1e308).lam == 0.6


class TestMicroscopic:
    def test_single_level_amplitude(self):
        levels = (TransitionLevel(proj1=1.0, proj2=1.0, omega_a1=3.0, omega_2a=2.0),)
        assert transition_amplitude(levels, 1.0) == pytest.approx(0.25, rel=1e-15)

    def test_two_levels_interfere_coherently(self):
        level = TransitionLevel(proj1=1.0, proj2=1.0, omega_a1=3.0, omega_2a=2.0)
        flipped = TransitionLevel(proj1=-1.0, proj2=1.0, omega_a1=3.0, omega_2a=2.0)
        # amplitudes cancel before squaring
        assert transition_amplitude((level, flipped), 1.0) == 0.0

    def test_resonant_level_is_reported_by_position(self):
        levels = (
            TransitionLevel(proj1=1.0, proj2=1.0, omega_a1=3.0, omega_2a=2.0),
            TransitionLevel(proj1=1.0, proj2=1.0, omega_a1=1.0, omega_2a=2.0),
        )
        with pytest.raises(SingularLevelError, match="level 1.*omega_a1"):
            transition_amplitude(levels, 1.0)

    def test_near_resonant_within_tolerance_is_rejected(self):
        levels = (TransitionLevel(proj1=1.0, proj2=1.0, omega_a1=3.0, omega_2a=2.0),)
        with pytest.raises(SingularLevelError):
            transition_amplitude(levels, 2.0 * (1.0 + 1e-14))

    def test_gamma_cav_must_be_positive(self):
        for gamma_cav in (0.0, -0.5):
            with pytest.raises(DomainError, match="gamma_cav must be positive"):
                coupling_constants(1.0, gamma_cav, omega21=1.0, omega_k=1.0)

    def test_coupling_constants_worked_example(self):
        chi, gamma = coupling_constants(1.0, 0.5, omega21=1.0, omega_k=1.0)
        assert chi == pytest.approx(0.5, rel=1e-15)
        assert gamma == pytest.approx(0.5, rel=1e-15)

    def test_chi_carries_detuning_sign(self):
        chi_red, _ = coupling_constants(1.0, 0.5, omega21=1.0, omega_k=0.4)
        chi_blue, _ = coupling_constants(1.0, 0.5, omega21=1.0, omega_k=0.6)
        assert chi_red < 0.0 < chi_blue

    def test_rejects_negative_amplitude(self):
        with pytest.raises(DomainError):
            coupling_constants(-1.0, 0.5, 1.0, 0.5)

    @settings(max_examples=200)
    @given(
        amplitude=st.floats(1e-6, 1e3),
        gamma_cav=st.floats(1e-3, 10.0),
        omega21=st.floats(0.1, 10.0),
        omega_k=st.floats(0.05, 20.0),
    )
    def test_coupling_ratio_identity(self, amplitude, gamma_cav, omega21, omega_k):
        chi, gamma = coupling_constants(amplitude, gamma_cav, omega21, omega_k)
        delta = 2.0 * omega_k - omega21
        assert gamma >= 0.0
        assert chi == pytest.approx(gamma * delta / (2.0 * gamma_cav), rel=1e-12, abs=1e-300)


def test_couplings_is_immutable():
    cpl = Couplings(theta=0.1, nbar=0.0, lam=0.6, varpi=0.4)
    with pytest.raises(AttributeError):
        cpl.lam = 0.7


def test_one_exception_hierarchy():
    # DomainError lives in the numpy-free base module; every layer raises that one class
    import quasispin
    from quasispin import base, cli, levels, meanfield, thermal

    (root,) = meanfield.NoCriticalPointError.__bases__
    assert root is levels.SingularLevelError.__bases__[0] is thermal.DomainError
    assert root is quasispin.DomainError is base.DomainError is cli.DomainError
