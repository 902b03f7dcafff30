import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from hypersa.optics import (DetectorOutcome, PhotonRecord, detection_distribution,
                            outcome_json, outcome_tokens, sample_outcome)
from hypersa.states import (BasisKet, PhotonState, apply_gate, bell_state,
                            equal_up_to_global_phase, hyper_product)

from oracle import dense_vector, gate_operator, random_state, assert_matches_dense

SQ = 1 / math.sqrt(2)
H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def single(pol, spa):
    return PhotonState(1, {BasisKet(pol, spa): 1.0})


class TestElements:
    """The wave plate is ``apply_gate`` on "P", the beam splitter on "S"."""

    def test_wp_rotates_h_and_v(self):
        plus = apply_gate(single("0", "0"), 0, "P")
        assert plus.amplitude(BasisKet("0", "0")) == pytest.approx(SQ)
        assert plus.amplitude(BasisKet("1", "0")) == pytest.approx(SQ)
        minus = apply_gate(single("1", "0"), 0, "P")
        assert minus.amplitude(BasisKet("0", "0")) == pytest.approx(SQ)
        assert minus.amplitude(BasisKet("1", "0")) == pytest.approx(-SQ)

    def test_bs_rotates_path(self):
        out = apply_gate(single("0", "0"), 0, "S")
        assert out.amplitude(BasisKet("0", "0")) == pytest.approx(SQ)
        assert out.amplitude(BasisKet("0", "1")) == pytest.approx(SQ)

    def test_bs_invariance_of_even_spatial_pair(self):
        # H (x) H fixes the equal-bits "+" pair; checked against the oracle
        s = bell_state("phi+", "S")
        out = apply_gate(apply_gate(s, 0, "S"), 1, "S")
        op = gate_operator(2, 1, "S", H2) @ gate_operator(2, 0, "S", H2)
        assert_matches_dense(out, op @ dense_vector(s))
        assert equal_up_to_global_phase(out, s)

    def test_bs_on_antisymmetric_spatial_pair(self):
        s = bell_state("psi-", "S")
        out = apply_gate(apply_gate(s, 0, "S"), 1, "S")
        op = gate_operator(2, 1, "S", H2) @ gate_operator(2, 0, "S", H2)
        assert_matches_dense(out, op @ dense_vector(s))
        assert equal_up_to_global_phase(out, s)  # antisymmetric up to sign

    @pytest.mark.parametrize("dof", "PS")
    def test_norm_preserving_involutions(self, dof):
        rng = np.random.default_rng(29)
        for _ in range(5):
            s = random_state(2, rng)
            once = apply_gate(s, 0, dof)
            assert abs(once.norm() - 1.0) < 1e-10
            assert equal_up_to_global_phase(apply_gate(once, 0, dof), s)

    def test_elements_on_different_photons_commute(self):
        rng = np.random.default_rng(31)
        s = random_state(2, rng)
        ab = apply_gate(apply_gate(s, 0, "S"), 1, "P")
        ba = apply_gate(apply_gate(s, 1, "P"), 0, "S")
        for ket, amp in ab.items():
            assert abs(amp - ba.amplitude(ket)) < 1e-10

    def test_wp_and_bs_on_same_photon_commute(self):
        rng = np.random.default_rng(37)
        s = random_state(2, rng)
        ab = apply_gate(apply_gate(s, 0, "S"), 0, "P")
        ba = apply_gate(apply_gate(s, 0, "P"), 0, "S")
        for ket, amp in ab.items():
            assert abs(amp - ba.amplitude(ket)) < 1e-10

    def test_index_out_of_range(self):
        for dof in "PS":
            with pytest.raises(ValueError, match="out of range"):
                apply_gate(bell_state("phi+", "P"), 5, dof)

    @pytest.mark.parametrize("photon", [True, 1.0])
    def test_a_bool_or_float_index_rejected(self, photon):
        for dof in "PS":
            with pytest.raises(ValueError, match=f"photon index {photon} out of range"):
                apply_gate(bell_state("phi+", "P"), photon, dof)


def transform_all(state):
    for photon in range(state.n_photons):
        state = apply_gate(apply_gate(state, photon, "S"), photon, "P")
    return state


class TestDetection:
    def test_point_state_single_outcome(self):
        dist = detection_distribution(single("1", "0"))
        assert len(dist) == 1
        assert dist[0].probability == pytest.approx(1.0)
        assert dist[0].records == (PhotonRecord(0, 1, "V"),)

    def test_even_parity_product_support(self):
        s = hyper_product(bell_state("phi+", "P"), bell_state("phi+", "S"))
        dist = detection_distribution(transform_all(s))
        tokens = [outcome_tokens(o) for o in dist]
        assert tokens == ["A1+ B1+", "A1- B1-", "A2+ B2+", "A2- B2-"]
        for o in dist:
            assert o.probability == pytest.approx(0.25, abs=1e-10)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(41)
        s = random_state(2, rng)
        dist = detection_distribution(s)
        assert sum(o.probability for o in dist) == pytest.approx(1.0, abs=1e-10)
        assert len(dist) <= 16

    def test_unnormalized_input_rejected(self):
        s = PhotonState(1, {BasisKet("0", "0"): 0.5})
        with pytest.raises(ValueError, match="not normalized"):
            detection_distribution(s)

    def test_ordering_is_lexicographic_on_records(self):
        rng = np.random.default_rng(43)
        dist = detection_distribution(random_state(2, rng))
        keys = [tuple((r.mode, r.pol) for r in o.records) for o in dist]
        assert keys == sorted(keys)


class TestSampling:
    def test_deterministic_state(self):
        out = sample_outcome(single("0", "1"), 0)
        assert out.records == (PhotonRecord(0, 2, "H"),)

    def test_same_seed_same_sequence(self):
        s = hyper_product(bell_state("phi+", "P"), bell_state("psi-", "S"))
        t = transform_all(s)
        a = [sample_outcome(t, seed) for seed in range(20)]
        b = [sample_outcome(t, seed) for seed in range(20)]
        assert a == b

    def test_numpy_integer_seed_equals_int_seed(self):
        t = transform_all(hyper_product(bell_state("phi+", "P"), bell_state("psi-", "S")))
        for seed in (0, 9, 2 ** 40):
            assert sample_outcome(t, np.int64(seed)) == sample_outcome(t, seed)

    def test_sampling_without_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            sample_outcome(single("0", "1"), None)

    def test_empirical_frequencies_chi_square(self):
        s = hyper_product(bell_state("phi-", "P"), bell_state("psi+", "S"))
        t = transform_all(s)
        dist = detection_distribution(t)
        rng = np.random.default_rng(2026)
        draws = 100_000
        counts = {o.records: 0 for o in dist}
        for _ in range(draws):
            counts[sample_outcome(t, rng).records] += 1
        observed = [counts[o.records] for o in dist]
        expected = [o.probability * draws for o in dist]
        chi2 = sum((obs - exp) ** 2 / exp for obs, exp in zip(observed, expected))
        # 3-sigma quantile of chi2 with len(dist)-1 degrees of freedom
        assert chi2 < stats.chi2.ppf(0.9973, len(dist) - 1)


class TestRendering:
    def test_tokens(self):
        outcome = DetectorOutcome(
            (PhotonRecord(0, 1, "H"), PhotonRecord(1, 2, "V")), 0.5)
        assert outcome_tokens(outcome) == "A1+ B2-"

    def test_json_form(self):
        outcome = DetectorOutcome((PhotonRecord(0, 1, "H"),), 1.0)
        assert outcome_json(outcome) == [{"photon": "A", "mode": 1, "pol": "H"}]


def _record_order_key(outcome):
    # the order detection_distribution promises: per photon (mode, pol)
    return tuple((r.mode, r.pol) for r in outcome.records)


class TestDetectionOrder:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    def test_outcomes_sorted_by_per_photon_records(self, n, seed):
        outcomes = detection_distribution(random_state(n, np.random.default_rng(seed)))
        assert len(outcomes) == 4 ** n
        assert outcomes == sorted(outcomes, key=_record_order_key)
