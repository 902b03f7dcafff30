import copy
import importlib
import inspect
import itertools
import json
import math
import pickle
import random
import re
import statistics
import time
import zlib
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypersa.kerr import attach_probes, gaussian_error_prob
from hypersa.optics import (DetectorOutcome, PhotonRecord,
                            detection_distribution, outcome_json, outcome_tokens)
import hypersa
from hypersa import cli, noise, optics, protocols, states
from hypersa.protocols import (HomodyneModel, PhotonCountError, RunConfig,
                               check_photon_count, decode_signs, emit_detection_table,
                               emit_signature_table, hgsa_n_analyze,
                               monte_carlo_misclassification, predicted_error_rate, probe_ids,
                               run_parity_stage, sign_basis_transform, stream,
                               verify_complete, wilson_interval)
from hypersa.states import (BasisKet, HyperLabel, PhotonState,
                            all_canonical_labels, bell_state, canonical_bit_strings,
                            ghz_state, hyper_product, split_product,
                            state_from_label)

from joint_reference import joint_run
from oracle import (assert_matches_dense, dense_vector, gate_operator,
                    hadamard_everywhere, random_state)

BELL = ("phi+", "phi-", "psi+", "psi-")

# detector token sets per sign pair, transcribed group by group
PARITY_OUTCOMES = {
    ("+", "+"): {"A1+ B1+", "A1- B1-", "A2+ B2+", "A2- B2-"},
    ("+", "-"): {"A1+ B2+", "A1- B2-", "A2+ B1+", "A2- B1-"},
    ("-", "+"): {"A1+ B1-", "A1- B1+", "A2+ B2-", "A2- B2+"},
    ("-", "-"): {"A1+ B2-", "A1- B2+", "A2+ B1-", "A2- B1+"},
}


def bell_product(p, s):
    return hyper_product(bell_state(p, "P"), bell_state(s, "S"))


class TestTwoPhotonAnalysis:
    def test_odd_even_signature(self):
        label, tr = hgsa_n_analyze(bell_product("psi+", "phi-"), RunConfig())
        assert [r.magnitude for r in tr.probe_readouts] == [1, 0]
        assert [r.probe for r in tr.probe_readouts] == ["alpha1", "beta1"]
        assert label == HyperLabel("+", "01", "-", "00")

    def test_even_even_full_roundtrip(self):
        label, tr = hgsa_n_analyze(bell_product("phi+", "phi+"), RunConfig(seed=5))
        assert [r.magnitude for r in tr.probe_readouts] == [0, 0]
        assert outcome_tokens(tr.detector_outcome) in PARITY_OUTCOMES[("+", "+")]
        assert label == HyperLabel("+", "00", "+", "00")

    def test_minus_minus_outcome_membership(self):
        label, tr = hgsa_n_analyze(bell_product("phi-", "psi-"), RunConfig(seed=9))
        assert outcome_tokens(tr.detector_outcome) in PARITY_OUTCOMES[("-", "-")]
        assert label == HyperLabel("-", "00", "-", "01")

    def test_all_sixteen_exact(self):
        for p in BELL:
            for s in BELL:
                label, _ = hgsa_n_analyze(bell_product(p, s), RunConfig(seed=1))
                assert label.bell_names() == (p, s)


class TestThreePhotonAnalysis:
    def test_signature_pairs(self):
        state = hyper_product(ghz_state("+", "000", "P"), ghz_state("+", "001", "S"))
        label, tr = hgsa_n_analyze(state, RunConfig())
        mags = [r.magnitude for r in tr.probe_readouts]
        assert mags[:2] == [0, 0] and mags[2:] == [0, 1]
        assert label == HyperLabel("+", "000", "+", "001")

    def test_noncanonical_input_decodes_to_canonical(self):
        state = hyper_product(ghz_state("-", "100", "P"), ghz_state("+", "010", "S"))
        label, tr = hgsa_n_analyze(state, RunConfig())
        mags = [r.magnitude for r in tr.probe_readouts]
        assert mags[:2] == [1, 1] and mags[2:] == [1, 0]
        assert label == HyperLabel("-", "011", "+", "010")

    def test_branch_parities_of_mixed_sign_group(self):
        # "+" polarization with "-" spatial: every branch has even V, odd x2
        state = hyper_product(ghz_state("+", "000", "P"), ghz_state("-", "001", "S"))
        rotated = sign_basis_transform(sign_basis_transform(state, "S"), "P")
        for outcome in detection_distribution(rotated):
            assert decode_signs(outcome) == ("+", "-")


class TestNPhotonAnalysis:
    def test_four_photon_example_against_xor_and_parity_oracles(self):
        p_bits, s_bits = "0110", "0000"
        state = hyper_product(ghz_state("-", p_bits, "P"),
                              ghz_state("+", s_bits, "S"))
        label, tr = hgsa_n_analyze(state, RunConfig())
        # bitwise XOR against photon 0 predicts each probe's magnitude
        expect_p = [int(p_bits[0]) ^ int(p_bits[k]) for k in range(1, 4)]
        expect_s = [int(s_bits[0]) ^ int(s_bits[k]) for k in range(1, 4)]
        mags = [r.magnitude for r in tr.probe_readouts]
        assert mags == expect_p + expect_s == [1, 1, 0, 0, 0, 0]
        # dense Hadamard oracle: every surviving branch has odd polarization
        # parity and even spatial parity
        rotated = hadamard_everywhere(4) @ dense_vector(state)
        for idx in np.flatnonzero(np.abs(rotated) > 1e-12):
            bits = format(idx, "08b")
            assert bits[:4].count("1") % 2 == 1
            assert bits[4:].count("1") % 2 == 0
        assert label == HyperLabel("-", p_bits, "+", s_bits)

    def test_five_photon_all_zero(self):
        state = hyper_product(ghz_state("+", "00000", "P"),
                              ghz_state("+", "00000", "S"))
        label, tr = hgsa_n_analyze(state, RunConfig())
        assert all(r.magnitude == 0 for r in tr.probe_readouts)
        assert len(tr.probe_readouts) == 8
        assert label == HyperLabel("+", "00000", "+", "00000")

    def test_guard_and_count_checks(self):
        # the photon count is the state's own, and the guard alone holds its
        # floor: the library analyses a one-photon input like any other
        for label in all_canonical_labels(1):
            for model in HomodyneModel:
                for seed in range(5):
                    cfg = RunConfig(model=model, seed=seed)
                    assert hgsa_n_analyze(state_from_label(label), cfg)[0] == label
        with pytest.raises(PhotonCountError, match="2 <= n <= 10, got 1$"):
            check_photon_count(1, "analysis")
        assert [check_photon_count(n, "analysis") for n in (2, 10)] == [2, 10]

    @pytest.mark.parametrize("n", [True, False, 2.5, "3", None])
    def test_guard_refuses_what_is_no_count(self, n):
        # operator.index reads True as 1, so the guard refuses a bool itself
        with pytest.raises(PhotonCountError, match=f"^analyze needs an integer photon "
                                                   f"count, got {re.escape(repr(n))}$"):
            check_photon_count(n, "analyze")


class TestSignBasisTransform:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_dense_hadamard_everywhere(self, n, seed):
        # the elements commute, so the spatial rotation then the polarization
        # one must be the all-qubit Hadamard
        state = random_state(n, np.random.default_rng(seed))
        assert_matches_dense(sign_basis_transform(sign_basis_transform(state, "S"), "P"),
                             hadamard_everywhere(n) @ dense_vector(state))

    @pytest.mark.parametrize("dof", ["P", "S"])
    def test_rotates_only_the_dof_it_is_named(self, dof):
        state = random_state(3, np.random.default_rng(5))
        h, rotation = np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.eye(4 ** 3)
        for photon in range(3):
            rotation = gate_operator(3, photon, dof, h) @ rotation
        assert_matches_dense(sign_basis_transform(state, dof),
                             rotation @ dense_vector(state))

    def test_takes_exactly_one_dof(self):
        state = state_from_label(HyperLabel("+", "00", "-", "01"))
        with pytest.raises(ValueError, match="^unknown degree of freedom 'SP'"):
            sign_basis_transform(state, "SP")
        with pytest.raises(TypeError):
            sign_basis_transform(state)


class TestSignDecoding:
    def test_even_even(self):
        outcome = DetectorOutcome(
            (PhotonRecord(0, 1, "H"), PhotonRecord(1, 1, "H")), 0.25)
        assert decode_signs(outcome) == ("+", "+")

    def test_odd_odd(self):
        outcome = DetectorOutcome(
            (PhotonRecord(0, 1, "H"), PhotonRecord(1, 2, "V")), 0.25)
        assert decode_signs(outcome) == ("-", "-")

    def test_polarization_flip_toggles_first_sign_only(self):
        base = (PhotonRecord(0, 1, "H"), PhotonRecord(1, 2, "H"))
        flipped = (PhotonRecord(0, 1, "V"), PhotonRecord(1, 2, "H"))
        p0, s0 = decode_signs(DetectorOutcome(base, 0.5))
        p1, s1 = decode_signs(DetectorOutcome(flipped, 0.5))
        assert p0 != p1 and s0 == s1


class TestStageOrder:
    def test_spatial_stage_first_gives_same_labels(self):
        cfg = RunConfig(seed=21)
        for label in all_canonical_labels(2):
            joint = attach_probes(state_from_label(label), probe_ids(2))
            joint, beta_reads = run_parity_stage(joint, "S", cfg)
            joint, alpha_reads = run_parity_stage(joint, "P", cfg)
            p_bits = "0" + "".join(str(r.magnitude) for r in alpha_reads)
            s_bits = "0" + "".join(str(r.magnitude) for r in beta_reads)
            assert (p_bits, s_bits) == (label.p_bits, label.s_bits)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_each_dof_reads_its_own_probes(self, n):
        cfg = RunConfig(seed=n)
        label = all_canonical_labels(n)[-1]
        joint = attach_probes(state_from_label(label), probe_ids(n))
        for dof in "SP":
            joint, reads = run_parity_stage(joint, dof, cfg)
            assert [r.probe for r in reads] == probe_ids(n, dof)
        with pytest.raises(ValueError, match="unknown degree of freedom"):
            run_parity_stage(joint, "X", cfg)

    def test_a_pass_runs_one_named_dof(self):
        # the package has no two-DOF pass
        with pytest.raises(TypeError):
            protocols.pre_detection(state_from_label(all_canonical_labels(2)[0]),
                                    RunConfig())


class TestCompleteness:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_readout_map_is_injective(self, n):
        seen = set()
        for label in all_canonical_labels(n):
            _, tr = hgsa_n_analyze(state_from_label(label), RunConfig())
            key = (tuple(r.magnitude for r in tr.probe_readouts),
                   decode_signs(tr.detector_outcome))
            seen.add(key)
        assert len(seen) == 4 ** n

    @pytest.mark.parametrize("n", [2, 3])
    def test_branch_totality(self, n):
        for label in all_canonical_labels(n):
            state = state_from_label(label)
            transformed = sign_basis_transform(sign_basis_transform(state, "S"), "P")
            signs = {decode_signs(o) for o in detection_distribution(transformed)}
            assert signs == {(label.p_sign, label.s_sign)}

    @pytest.mark.parametrize("n", [2, 3])
    def test_group_partition_shape(self, n):
        report = verify_complete(n)
        by_signature = {}
        for check in report.per_state:
            by_signature.setdefault(check.signature, []).append(check.label)
        assert len(by_signature) == 4 ** (n - 1)
        assert all(len(members) == 4 for members in by_signature.values())

    def test_verify_two_photons(self):
        report = verify_complete(2)
        assert report.total_states == 16
        assert report.correct == 16
        assert report.group_count == 4
        assert report.all_correct
        assert all(check.ok for check in report.per_state)
        assert all(check.branches == 4 for check in report.per_state)

    def test_verify_json_shape(self):
        report = verify_complete(2)
        assert report.to_json_dict() == {"n": 2, "total": 16, "correct": 16, "groups": 4}

    def test_verifier_runs_the_analysers_stages(self, monkeypatch):
        # a defect in the shared stage must fail the proof, not only analyze
        real = protocols.run_parity_stage

        def reversed_readouts(*args):
            joint, readouts = real(*args)
            return joint, readouts[::-1]

        monkeypatch.setattr(protocols, "run_parity_stage", reversed_readouts)
        report = verify_complete(3)
        assert report.correct < 64
        assert report.correct == sum(c.ok for c in report.per_state)
        assert report.group_count == len({c.signature for c in report.per_state})
        # each factor's readouts come back reversed, so its bits are wrong
        assert {c.broken for c in report.per_state if not c.ok} == {"P bits", "S bits"}
        assert cli.main(["verify", "--n", "3"]) == 1

    @pytest.mark.parametrize("n", [6, 8])
    def test_verify_six_photons_within_budget(self, n):
        start = time.perf_counter()
        report = verify_complete(n)
        elapsed = time.perf_counter() - start
        assert (report.total_states, report.correct) == (4 ** n, 4 ** n)
        assert report.group_count == 4 ** (n - 1)
        assert elapsed < 20.0, f"verify_complete({n}) took {elapsed:.2f}s, budget 20s"

    def test_verify_guard(self):
        with pytest.raises(ValueError, match="2 <= n <= 10"):
            verify_complete(1)
        with pytest.raises(ValueError, match="2 <= n <= 10"):
            verify_complete(11)

    @pytest.mark.parametrize("run", [verify_complete, emit_signature_table,
                                     emit_detection_table])
    def test_float_photon_count_fails_the_guard(self, run):
        with pytest.raises(PhotonCountError, match="integer photon count, got 3.0"):
            run(3.0)

    def test_gaussian_verify_prints_the_noise_study_beside_the_proof(self, capsys):
        # the command joins the ideal proof and the library's noise study
        assert cli.main(["verify", "--n", "2", "--model", "gaussian", "--theta", "0.2",
                         "--alpha", "150", "--trials", "200", "--seed", "13",
                         "--format", "json"]) == 0
        cfg = RunConfig(theta=0.2, alpha=150.0,
                        model=HomodyneModel.GAUSSIAN, trials=200, seed=13)
        noise = json.loads(json.dumps(monte_carlo_misclassification(2, cfg).to_json_dict()))
        assert json.loads(capsys.readouterr().out) == {
            **verify_complete(2).to_json_dict(), "model": "gaussian", "noise": noise}


def reference_walk(n: int) -> list[tuple]:
    """Each canonical input's (label, signature, branches, ok) from the
    independent dense reference under the ideal readout."""
    walk = []
    for label in all_canonical_labels(n):
        run = joint_run(label, RunConfig())
        walk.append((label.literal(), tuple(r[1] for r in run.readouts),
                     np.count_nonzero(run.probabilities), run.label == label))
    return walk


def other_dof_zeros(state, dof: str) -> bool:
    """Whether every ket of a photon or joint state has the DOF other than
    ``dof`` all 0s."""
    zeros = "0" * state.n_photons
    kets = [key if isinstance(key, BasisKet) else key[0] for key, _ in state.items()]
    return all((ket.spa_bits if dof == "P" else ket.pol_bits) == zeros for ket in kets)


class TestPerDofVerifier:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_the_joint_walk(self, n):
        report = verify_complete(n)
        # label, signature, branches, ok
        assert [c[:4] for c in report.per_state] == reference_walk(n)
        assert all(c.broken == "" for c in report.per_state)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_each_factor_runs_once(self, monkeypatch, n):
        # one run per factor: 2^n per DOF, and no joint run
        real, calls = protocols.pre_detection, []

        def counted(state, cfg, dof):
            calls.append(dof)
            return real(state, cfg, dof)

        monkeypatch.setattr(protocols, "pre_detection", counted)
        assert verify_complete(n).all_correct
        assert len(calls) == 2 * 2 ** n
        assert calls.count("P") == calls.count("S") == 2 ** n

    @pytest.mark.parametrize("n", [3, 6])
    def test_separation_inputs(self, monkeypatch, n):
        # the inputs whose factors verify runs, and on whose every factor run
        # it checks separation: P:s b;S:s b per (bits, sign), in that order
        real, literals = states.state_from_label, []

        def recorded(label):
            literals.append(label.literal())
            return real(label)

        monkeypatch.setattr(states, "state_from_label", recorded)
        assert verify_complete(n).all_correct
        assert literals == [f"P:{s}{b};S:{s}{b}"
                            for b in canonical_bit_strings(n) for s in "+-"]

    @pytest.mark.parametrize("n", [3, 5])
    def test_no_stage_receives_the_other_dof(self, monkeypatch, n):
        # what verify and the analyser hand the gadgets, the rotations and
        # the detectors always holds its other DOF all 0s
        seen = set()

        def spy(module, name, dofs_of):
            real = getattr(module, name)

            def run(state, *args):
                seen.add((name, dofs_of(args)))
                assert any(other_dof_zeros(state, dof) for dof in dofs_of(args)), (name, state)
                return real(state, *args)
            monkeypatch.setattr(module, name, run)

        spy(protocols, "parity_gadget", lambda args: args[3])
        # the wave plates ("P") and the beam splitters ("S")
        spy(protocols, "apply_gate", lambda args: args[1])
        # a rotated factor of either DOF
        spy(optics, "detection_distribution", lambda args: "PS")
        assert verify_complete(n).all_correct
        for label in random.Random(n).sample(all_canonical_labels(n), 16):
            assert hgsa_n_analyze(state_from_label(label), RunConfig(seed=n))[0] == label
        assert seen == {("parity_gadget", "P"), ("parity_gadget", "S"),
                        ("apply_gate", "P"), ("apply_gate", "S"),
                        ("detection_distribution", "PS")}

    def test_swapped_factors_fail(self, monkeypatch):
        # verify runs the split itself: factors handed to the wrong DOF fail
        real = states.split_product
        monkeypatch.setattr(states, "split_product", lambda state: real(state)[::-1])
        report = verify_complete(3)
        assert self.failures(report) == {"separation"}
        assert report.correct == 0

    @staticmethod
    def failures(report):
        assert report.correct < report.total_states
        # the counts come from the factor tables, the records from each input
        assert report.correct == sum(c.ok for c in report.per_state)
        assert report.group_count == len({c.signature for c in report.per_state})
        return {c.broken for c in report.per_state if not c.ok}

    # a stage that reads or moves the other DOF fails where a factor run
    # reaches it: in a wrong bit or sign, or as a factor that left its other
    # DOF (separation); one that only a joint state reaches the analyser never
    # runs, and the dense and split checks of the joint rotation catch it

    @pytest.mark.parametrize("n", [3, 6])
    def test_spatial_gadget_reading_polarization_breaks_s_bits(self, monkeypatch, n):
        real = protocols.parity_gadget

        def reads_polarization(joint, probe, ref, other, dof):
            return real(joint, probe, ref, other, "P")

        monkeypatch.setattr(protocols, "parity_gadget", reads_polarization)
        assert self.failures(verify_complete(n)) == {"S bits"}

    @pytest.mark.parametrize("n", [3, 6])
    def test_spatial_sign_from_the_v_count_breaks_s_signs(self, monkeypatch, n):
        real = protocols.decode_signs
        monkeypatch.setattr(protocols, "decode_signs",
                            lambda outcome: (real(outcome)[0],) * 2)
        assert self.failures(verify_complete(n)) == {"S signs"}

    @pytest.mark.parametrize("n", [3, 6])
    def test_rotation_coupling_the_dofs_fails_separation(self, monkeypatch, n):
        real = protocols.sign_basis_transform

        def coupled(state, dof):
            # after the rotation, photon 0's path flips wherever it is V
            return PhotonState(state.n_photons, {
                BasisKet(pol, spa if pol[0] == "0" else "10"[int(spa[0])] + spa[1:]): amp
                for (pol, spa), amp in real(state, dof).items()})

        monkeypatch.setattr(protocols, "sign_basis_transform", coupled)
        report = verify_complete(n)
        assert self.failures(report) == {"separation"}
        assert report.correct == 0

    @staticmethod
    def reaches_no_factor_run(monkeypatch, name, mutant):
        # verify passes and every label analyses right, but the joint
        # rotation is no longer the dense Hadamard on every qubit
        monkeypatch.setattr(protocols, name, mutant(getattr(protocols, name)))
        assert verify_complete(3).all_correct
        rotation = hadamard_everywhere(3)
        for label in all_canonical_labels(3):
            state = state_from_label(label)
            want = rotation @ dense_vector(state)
            rotated = sign_basis_transform(sign_basis_transform(state, "S"), "P")
            assert np.max(np.abs(dense_vector(rotated) - want)) > 1e-10
            assert hgsa_n_analyze(state, RunConfig())[0] == label

    @staticmethod
    def only_on(dof, mutant):
        """A mutant of one DOF's element (``mutant(real)(state, photon)``) as a
        mutant of ``apply_gate``; the other DOF's element is the real one."""
        def patch(real):
            changed = mutant(lambda state, photon: real(state, photon, dof))
            return lambda state, photon, d: (changed(state, photon) if d == dof
                                             else real(state, photon, d))
        return patch

    @staticmethod
    def path_1_only(real):
        def run(state, photon):
            # a polarization factor is all in path 1
            moved = {ket: amp for ket, amp in state.items()
                     if ket.spa_bits[photon] == "1"}
            rotated = real(PhotonState(state.n_photons, {
                ket: amp for ket, amp in state.items() if ket not in moved}), photon)
            return PhotonState(state.n_photons, {**dict(rotated.items()), **moved})
        return run

    def test_wave_plate_only_in_path_1_reaches_no_factor_run(self, monkeypatch):
        self.reaches_no_factor_run(monkeypatch, "apply_gate",
                                   self.only_on("P", self.path_1_only))

    @pytest.mark.parametrize("n", [3, 6])
    def test_wave_plate_only_in_path_1_fails_separation(self, monkeypatch, n):
        # verify passes, but the joint rotation of each of its inputs no
        # longer splits into a polarization and a spatial factor
        inputs = [state_from_label(HyperLabel(s, b, s, b))
                  for b in canonical_bit_strings(n) for s in "+-"]

        def rotated(state):
            return sign_basis_transform(sign_basis_transform(state, "S"), "P")

        for state in inputs:
            split_product(rotated(state))
        monkeypatch.setattr(protocols, "apply_gate",
                            self.only_on("P", self.path_1_only)(protocols.apply_gate))
        assert verify_complete(n).all_correct
        for state in inputs:
            with pytest.raises(ValueError, match="not a product"):
                split_product(rotated(state))

    def test_beam_splitter_with_a_v_phase_reaches_no_factor_run(self, monkeypatch):
        def with_phase(real):
            def run(state, photon):
                # photon 0's beam splitter also flips the sign where photon 0
                # is V, and a spatial factor is all H
                rotated = real(state, photon)
                return rotated if photon else PhotonState(state.n_photons, {
                    ket: -amp if ket.pol_bits[0] == "1" else amp
                    for ket, amp in rotated.items()})
            return run

        self.reaches_no_factor_run(monkeypatch, "apply_gate", self.only_on("S", with_phase))

    @pytest.mark.parametrize("n", [3, 6])
    def test_inverted_spatial_sign_breaks_s_signs(self, monkeypatch, n):
        real = protocols.decode_signs
        monkeypatch.setattr(protocols, "decode_signs", lambda outcome: (
            real(outcome)[0], {"+": "-", "-": "+"}[real(outcome)[1]]))
        report = verify_complete(n)
        assert self.failures(report) == {"S signs"}
        assert report.correct == 0


@st.composite
def canonical_label(draw, max_n=8):
    n = draw(st.integers(2, max_n))
    bits = st.text("01", min_size=n - 1, max_size=n - 1).map("0".__add__)
    return HyperLabel(draw(st.sampled_from("+-")), draw(bits),
                      draw(st.sampled_from("+-")), draw(bits))


class TestAnalyseDecodes:
    @settings(max_examples=25, deadline=None)
    @given(label=canonical_label(), seed=st.integers(0, 2 ** 32 - 1))
    def test_analyse_then_decode_is_the_identity(self, label, seed):
        decoded, _ = hgsa_n_analyze(state_from_label(label), RunConfig(seed=seed))
        assert decoded == label

    @settings(max_examples=25, deadline=None)
    @given(label=canonical_label(max_n=6))
    def test_the_analyser_pass_is_the_two_factor_passes(self, label):
        # the two factor passes the analyser and verify_complete run give the
        # independent reference's joint readouts and rotated joint state
        cfg = RunConfig()
        want = joint_run(label, cfg)
        p_rotated, p_readouts = protocols.pre_detection(
            ghz_state(label.p_sign, label.p_bits, "P"), cfg, "P")
        s_rotated, s_readouts = protocols.pre_detection(
            ghz_state(label.s_sign, label.s_bits, "S"), cfg, "S")
        assert p_readouts + s_readouts == want.readouts
        overlap = np.vdot(dense_vector(hyper_product(p_rotated, s_rotated)), want.rotated)
        assert abs(overlap) >= 1.0 - 1e-10


def swapped_bits(real):
    return lambda readouts: real(readouts)[::-1]


def skips_the_last_photon(real):
    def run(state, dof):
        # the last photon's element again undoes its rotation: H H = 1
        return protocols.apply_gate(real(state, dof), state.n_photons - 1, dof)
    return run


def reversed_readouts(real):
    def run(joint, dof, cfg):
        joint, readouts = real(joint, dof, cfg)
        return joint, readouts[::-1]
    return run


class TestVerifyProvesTheAnalyser:
    """``verify_complete`` is the proof that the analyser is complete, so a
    mutant of the code they share must either fail it or leave every
    analysis right."""

    @pytest.mark.parametrize("name, mutant", [("_decode_bits", swapped_bits),
                                              ("sign_basis_transform", skips_the_last_photon),
                                              ("run_parity_stage", reversed_readouts)])
    def test_a_passing_verify_means_right_labels(self, monkeypatch, name, mutant):
        monkeypatch.setattr(protocols, name, mutant(getattr(protocols, name)))
        if verify_complete(3).all_correct:
            wrong = [label.literal() for label in all_canonical_labels(3)
                     if hgsa_n_analyze(state_from_label(label), RunConfig())[0] != label]
            assert wrong == []


class TestNoiseStudy:
    def test_ideal_model_never_errs(self):
        stats = monte_carlo_misclassification(2, RunConfig(trials=50, seed=2))
        assert stats.errors == 0
        assert stats.predicted == 0.0

    def test_huge_alpha_reaches_the_ideal_limit(self):
        cfg = RunConfig(theta=0.2, alpha=1e6,
                        model=HomodyneModel.GAUSSIAN, trials=10_000, seed=6)
        stats = monte_carlo_misclassification(2, cfg)
        assert stats.errors == 0
        assert stats.rate == 0.0

    def test_predicted_rate_composition(self):
        cfg = RunConfig(theta=0.2, alpha=30.0,
                        model=HomodyneModel.GAUSSIAN)
        from hypersa.kerr import gaussian_error_prob
        p = gaussian_error_prob(30.0, 0.2)
        assert predicted_error_rate(3, cfg) == pytest.approx(1 - (1 - p) ** 4)

    def test_misread_prob_is_the_models(self):
        assert RunConfig(theta=0.2, alpha=30.0).misread_prob() == 0.0
        cfg = RunConfig(theta=0.2, alpha=30.0, model="gaussian")
        assert cfg.misread_prob() == gaussian_error_prob(30.0, 0.2)
        # erfc underflows: a gaussian run whose probes never misread
        assert RunConfig(theta=0.5, alpha=5000.0, model="gaussian").misread_prob() == 0.0

    def test_every_readout_gets_the_runs_misread_prob(self, monkeypatch):
        seen, real = [], protocols.homodyne_measure

        def spy(joint, probe, misread_prob=0.0, rng=None):
            seen.append(misread_prob)
            return real(joint, probe, misread_prob, rng)

        monkeypatch.setattr(protocols, "homodyne_measure", spy)
        cfg = RunConfig(theta=0.2, alpha=30.0, model="gaussian", seed=3)
        hgsa_n_analyze(state_from_label(all_canonical_labels(3)[5]), cfg)
        assert seen == [cfg.misread_prob()] * 4

    @pytest.mark.parametrize("n", [1, 11, 2.0])
    def test_photon_count_guard(self, n):
        cfg = RunConfig(model=HomodyneModel.GAUSSIAN, trials=10)
        with pytest.raises(PhotonCountError, match="Monte Carlo study"):
            monte_carlo_misclassification(n, cfg)

    def test_wilson_interval_brackets_rate(self):
        low, high = wilson_interval(50, 100)
        assert low < 0.5 < high
        assert wilson_interval(0, 100)[0] == 0.0
        assert wilson_interval(100, 100)[1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("errors, trials, message", [
        (5, 3, "errors must be an integer in [0, 3], got 5"),
        (-1, 10, "errors must be an integer in [0, 10], got -1"),
        (math.nan, 10, "errors must be an integer in [0, 10], got nan"),
        (1, math.inf, "trials must be an integer in [1, inf], got inf"),
        (1.5, 10, "errors must be an integer in [0, 10], got 1.5"),
        (True, 10, "errors must be an integer in [0, 10], got True"),
        (0, 0, "trials must be an integer in [1, inf], got 0"),
    ])
    def test_wilson_interval_rejects_what_is_no_count(self, errors, trials, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            wilson_interval(errors, trials)


def named_generator(seed: int, name: str) -> random.Random:
    """The generator that ``stream(seed, name)`` stands for, seeded now."""
    return random.Random(f"{seed}:{name}")


def draws(rng, k: int) -> list[float]:
    """The next ``k`` doubles of ``rng``."""
    return [rng.random() for _ in range(k)]


class ScriptedStream(np.random.Generator):
    """A generator whose ``random()`` returns one scripted value."""

    def __init__(self, value):
        super().__init__(np.random.PCG64(0))
        self.value = value

    def random(self, *args, **kwargs):
        return self.value


GAUSSIAN_CFG = RunConfig(theta=0.2, alpha=40.0, model=HomodyneModel.GAUSSIAN,
                         trials=3000, seed=23)


class TestBatchedNoiseStudy:
    @pytest.mark.parametrize("n", [2, 3])
    def test_pattern_decode_matches_the_per_trial_pipeline(self, n, monkeypatch):
        # every input and every misread pattern, run through the gaussian
        # pipeline with each probe's draw scripted below or above err
        err = gaussian_error_prob(GAUSSIAN_CFG.alpha, GAUSSIAN_CFG.theta)
        ideal = GAUSSIAN_CFG._replace(model=HomodyneModel.IDEAL)
        misreading: set[str] = set()
        real_stream = protocols.stream

        def scripted(seed, name):
            kind, _, probe = name.partition(":")
            if kind != "probe":
                return real_stream(seed, name)
            return ScriptedStream(err / 2 if probe in misreading else (1 + err) / 2)

        monkeypatch.setattr(protocols, "stream", scripted)
        pids = probe_ids(n)
        for label in all_canonical_labels(n):
            state = state_from_label(label)
            ideal_label, transcript = hgsa_n_analyze(state, ideal)
            for pattern in itertools.product((False, True), repeat=len(pids)):
                misreading.clear()
                misreading.update(p for p, flip in zip(pids, pattern) if flip)
                got, _ = hgsa_n_analyze(state, GAUSSIAN_CFG)
                assert got == noise._misread_label(
                    ideal_label, transcript.probe_readouts, pattern)
                assert (got != label) == any(pattern)

    def test_result_does_not_depend_on_the_chunk_size(self, monkeypatch):
        cfg = GAUSSIAN_CFG._replace(trials=250)  # not a multiple of 7
        default = monte_carlo_misclassification(3, cfg)
        monkeypatch.setattr(noise, "MC_CHUNK", 7)
        assert monte_carlo_misclassification(3, cfg) == default

    @pytest.mark.parametrize("alpha", [40.0, 1e6])
    def test_flip_counts_are_the_misreads_drawn(self, alpha):
        cfg = GAUSSIAN_CFG._replace(alpha=alpha)
        stats = monte_carlo_misclassification(3, cfg)
        err = gaussian_error_prob(cfg.alpha, cfg.theta)
        uniforms = draws(stream(cfg.seed, "montecarlo:misreads"), cfg.trials * 4)
        flips = np.array(uniforms).reshape(cfg.trials, 4) < err
        assert stats.per_probe_flips == dict(zip(probe_ids(3),
                                                 flips.sum(axis=0).tolist()))
        assert sum(stats.per_probe_flips.values()) == flips.sum()
        assert stats.errors == flips.any(axis=1).sum()
        if alpha == 1e6:
            assert set(stats.per_probe_flips.values()) == {0}

    @pytest.mark.parametrize("n, seeds", [(2, 100), (3, 40)])
    def test_rate_is_calibrated_across_seeds(self, n, seeds):
        # A trial is wrong iff one of its 2(n-1) probes misreads, so at each
        # seed errors ~ Binomial(T, p) with p = predicted, and
        # z = (errors - T p) / sqrt(T p q) has mean 0 and variance 1 exactly.
        # Bounds, fixed from that before the first run, at 4 sigma:
        # - the mean of K independent z has sd 1/sqrt(K);
        # - the sample variance s^2 of K draws has variance
        #   (mu4 - (K-3)/(K-1)) / K, where mu4 = 3 + (1 - 6pq)/(Tpq) is the
        #   fourth moment of a standardized binomial.
        # A few trials per seed keep the analyses (the cost) few.
        cfg = GAUSSIAN_CFG._replace(trials=4)
        p = predicted_error_rate(n, cfg)
        tpq = cfg.trials * p * (1 - p)
        z = []
        for seed in range(seeds):
            stats = monte_carlo_misclassification(n, cfg._replace(seed=seed))
            assert stats.predicted == p
            z.append((stats.errors - cfg.trials * p) / math.sqrt(tpq))
        mu4 = 3 + (1 - 6 * p * (1 - p)) / tpq
        var_s2 = (mu4 - (seeds - 3) / (seeds - 1)) / seeds
        assert abs(statistics.fmean(z)) <= 4 / math.sqrt(seeds)
        assert abs(statistics.variance(z) - 1) <= 4 * math.sqrt(var_s2)

    @pytest.mark.parametrize("n", [2, 3])
    def test_draws_equal_a_trial_loop_across_a_chunk_boundary(self, n):
        # the study one trial at a time over the same two named generators:
        # an input from one, a uniform per probe from the other; a trial is
        # wrong iff one of its probes misreads
        cfg = GAUSSIAN_CFG._replace(trials=noise.MC_CHUNK + 1, seed=61)
        labels, probes = all_canonical_labels(n), probe_ids(n)
        err = gaussian_error_prob(cfg.alpha, cfg.theta)
        pick_rng = named_generator(cfg.seed, "montecarlo:inputs")
        flip_rng = named_generator(cfg.seed, "montecarlo:misreads")
        per_state = {lab.literal(): (0, 0) for lab in labels}
        flips = dict.fromkeys(probes, 0)
        for _ in range(cfg.trials):
            literal = labels[pick_rng.randrange(len(labels))].literal()
            pattern = [flip_rng.random() < err for _ in probes]
            trials, errors = per_state[literal]
            per_state[literal] = trials + 1, errors + any(pattern)
            for probe, flip in zip(probes, pattern):
                flips[probe] += flip
        stats = monte_carlo_misclassification(n, cfg)
        assert stats.per_state == per_state
        assert stats.errors == sum(e for _, e in per_state.values())
        assert stats.per_probe_flips == flips

    def test_readout_not_a_point_mass_is_refused(self, monkeypatch):
        real = protocols.hgsa_n_analyze

        def two_classes(*args):
            label, transcript = real(*args)
            readouts = tuple(r._replace(classes=2) for r in transcript.probe_readouts)
            return label, transcript._replace(probe_readouts=readouts)

        monkeypatch.setattr(protocols, "hgsa_n_analyze", two_classes)
        with pytest.raises(ValueError, match="not a point mass"):
            monte_carlo_misclassification(2, GAUSSIAN_CFG)


# zlib.crc32 of repr([picks(0, 1), picks(-7, 3), picks(2**40, 2000),
# picks(5, 0)]), where picks(low, count) is count draws low + randrange(width)
# of one stream(seed, "inputs"), taken in that order: the integers the stream
# drew when it had its own integer draw, before streams became plain
# random.Random.  A width of 1 picks low every time.
PINNED_PICKS = {
    (0, 1): 601884013, (7, 1): 601884013, (2 ** 64 + 3, 1): 601884013,
    (0, 3): 525560426, (7, 3): 2632375617, (2 ** 64 + 3, 3): 1161557445,
    (0, 5): 3165228057, (7, 5): 3915249929, (2 ** 64 + 3, 5): 1828030016,
    (0, 16): 2925668182, (7, 16): 1187271691, (2 ** 64 + 3, 16): 2209595904,
    (0, 4 ** 10): 3732644518, (7, 4 ** 10): 586775607, (2 ** 64 + 3, 4 ** 10): 3134770045,
    (0, 10 ** 6 + 3): 1201478301, (7, 10 ** 6 + 3): 105758853,
    (2 ** 64 + 3, 10 ** 6 + 3): 4053058184,
    (0, 2 ** 31 + 1): 1394691465, (7, 2 ** 31 + 1): 915287993,
    (2 ** 64 + 3, 2 ** 31 + 1): 2658902038,
    (0, 2 ** 32): 3988521934, (7, 2 ** 32): 1680890291, (2 ** 64 + 3, 2 ** 32): 3006909056,
}


class TestPlumbing:
    @pytest.mark.parametrize("model, probe_draws", [("ideal", 0), ("gaussian", 1)])
    def test_an_analysis_draws_what_the_readme_says(self, monkeypatch, model, probe_draws):
        # two uniforms for the detector event, one per factor, and one per
        # probe under the gaussian readout: every canonical readout is a
        # point mass, so no probe draws its magnitude class
        calls, real_stream = {}, protocols.stream

        class Counted:
            def __init__(self, seed, name):
                self.name, self.rng = name, real_stream(seed, name)
                calls.setdefault(name, 0)

            def random(self):
                calls[self.name] += 1
                return self.rng.random()

        monkeypatch.setattr(protocols, "stream", Counted)
        cfg = RunConfig(theta=0.2, alpha=30.0, model=model, seed=0)
        for label in all_canonical_labels(3):
            calls.clear()
            hgsa_n_analyze(state_from_label(label), cfg)
            assert calls == {"detection": 2,
                             **{f"probe:{pid}": probe_draws for pid in probe_ids(3)}}, label

    def test_stream_is_deterministic_and_name_split(self):
        a = draws(stream(7, "probe:alpha1"), 4)
        b = draws(stream(7, "probe:alpha1"), 4)
        c = draws(stream(7, "probe:beta1"), 4)
        assert a == b
        assert a != c

    def test_streams_differ_by_name_and_by_seed(self):
        # the key joins the seed and the name at the first colon, which no
        # seed has, so no two (seed, name) pairs share a generator
        names = ("", "detection", "probe:alpha1", "probe:beta1",
                 "montecarlo:inputs", "montecarlo:misreads", "1:detection")
        seen = {(seed, name): tuple(draws(stream(seed, name), 4))
                for seed in (0, 1, 10, 2 ** 64 + 3) for name in names}
        assert len(set(seen.values())) == len(seen)

    @staticmethod
    def assert_stream_equals_eager_generator(seed, name):
        # a stream is the generator its key names: scalars, then integer
        # picks, then scalars, as random.Random(f"{seed}:{name}") draws them
        for k in (0, 1, 3):
            eager, rng = named_generator(seed, name), stream(seed, name)
            assert type(rng) is random.Random
            assert draws(rng, k) == draws(eager, k)
            assert ([rng.randrange(64) for _ in range(50)]
                    == [eager.randrange(64) for _ in range(50)])
            assert draws(rng, 12) == draws(eager, 12)

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3])
    def test_stream_draws_equal_an_eager_generator(self, seed):
        self.assert_stream_equals_eager_generator(seed, "montecarlo:inputs")

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 130 - 1), name=st.text(max_size=20))
    def test_stream_draws_equal_an_eager_generator_for_any_seed(self, seed, name):
        self.assert_stream_equals_eager_generator(seed, name)

    @pytest.mark.parametrize("width", [1, 3, 5, 16, 4 ** 10, 10 ** 6 + 3, 2 ** 31 + 1, 2 ** 32])
    @pytest.mark.parametrize("seed", [0, 7, 2 ** 64 + 3])
    def test_integers_equal_generator_integers(self, width, seed):
        # the Monte Carlo study picks its inputs as randrange(width) of a
        # stream; those picks are the integers pinned above
        rng = stream(seed, "inputs")
        picks = [[low + rng.randrange(width) for _ in range(count)]
                 for low, count in ((0, 1), (-7, 3), (2 ** 40, 2000), (5, 0))]
        assert zlib.crc32(repr(picks).encode()) == PINNED_PICKS[seed, width]
        if width == 1:
            assert picks[:2] == [[0], [-7, -7, -7]]

    @pytest.mark.parametrize("seed", [1.5, 2.0, "7"])
    def test_non_integer_seed_raises_naming_it(self, seed):
        with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, "
                                             f"got {re.escape(repr(seed))}$"):
            stream(seed, "detection")

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError):
            np.random.default_rng(-1)
        for seed in (-1, np.int64(-5), -2 ** 70):
            with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, "
                                                 f"got {re.escape(repr(seed))}$"):
                stream(seed, "")

    def test_stream_copies_and_pickles_continue_where_it_is(self):
        # clones made after scalar draws and integer picks continue where
        # the original is, apart from it
        def clones(s):
            return copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))

        def advance(s):
            return draws(s, 3), [s.randrange(6) for _ in range(3)]

        original, want = stream(7, "detection"), stream(7, "detection")
        advance(original), advance(want)
        want = advance(want)
        for clone in (*clones(original), original):
            assert advance(clone) == want

    @pytest.mark.parametrize("field, value, message", [
        ("model", "bogus", "model must be one of ideal, gaussian, got 'bogus'"),
        ("model", None, "model must be one of ideal, gaussian, got None"),
        ("trials", True, "trials must be an integer >= 1, got True"),
        ("seed", False, "seed must be an integer >= 0, got False"),
        ("theta", True, "theta must be finite and in (0, pi/2), got True"),
        ("alpha", False, "alpha must be finite and > 0, got False")])
    def test_runconfig_names_the_field(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RunConfig(**{field: value})

    def test_runconfig_stores_plain_ints(self):
        cfg = RunConfig(trials=np.int64(50), seed=np.int64(3), model="gaussian")
        assert type(cfg.trials) is int and type(cfg.seed) is int
        assert (cfg.trials, cfg.seed) == (50, 3)
        stats = monte_carlo_misclassification(2, cfg)
        assert type(stats.trials) is int
        assert json.loads(json.dumps(stats.to_json_dict()))["trials"] == 50

    def test_runconfig_replace_validates_again(self):
        cfg = RunConfig()
        for field, value in (("theta", -1), ("trials", True)):
            with pytest.raises(ValueError, match=f"^{field} must be"):
                cfg._replace(**{field: value})
        changed = cfg._replace(model="gaussian")
        assert type(changed) is RunConfig
        assert changed.model is HomodyneModel.GAUSSIAN

    def test_runconfig_validation(self):
        for field, value in (("trials", 0), ("theta", 0.0), ("theta", 2.0),
                             ("theta", math.pi / 2),
                             ("theta", float("nan")), ("alpha", 0.0),
                             ("alpha", float("inf")), ("seed", -1),
                             ("seed", 1.5), ("seed", "7"), ("trials", 2.5),
                             ("trials", None), ("theta", "0.1"), ("theta", None),
                             ("alpha", "60"), ("alpha", 1j)):
            with pytest.raises(ValueError, match=f"^{field} must be"):
                RunConfig(**{field: value})
        assert RunConfig(model="gaussian").model is HomodyneModel.GAUSSIAN
        # the last values inside each open bound, and the least trial count
        for field, value in (("theta", math.nextafter(math.pi / 2, 0)),
                             ("alpha", 5e-324), ("trials", 1)):
            assert getattr(RunConfig(**{field: value}), field) == value

    def test_transcript_json_records(self):
        cfg = RunConfig(theta=0.2, alpha=60.0, seed=4)
        _, tr = hgsa_n_analyze(bell_product("psi+", "phi-"), cfg)
        assert tr.config is cfg
        doc = tr.to_json_dict()
        assert doc["probes"][0] == {"probe": "alpha1", "magnitude": 1,
                                    "p": pytest.approx(1.0)}
        assert {k: doc[k] for k in ("theta", "alpha", "model", "seed")} == {
            "theta": 0.2, "alpha": 60.0, "model": "ideal", "seed": 4}
        analyze = json.loads(resources.files("hypersa.schemas")
                             .joinpath("analyze.schema.json").read_text())
        jsonschema.validate(doc["detection"], analyze["properties"]["detection"])
        assert doc["detection"] == outcome_json(tr.detector_outcome)

    def test_probe_ids_layout(self):
        assert probe_ids(2) == ["alpha1", "beta1"]
        assert probe_ids(4) == ["alpha1", "alpha2", "alpha3",
                                "beta1", "beta2", "beta3"]


# What each module exposes, by home module.  hypersa exposes every public
# name; protocols its own names, the ones it imports to run the analyser and
# the verifier's, the noise study's and the tables' public names.  Each
# resolves, imported on first use.
HYPERSA_EXPORTS = {
    "kerr": "JointState ProbeReadout attach_probes "
            "gaussian_error_prob homodyne_measure magnitude_distribution parity_gadget",
    "optics": "DetectorOutcome PhotonRecord detection_distribution outcome_json "
              "outcome_tokens sample_outcome",
    "protocols": "HomodyneModel RunConfig Transcript decode_signs hgsa_n_analyze "
                 "probe_ids sign_basis_transform",
    "rng": "stream",
    "verifier": "StateCheck VerificationReport verify_complete",
    "noise": "NoiseStats monte_carlo_misclassification predicted_error_rate "
             "wilson_interval",
    "tables": "DetectionRow SignatureRow display_bits emit_detection_table "
              "emit_signature_table",
    "states": "BasisKet HyperLabel PhotonState all_canonical_labels apply_gate "
              "bell_state canonical_bit_strings complement equal_up_to_global_phase "
              "ghz_state hyper_product parse_state_literal state_from_label",
}
PROTOCOLS_EXPORTS = {
    "protocols": "HomodyneModel PhotonCountError RunConfig Transcript "
                 "VERIFY_MAX_PHOTONS _PROBES _decode_bits check_photon_count "
                 "decode_signs hgsa_n_analyze pre_detection probe_ids "
                 "run_parity_stage sign_basis_transform",
    "rng": "stream",
    "verifier": "StateCheck VerificationReport verify_complete",
    "noise": "NoiseStats monte_carlo_misclassification predicted_error_rate "
             "wilson_interval",
    "tables": "DetectionRow SignatureRow display_bits emit_detection_table "
              "emit_signature_table",
    "kerr": "JointState ProbeReadout attach_probes homodyne_measure parity_gadget",
    "optics": "DetectorOutcome outcome_json sample_outcome",
    "states": "HyperLabel PhotonState _check_dof apply_gate",
}

# Names of the modules split out of protocols that only their own module
# reads, which protocols no longer exposes.
MOVED_PRIVATE_NAMES = {
    "verifier": "_DofCheck _INVARIANTS _factor_run",
    "noise": "MC_CHUNK _misread_label",
    "tables": "_SIGN_ORDER _member_literal",
}

# Names that only the split-out modules import, which protocols re-exported
# after the split and no longer does.
DROPPED_RE_EXPORTS = {
    "kerr": "gaussian_error_prob misread",
    "optics": "detection_distribution outcome_tokens",
    "states": "all_canonical_labels canonical_bit_strings complement "
              "equal_up_to_global_phase ghz_state hyper_product state_from_label",
}


def assert_only_in_home_modules(names_by_home, monkeypatch):
    # protocols does not export them, so reading or patching one there
    # fails loudly instead of reaching nothing
    for home, names in names_by_home.items():
        home_module = importlib.import_module(f"hypersa.{home}")
        for name in names.split():
            assert hasattr(home_module, name), name
            assert name not in dir(protocols), name
            with pytest.raises(AttributeError, match=f"no attribute {name!r}$"):
                getattr(protocols, name)
            with pytest.raises(AttributeError, match=f"no attribute {name!r}$"):
                monkeypatch.setattr(protocols, name, None)


class TestLazyExports:
    @pytest.mark.parametrize("module, exports", [(hypersa, HYPERSA_EXPORTS),
                                                 (protocols, PROTOCOLS_EXPORTS)],
                             ids=["hypersa", "protocols"])
    def test_every_name_resolves_to_its_home_object(self, module, exports):
        for home, names in exports.items():
            home_module = importlib.import_module(f"hypersa.{home}")
            for name in names.split():
                assert getattr(module, name) is getattr(home_module, name), name
                assert name in dir(module), name

    def test_each_export_is_listed_under_the_module_that_defines_it(self):
        for home, names in hypersa._EXPORTS.items():
            for name in names.split():
                value = getattr(hypersa, name)
                if inspect.isclass(value) or inspect.isfunction(value):
                    assert value.__module__ == f"hypersa.{home}", (home, name)

    def test_the_rotation_has_one_name(self):
        # the wave plate and beam splitter wrappers and the gate constant are gone
        for module, name in ((hypersa, "apply_wp"), (hypersa, "apply_bs"),
                             (optics, "apply_wp"), (optics, "apply_bs"),
                             (protocols, "apply_wp"), (protocols, "apply_bs"),
                             (states, "HADAMARD")):
            assert not hasattr(module, name), (module.__name__, name)
        assert list(inspect.signature(states.apply_gate).parameters) == [
            "state", "photon", "dof"]

    def test_the_readout_model_left_kerr(self):
        assert not hasattr(importlib.import_module("hypersa.kerr"), "HomodyneModel")

    def test_moved_private_names_live_only_in_their_home_modules(self, monkeypatch):
        assert_only_in_home_modules(MOVED_PRIVATE_NAMES, monkeypatch)

    def test_dropped_re_exports_live_only_in_their_home_modules(self, monkeypatch):
        assert_only_in_home_modules(DROPPED_RE_EXPORTS, monkeypatch)

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from hypersa import *", namespace)
        names = {name for names in HYPERSA_EXPORTS.values() for name in names.split()}
        assert names <= namespace.keys()
        assert all(namespace[name] is getattr(hypersa, name) for name in names)

    @pytest.mark.parametrize("module", [hypersa, protocols], ids=["hypersa", "protocols"])
    def test_an_unknown_name_raises_naming_it(self, module):
        with pytest.raises(AttributeError, match=f"^module {module.__name__!r} has "
                                                 "no attribute 'no_such_name'$"):
            module.no_such_name
