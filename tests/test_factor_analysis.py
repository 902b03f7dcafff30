"""The analyser runs each DOF on its own factor and draws the detector event
one factor at a time.  These tests hold it to two references: the dense joint
run of ``joint_reference.py``, which shares no code with the package
(:func:`joint_run`), and the closed form of every rotated one-DOF factor in
``oracle.py`` (:func:`rotated_ghz_factor`)."""

import math
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypersa import protocols
from hypersa.kerr import JointState, attach_probes
from hypersa.optics import DetectorOutcome, PhotonRecord, detection_distribution
from hypersa.protocols import (HomodyneModel, RunConfig, hgsa_n_analyze, pre_detection,
                               probe_ids, run_parity_stage, verify_complete)
from hypersa.rng import pick
from hypersa.states import (BasisKet, HyperLabel, PhotonState, all_canonical_labels,
                            canonical_bit_strings, ghz_state, hyper_product, split_product,
                            state_from_label)

from joint_reference import joint_run, transcript_probabilities
from oracle import rotated_ghz_factor
from test_protocols import canonical_label

MODELS = (HomodyneModel.IDEAL, HomodyneModel.GAUSSIAN)


class Scripted:
    """A generator whose ``random()`` returns the given values in order."""

    def __init__(self, *values: float):
        self.values = iter(values)

    def random(self) -> float:
        return next(self.values)


def random_label(n: int, rng: random.Random) -> HyperLabel:
    return HyperLabel(rng.choice("+-"), "0" + "".join(rng.choice("01") for _ in range(n - 1)),
                      rng.choice("+-"), "0" + "".join(rng.choice("01") for _ in range(n - 1)))


def assert_matches_closed_form(sign: str, bits: str, dof: str) -> None:
    rotated, _ = pre_detection(ghz_state(sign, bits, dof), RunConfig(), dof)
    want = rotated_ghz_factor(sign, bits, dof)
    assert [ket for ket, _ in rotated.items()] == sorted(want)
    err = max(abs(amp - want[ket]) for ket, amp in rotated.items())
    assert err < 1e-12, (sign, bits, dof, err)


class TestClosedFormFactor:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_factor_run_matches(self, n):
        # every (sign, bits, dof) factor that verify_complete(n) runs
        for dof in "PS":
            for bits in canonical_bit_strings(n):
                for sign in "+-":
                    assert_matches_closed_form(sign, bits, dof)

    def test_a_sample_at_ten_photons(self):
        rng = random.Random(10)
        for _ in range(4):
            bits = "0" + "".join(rng.choice("01") for _ in range(9))
            for dof in "PS":
                for sign in "+-":
                    assert_matches_closed_form(sign, bits, dof)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(2, 8), sign=st.sampled_from("+-"),
           dof=st.sampled_from("PS"))
    def test_any_representative(self, data, n, sign, dof):
        # a non-canonical representative too: the closed form holds for any b
        bits = data.draw(st.text("01", min_size=n, max_size=n))
        assert_matches_closed_form(sign, bits, dof)


def joint_inputs():
    """Every canonical input at n=2..5 and 50 random ones at n=6 and n=7."""
    for n in range(2, 6):
        yield pytest.param(n, all_canonical_labels(n), id=f"n{n}")
    rng = random.Random(67)
    for n in (6, 7):
        yield pytest.param(n, [random_label(n, rng) for _ in range(50)], id=f"n{n}")


def random_factor(n: int, dof: str, rng: np.random.Generator):
    """A random complex factor in ``dof``, its other DOF all 0s, and its 2^n
    amplitudes indexed by int(bits, 2)."""
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    amps /= np.linalg.norm(amps)
    zeros, strings = "0" * n, (format(i, f"0{n}b") for i in range(2 ** n))
    return PhotonState(n, {BasisKet(bits, zeros) if dof == "P" else BasisKet(zeros, bits): a
                           for bits, a in zip(strings, amps)}), amps


def outcome_index(outcome: DetectorOutcome) -> int:
    """An event's int(pol_bits + spa_bits, 2): V is polarization bit 1, path 2
    spatial bit 1."""
    return int("".join("1" if r.pol == "V" else "0" for r in outcome.records)
               + "".join(str(r.mode - 1) for r in outcome.records), 2)


class TestTheReferenceStandsAlone:
    def test_it_loads_no_package_module(self):
        # a fresh interpreter, so nothing this test run imported counts
        code = ("import sys, joint_reference; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'hypersa'))")
        run = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).parent,
                             capture_output=True, text=True, check=True)
        assert run.stdout == "[]\n"


class TestAgainstTheJointPipeline:
    @pytest.mark.parametrize("n, labels", joint_inputs())
    def test_labels_readouts_and_event(self, n, labels):
        rng = random.Random(n)
        for label in labels:
            state = state_from_label(label)
            for model in MODELS:
                # three seeds per input at n <= 3, one fresh seed each above
                for seed in (rng.randrange(2 ** 31) for _ in range(3 if n <= 3 else 1)):
                    cfg = RunConfig(model=model, seed=seed)
                    got, transcript = hgsa_n_analyze(state, cfg)
                    want = joint_run(label, cfg)
                    assert got == want.label
                    if model is HomodyneModel.IDEAL:
                        assert got == label
                    assert transcript.probe_readouts == tuple(want.readouts)
                    event = transcript.detector_outcome
                    p = want.probabilities[outcome_index(event)]
                    assert p > 0, (label, seed)
                    assert abs(event.probability - p) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_products_against_the_transcript_probability(self, n):
        # non-GHZ factors, so the readouts are no point masses: each
        # transcript's readouts select a projection of the reference vector,
        # and its event is drawn from that projection, renormalized
        rng, classes = np.random.default_rng(n), set()
        for _ in range(5):
            (p_factor, p_amps), (s_factor, s_amps) = (random_factor(n, dof, rng)
                                                      for dof in "PS")
            state, vec = hyper_product(p_factor, s_factor), np.kron(p_amps, s_amps)
            for seed in rng.integers(2 ** 31, size=3).tolist():
                _, transcript = hgsa_n_analyze(state, RunConfig(seed=seed))
                readouts = transcript.probe_readouts
                classes.update(r.classes for r in readouts)
                weight, probabilities = transcript_probabilities(vec, readouts)
                assert abs(math.prod(r.p for r in readouts) - weight) < 1e-12
                event = transcript.detector_outcome
                p = probabilities[outcome_index(event)]
                assert p > 0, (n, seed)
                assert abs(event.probability - p) < 1e-12
        assert max(classes) > 1

    @settings(max_examples=40, deadline=None)
    @given(label=canonical_label(max_n=6), u1=st.floats(0, 1, exclude_max=True),
           u2=st.floats(0, 1, exclude_max=True))
    def test_the_event_is_the_p_pick_at_u1_joined_with_the_s_pick_at_u2(self, label, u1, u2):
        n, cfg = label.n_photons, RunConfig()
        state, real_stream = state_from_label(label), protocols.stream
        # the detection stream draws u1 then u2; the probes keep their streams
        protocols.stream = lambda seed, name: (Scripted(u1, u2) if name == "detection"
                                               else real_stream(seed, name))
        try:
            _, transcript = hgsa_n_analyze(state, cfg)
        finally:
            protocols.stream = real_stream
        p, s = (pick(((o, o.probability) for o in detection_distribution(
                    pre_detection(factor, cfg, dof)[0])), Scripted(u))[0]
                for u, dof, factor in zip((u1, u2), "PS", split_product(state)))
        assert transcript.detector_outcome.records == tuple(
            PhotonRecord(i, s.records[i].mode, p.records[i].pol) for i in range(n))
        assert transcript.detector_outcome.probability == p.probability * s.probability


def keyed_on_spatial_pattern(real):
    """A parity gadget that also shifts its polarization probe by one
    multiple on every branch whose spatial bits have photon 2 = 1 and
    photon 3 = 0: a coupling of the DOFs."""
    def gadget(joint, probe, ref, other, dof):
        out = real(joint, probe, ref, other, dof)
        if dof != "P":
            return out
        i = out.probe_index(probe)
        return JointState(out.n_photons, out.probes, {
            (ket, mults[:i] + (mults[i] + 1,) + mults[i + 1:]
             if ket.spa_bits[2:4] == "10" else mults): amp
            for (ket, mults), amp in out.items()})
    return gadget


class TestACouplingOnlyTheJointPipelineMeets:
    def test_the_joint_pipeline_misreads_and_the_analyser_does_not(self, monkeypatch):
        # the polarization factor's spatial bits are all 0s, so only a joint
        # state holds the pattern: the package's own stage misreads it there,
        # while verify and the analyser, which never build one, stay right
        monkeypatch.setattr(protocols, "parity_gadget",
                            keyed_on_spatial_pattern(protocols.parity_gadget))
        cfg = RunConfig()
        joint = attach_probes(state_from_label(HyperLabel("+", "0000", "+", "0010")),
                              probe_ids(4, "P"))
        _, readouts = run_parity_stage(joint, "P", cfg)
        assert [r.magnitude for r in readouts] == [1, 1, 1]
        assert verify_complete(4).all_correct
        for label in all_canonical_labels(4):
            assert hgsa_n_analyze(state_from_label(label), cfg)[0] == label


class TestTenPhotons:
    def test_labels_round_trip(self):
        rng = random.Random(1010)
        for seed in range(4):
            label = random_label(10, rng)
            got, transcript = hgsa_n_analyze(state_from_label(label), RunConfig(seed=seed))
            assert got == label
            assert len(transcript.probe_readouts) == 18
            assert len(transcript.detector_outcome.records) == 10
