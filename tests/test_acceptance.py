"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hypersa.kerr import attach_probes, gaussian_error_prob
from hypersa.optics import detection_distribution, outcome_tokens
from hypersa.protocols import (HomodyneModel, RunConfig, decode_signs,
                               emit_detection_table, emit_signature_table,
                               monte_carlo_misclassification, probe_ids,
                               run_parity_stage, sign_basis_transform,
                               verify_complete)
from hypersa.states import (BasisKet, HyperLabel, PhotonState,
                            all_canonical_labels, equal_up_to_global_phase,
                            state_from_label)

from oracle import dense_vector, hadamard_everywhere
from test_tables import (DETECTION_GOLDEN_2, DISPLAY_ORDER_3,
                         SIGNATURE_GOLDEN_2, SIGNATURE_GOLDEN_3, SIGN_ORDER)


@contextmanager
def criterion(num: int, summary: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL - {summary}")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None and elapsed > budget_s:
        print(f"ACCEPTANCE {num} FAIL - {summary} (took {elapsed:.2f}s, "
              f"budget {budget_s:.0f}s)")
        pytest.fail(f"criterion {num} exceeded its {budget_s:.0f}s budget: "
                    f"{elapsed:.2f}s")
    print(f"ACCEPTANCE {num} PASS - {summary} ({elapsed:.2f}s)")


def test_criterion_1_two_photon_completeness():
    with criterion(1, "all 16 two-photon inputs classified on every branch", 1.0):
        report = verify_complete(2, RunConfig())
        assert report.total_states == 16
        assert report.correct == 16
        assert all(check.ok for check in report.per_state)
        assert report.group_count == 4


def test_criterion_2_two_photon_signature_table():
    with criterion(2, "two-photon probe-shift table matches cell for cell", 1.0):
        rows = emit_signature_table(2)
        assert [(r.p_bits, r.s_bits, r.shifts) for r in rows] == SIGNATURE_GOLDEN_2


def test_criterion_3_two_photon_detection_sets():
    with criterion(3, "each Bell product lands on its 4-outcome detector set", 1.0):
        for label in all_canonical_labels(2):
            state = state_from_label(label)
            transformed = sign_basis_transform(sign_basis_transform(state, "S"), "P")
            dist = detection_distribution(transformed)
            tokens = [outcome_tokens(o) for o in dist]
            assert tokens == DETECTION_GOLDEN_2[(label.p_sign, label.s_sign)]
            for outcome in dist:
                assert abs(outcome.probability - 0.25) <= 1e-10


def test_criterion_4_three_photon_completeness_and_tables():
    with criterion(4, "64/64 three-photon inputs, 16 groups, tables row for row", 5.0):
        report = verify_complete(3, RunConfig())
        assert (report.total_states, report.correct) == (64, 64)
        assert report.group_count == 16
        sig_rows = emit_signature_table(3)
        assert [(r.p_bits, r.s_bits, r.shifts) for r in sig_rows] == SIGNATURE_GOLDEN_3
        det_rows = emit_detection_table(3)
        for row, signs in zip(det_rows, SIGN_ORDER):
            assert (row.p_sign, row.s_sign) == signs
            assert row.members == tuple(
                f"P:{row.p_sign}{pb};S:{row.s_sign}{sb}"
                for pb in DISPLAY_ORDER_3 for sb in DISPLAY_ORDER_3)


# The worked group: polarization class 000 against spatial class 001, all
# four sign combinations, transcribed after the sign-readout rotation.
_P_PLUS = {"000": 0.5, "011": 0.5, "101": 0.5, "110": 0.5}
_P_MINUS = {"001": 0.5, "010": 0.5, "100": 0.5, "111": 0.5}
_S_PLUS = {"000": 0.5, "011": -0.5, "101": -0.5, "110": 0.5}
_S_MINUS = {"001": 0.5, "010": -0.5, "100": -0.5, "111": 0.5}


def _worked_state(p_amps, s_amps):
    return PhotonState(3, {BasisKet(p, s): pa * sa
                           for p, pa in p_amps.items()
                           for s, sa in s_amps.items()})


def test_criterion_5_worked_group_amplitudes_against_dense_oracle():
    with criterion(5, "worked three-photon group checked amplitude-level"):
        cases = [
            (HyperLabel("+", "000", "+", "001"), _P_PLUS, _S_PLUS),
            (HyperLabel("+", "000", "-", "001"), _P_PLUS, _S_MINUS),
            (HyperLabel("-", "000", "+", "001"), _P_MINUS, _S_PLUS),
            (HyperLabel("-", "000", "-", "001"), _P_MINUS, _S_MINUS),
        ]
        rotation = hadamard_everywhere(3)
        for label, p_amps, s_amps in cases:
            state = state_from_label(label)
            transformed = sign_basis_transform(sign_basis_transform(state, "S"), "P")
            # dense-matrix oracle, amplitude for amplitude
            expected = rotation @ dense_vector(state)
            got = dense_vector(transformed)
            assert np.max(np.abs(got - expected)) <= 1e-10
            # matches the worked expansion up to a global phase
            assert equal_up_to_global_phase(transformed,
                                            _worked_state(p_amps, s_amps))
            # 16-outcome support with the group's sign parities
            dist = detection_distribution(transformed)
            assert len(dist) == 16
            for outcome in dist:
                assert abs(outcome.probability - 1 / 16) <= 1e-10
                assert decode_signs(outcome) == (label.p_sign, label.s_sign)


def test_criterion_6_n_photon_scaling():
    with criterion(6, "256/256 at n=4 and 1024/1024 at n=5, groups 4^(n-1)", 60.0):
        report4 = verify_complete(4, RunConfig())
        assert (report4.total_states, report4.correct) == (256, 256)
        assert report4.group_count == 64
        report5 = verify_complete(5, RunConfig())
        assert (report5.total_states, report5.correct) == (1024, 1024)
        assert report5.group_count == 256


def test_criterion_7_nondemolition_suite():
    with criterion(7, "200 random inputs survive the QND stages unchanged"):
        rng = np.random.default_rng(424242)
        for trial in range(200):
            n = int(rng.integers(2, 5))
            labels = all_canonical_labels(n)
            label = labels[int(rng.integers(len(labels)))]
            state = state_from_label(label)
            cfg = RunConfig(seed=int(rng.integers(2 ** 31)))
            joint = attach_probes(state, probe_ids(n))
            joint, _ = run_parity_stage(joint, "P", cfg)
            joint, _ = run_parity_stage(joint, "S", cfg)
            assert equal_up_to_global_phase(joint.photon_state(), state)


def test_criterion_8_gaussian_noise_statistics():
    with criterion(8, "sampled error rate tracks the per-probe composition "
                      "and falls with alpha", 30.0):
        theta, trials = 0.2, 10_000
        cfg = RunConfig(theta=theta, alpha=30.0,
                        model=HomodyneModel.GAUSSIAN, trials=trials, seed=2026)
        stats = monte_carlo_misclassification(2, cfg)
        predicted = stats.predicted
        assert predicted == pytest.approx(
            1 - (1 - gaussian_error_prob(30.0, theta)) ** 2)
        sigma = math.sqrt(predicted * (1 - predicted) / trials)
        assert abs(stats.rate - predicted) <= 3 * sigma
        # increasing alpha sweep: observed rate strictly decreases
        rates = []
        for alpha in (10.0, 30.0, 60.0, 100.0, 150.0):
            sweep_cfg = RunConfig(theta=theta, alpha=alpha,
                                  model=HomodyneModel.GAUSSIAN, trials=2500,
                                  seed=99)
            rates.append(monte_carlo_misclassification(2, sweep_cfg).rate)
        assert all(a > b for a, b in zip(rates, rates[1:]))
