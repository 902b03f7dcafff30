import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypersa.kerr import (JointState, attach_probes, gaussian_error_prob,
                          homodyne_measure, magnitude_distribution, misread,
                          parity_gadget)
from hypersa.rng import stream
from hypersa.states import (PRUNE_EPS, BasisKet, PhotonState, bell_state,
                            equal_up_to_global_phase, ghz_state,
                            hyper_product)

from oracle import random_state

PROBE = "alpha1"


def joint_of(state, probes=(PROBE,)):
    return attach_probes(state, probes)


def multiples_of(joint, ket):
    return {k[0]: k[1] for k, _ in joint.items()}[ket]


class TestKerrInteract:
    """The two cross-Kerr passes of one gadget, seen branch by branch."""

    def test_active_branch_shifts(self):
        # the other photon's pass fires alone: +1
        j = joint_of(PhotonState(2, {BasisKet("00", "01"): 1.0}))
        out = parity_gadget(j, "alpha1", 0, 1, "S")
        assert multiples_of(out, BasisKet("00", "01")) == (1,)

    def test_inactive_branch_unchanged(self):
        # a photon outside the pair never shifts the probe
        j = joint_of(PhotonState(3, {BasisKet("001", "001"): 1.0}))
        out = parity_gadget(j, "alpha1", 0, 1, "P")
        assert multiples_of(out, BasisKet("001", "001")) == (0,)

    def test_opposite_signs_cancel(self):
        # swapping the reference and the other photon flips every shift
        j = joint_of(bell_state("psi+", "P"))
        there = parity_gadget(j, "alpha1", 0, 1, "P")
        back = parity_gadget(there, "alpha1", 1, 0, "P")
        assert back.items() == j.items()

    def test_unknown_probe_rejected(self):
        with pytest.raises(ValueError, match="unknown probe"):
            parity_gadget(joint_of(bell_state("phi+", "P")), "beta9", 0, 1, "P")

    def test_repeat_passes_accumulate(self):
        # two gadgets on the same probe stack an odd branch to +-2
        j = joint_of(bell_state("psi+", "P"))
        out = parity_gadget(parity_gadget(j, "alpha1", 0, 1, "P"),
                            "alpha1", 0, 1, "P")
        assert multiples_of(out, BasisKet("01", "00")) == (2,)
        assert multiples_of(out, BasisKet("10", "00")) == (-2,)


class TestParityGadget:
    def test_even_branches_untouched(self):
        out = parity_gadget(joint_of(bell_state("phi+", "P")), "alpha1", 0, 1, "P")
        assert multiples_of(out, BasisKet("00", "00")) == (0,)
        assert multiples_of(out, BasisKet("11", "00")) == (0,)

    def test_odd_branches_signed_by_reference_bit(self):
        out = parity_gadget(joint_of(bell_state("psi+", "P")), "alpha1", 0, 1, "P")
        assert multiples_of(out, BasisKet("01", "00")) == (1,)
        assert multiples_of(out, BasisKet("10", "00")) == (-1,)

    def test_three_photon_pairings(self):
        # two probes pairing (A,B) and (A,C) on a "-" state with bits 100
        probes = ("alpha1", "alpha2")
        j = attach_probes(ghz_state("-", "100", "P"), probes)
        j = parity_gadget(j, "alpha1", 0, 1, "P")
        j = parity_gadget(j, "alpha2", 0, 2, "P")
        assert multiples_of(j, BasisKet("100", "000")) == (-1, -1)
        assert multiples_of(j, BasisKet("011", "000")) == (1, 1)

    def test_same_photon_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            parity_gadget(joint_of(bell_state("phi+", "P")), "alpha1", 1, 1, "P")

    @pytest.mark.parametrize("ref, other", [(0, 2), (2, 0), (-1, 1), (0, -1)])
    def test_photon_out_of_range_rejected(self, ref, other):
        with pytest.raises(ValueError, match=r"photon index -?\d out of range"):
            parity_gadget(joint_of(bell_state("phi+", "P")), "alpha1", ref, other, "P")

    @pytest.mark.parametrize("ref, other, bad", [(0, True, True), (True, 0, True),
                                                 (1.0, 0, 1.0), (0, 1.0, 1.0)])
    def test_a_bool_or_float_photon_index_rejected(self, ref, other, bad):
        # True once passed as photon 1, and 1.0 failed on string indexing
        with pytest.raises(ValueError, match=f"^photon index {bad} out of range "
                                             f"for 2 photons$"):
            parity_gadget(joint_of(bell_state("phi+", "P")), "alpha1", ref, other, "P")

    def test_unknown_dof_rejected(self):
        with pytest.raises(ValueError, match="degree of freedom"):
            parity_gadget(joint_of(bell_state("phi+", "P")), "alpha1", 0, 1, "X")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(2, 4), dof=st.sampled_from("PS"),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_per_branch_shift(self, data, n, dof, seed):
        # reference: each branch moves the probe by (other bit - ref bit),
        # on a random state whose branches already carry random multiples
        ref, other = data.draw(st.permutations(range(n)))[:2]
        rng = np.random.default_rng(seed)
        probes = ("alpha1", "alpha2")
        probe = data.draw(st.sampled_from(probes))
        idx = 0 if probe == "alpha1" else 1
        joint = JointState(n, probes, {
            (ket, tuple(int(m) for m in rng.integers(-2, 3, size=2))): amp
            for ket, amp in random_state(n, rng).items()})
        want = {}
        for (ket, mults), amp in joint.items():
            bits = ket.pol_bits if dof == "P" else ket.spa_bits
            mults = list(mults)
            mults[idx] += int(bits[other]) - int(bits[ref])
            want[(ket, tuple(mults))] = amp
        out = parity_gadget(joint, probe, ref, other, dof)
        assert out.items() == JointState(n, probes, want).items()

    def test_norm_preserved_exactly(self):
        j = joint_of(hyper_product(bell_state("psi-", "P"), bell_state("phi+", "S")))
        out = parity_gadget(j, "alpha1", 0, 1, "P")
        assert (sum(abs(a) ** 2 for _, a in out.items())
                == sum(abs(a) ** 2 for _, a in j.items()))

    def test_multiples_bounded_by_coupled_photons(self):
        j = joint_of(bell_state("psi+", "P"))
        out = parity_gadget(j, "alpha1", 0, 1, "P")
        for (_, mults), _ in out.items():
            assert all(abs(m) <= 2 for m in mults)


class TestHomodyne:
    def test_odd_parity_point_mass(self):
        s = hyper_product(bell_state("psi+", "P"), bell_state("phi-", "S"))
        j = parity_gadget(joint_of(s), "alpha1", 0, 1, "P")
        collapsed, readout = homodyne_measure(j, "alpha1")
        assert readout.magnitude == 1
        assert (readout.p, readout.classes) == (1.0, 1)  # exact, no float dust
        assert equal_up_to_global_phase(collapsed.photon_state(), s)

    def test_even_parity_point_mass(self):
        s = hyper_product(bell_state("phi-", "P"), bell_state("phi+", "S"))
        j = parity_gadget(joint_of(s), "alpha1", 0, 1, "P")
        collapsed, readout = homodyne_measure(j, "alpha1")
        assert readout.magnitude == 0
        assert (readout.p, readout.classes) == (1.0, 1)
        assert equal_up_to_global_phase(collapsed.photon_state(), s)

    def test_mixed_parity_collapses_each_way(self):
        sq = 1 / math.sqrt(2)
        s = PhotonState(2, {BasisKet("00", "00"): sq, BasisKet("01", "00"): sq})
        j = parity_gadget(joint_of(s), "alpha1", 0, 1, "P")
        assert magnitude_distribution(j, "alpha1") == {
            0: pytest.approx(0.5), 1: pytest.approx(0.5)}
        hits = {0: 0, 1: 0}
        for seed in range(200):
            collapsed, readout = homodyne_measure(j, "alpha1", rng=stream(seed, ""))
            hits[readout.magnitude] += 1
            assert readout.p == pytest.approx(0.5)
            expected = BasisKet("00", "00") if readout.magnitude == 0 else BasisKet("01", "00")
            assert collapsed.photon_state().amplitude(expected) == pytest.approx(1.0)
        assert hits[0] > 60 and hits[1] > 60

    def test_mixed_parity_without_seed_rejected(self):
        sq = 1 / math.sqrt(2)
        s = PhotonState(2, {BasisKet("00", "00"): sq, BasisKet("01", "00"): sq})
        j = parity_gadget(joint_of(s), "alpha1", 0, 1, "P")
        with pytest.raises(ValueError, match="seed"):
            homodyne_measure(j, "alpha1")

    def test_class_weights_sum_to_one(self):
        s = hyper_product(bell_state("psi+", "P"), bell_state("psi+", "S"))
        j = parity_gadget(joint_of(s), "alpha1", 0, 1, "P")
        assert sum(magnitude_distribution(j, "alpha1").values()) == pytest.approx(
            1.0, abs=1e-10)

    def test_nondemolition_for_all_bell_products(self):
        kinds = ("phi+", "phi-", "psi+", "psi-")
        for p in kinds:
            for s in kinds:
                state = hyper_product(bell_state(p, "P"), bell_state(s, "S"))
                j = parity_gadget(joint_of(state), "alpha1", 0, 1, "P")
                collapsed, _ = homodyne_measure(j, "alpha1")
                assert equal_up_to_global_phase(collapsed.photon_state(), state)

    @pytest.mark.parametrize("residue", [0.0, 1e-15])
    def test_cancelling_branches_are_pruned(self, residue):
        # one ket under multiples +1 and -1 falls in one magnitude class,
        # where its two amplitudes add up to (nearly) nothing
        ket, other = BasisKet("00", "00"), BasisKet("01", "00")
        joint = JointState(2, (PROBE,), {(ket, (1,)): 0.5, (ket, (-1,)): residue - 0.5,
                                         (other, (1,)): math.sqrt(0.5)})
        collapsed, _ = homodyne_measure(joint, "alpha1")
        assert [key for key, _ in collapsed.items()] == [(other, ())]
        assert all(abs(amp) >= PRUNE_EPS for _, amp in collapsed.items())

    def test_photon_state_requires_all_probes_measured(self):
        j = joint_of(bell_state("phi+", "P"))
        with pytest.raises(ValueError, match="still attached"):
            j.photon_state()


class TestGaussianModel:
    def test_golden_error_value(self):
        # frozen from an independent high-precision erfc evaluation;
        # tolerance covers double rounding of the argument
        assert gaussian_error_prob(1000.0, 0.05) == pytest.approx(
            0.10569734230996958, abs=1e-12)

    def test_vanishing_separation_gives_half(self):
        assert gaussian_error_prob(1.0, 0.0) == 0.5
        assert gaussian_error_prob(1.0, 1e-9) == pytest.approx(0.5, abs=1e-12)

    def test_strictly_decreasing_in_alpha(self):
        values = [gaussian_error_prob(a, 0.05) for a in (10, 100, 1000, 3000)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain_checks(self):
        with pytest.raises(ValueError, match="alpha"):
            gaussian_error_prob(0.0, 0.1)
        for theta in (math.pi, math.pi / 2, -0.1):
            with pytest.raises(ValueError, match="theta"):
                gaussian_error_prob(1.0, theta)

    @pytest.mark.parametrize("alpha, theta, field", [
        (math.nan, 0.1, "alpha"),
        (math.inf, 0.1, "alpha"),
        (1.0, math.nan, "theta"),
        (1.0, math.inf, "theta"),
    ])
    def test_non_finite_inputs_rejected(self, alpha, theta, field):
        with pytest.raises(ValueError, match=field):
            gaussian_error_prob(alpha, theta)

    @pytest.mark.parametrize("magnitude, reported", [(0, 1), (1, 0), (2, None)])
    def test_misread_swaps_zero_and_one(self, magnitude, reported):
        assert misread(magnitude) == reported

    def test_misreads_flip_report_not_collapse(self):
        # weak separation: err close to 0.5, reports flip but state survives
        err = gaussian_error_prob(1.0, 1e-6)
        assert err == pytest.approx(0.5, abs=1e-9)
        s = hyper_product(bell_state("psi+", "P"), bell_state("phi+", "S"))
        j = parity_gadget(attach_probes(s, ("alpha1",)), "alpha1", 0, 1, "P")
        rng = np.random.default_rng(77)
        reports = []
        for _ in range(400):
            collapsed, readout = homodyne_measure(j, "alpha1", err, rng)
            reports.append(readout.magnitude)
            assert equal_up_to_global_phase(collapsed.photon_state(), s)
        flips = reports.count(0)  # true magnitude is 1
        assert 140 < flips < 260  # ~Binomial(400, 0.5) within >4 sigma

    def test_gaussian_without_seed_rejected(self):
        s = hyper_product(bell_state("psi+", "P"), bell_state("phi+", "S"))
        j = parity_gadget(joint_of(s), "alpha1", 0, 1, "P")
        with pytest.raises(ValueError, match="seed"):
            homodyne_measure(j, "alpha1", gaussian_error_prob(5000.0, 0.01))

    def test_magnitude_two_cannot_be_misread(self):
        # two gadgets on one probe put psi+ at multiples +-2: a point mass
        # that no misread reaches, so the report is certain and seedless
        s = bell_state("psi+", "P")
        j = parity_gadget(parity_gadget(joint_of(s), "alpha1", 0, 1, "P"),
                          "alpha1", 0, 1, "P")
        ideal, _ = homodyne_measure(j, "alpha1")
        for rng in (None, stream(3, "")):
            collapsed, readout = homodyne_measure(j, "alpha1",
                                                  gaussian_error_prob(10.0, 0.2), rng)
            assert readout == ("alpha1", 2, 1.0, 1)
            assert collapsed.items() == ideal.items()

    @pytest.mark.parametrize("magnitude", [0, 1])
    def test_misread_prob_one_always_flips(self, magnitude):
        kind = "psi+" if magnitude else "phi+"
        j = parity_gadget(joint_of(bell_state(kind, "P")), "alpha1", 0, 1, "P")
        for seed in range(5):
            _, readout = homodyne_measure(j, "alpha1", 1.0, stream(seed, ""))
            assert (readout.magnitude, readout.p) == (misread(magnitude), 1.0)

    @pytest.mark.parametrize("misread_prob", [math.nan, -0.1, 1.5, True, "0.1"])
    def test_misread_prob_outside_unit_interval_rejected(self, misread_prob):
        j = joint_of(bell_state("phi+", "P"))
        with pytest.raises(ValueError, match=r"^misread_prob must be a real number "
                                             r"in \[0, 1\], got "):
            homodyne_measure(j, "alpha1", misread_prob, rng=stream(1, ""))


class TestJointState:
    def test_duplicate_probe_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            attach_probes(bell_state("phi+", "P"), ("alpha1", "alpha1"))

    @pytest.mark.parametrize("probes", ["beta1", "alpha1"])
    def test_a_lone_id_string_is_rejected(self, probes):
        with pytest.raises(ValueError, match=f"^probes must be a sequence of ids, "
                                             f"got '{probes}'$"):
            attach_probes(bell_state("phi+", "P"), probes)

    @pytest.mark.parametrize("n, probes", [(0, ()), (-2, ("a",)), (2.5, ()),
                                           (float("nan"), ("a",)), (True, ())])
    def test_photon_count_below_one_rejected_as_photon_state_does(self, n, probes):
        # so is a count that is no integer, and a bool
        for build in (lambda: JointState(n, probes, {}).photon_state(),
                      lambda: PhotonState(n, {})):
            with pytest.raises(ValueError, match=f"^n_photons must be an integer >= 1, "
                                                 f"got {re.escape(repr(n))}$"):
                build()

    def test_a_numpy_photon_count_is_stored_as_a_plain_int(self):
        joint = JointState(np.int64(3), (), {})
        assert joint.n_photons == 3 and type(joint.n_photons) is int

    def test_multiples_length_checked(self):
        with pytest.raises(ValueError, match="multiples"):
            JointState(2, (PROBE,), {(BasisKet("00", "00"), (0, 0)): 1.0})

    @pytest.mark.parametrize("ket, message", [
        (BasisKet("0x", "00"), "pol_bits must be a nonempty string of 0/1, got '0x'"),
        (BasisKet("00", "0x"), "spa_bits must be a nonempty string of 0/1, got '0x'"),
        (BasisKet("00", "2"),
         "ket BasisKet(pol_bits='00', spa_bits='2') does not describe 2 photons"),
    ])
    def test_construction_checks_each_ket_as_photon_state_does(self, ket, message):
        for build in (lambda: JointState(2, (), {(ket, ()): 1.0}),
                      lambda: PhotonState(2, {ket: 1.0})):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build()

    def test_construction_coerces_a_tuple_ket(self):
        joint = JointState(2, (PROBE,), {(("01", "10"), (1,)): 1})
        [((ket, mults), amp)] = joint.items()
        assert (type(ket), ket, mults, type(amp)) == (BasisKet, ("01", "10"), (1,), complex)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 4), dof=st.sampled_from("PS"), seed=st.integers(0, 2 ** 32 - 1))
    def test_derived_states_equal_checked_construction(self, n, dof, seed):
        # parity_gadget and homodyne_measure build their outputs unchecked:
        # the checked constructor must give the same state
        joint = attach_probes(random_state(n, np.random.default_rng(seed)), (PROBE,))
        stages = [joint, parity_gadget(joint, "alpha1", 0, n - 1, dof)]
        stages.append(homodyne_measure(stages[-1], "alpha1", rng=stream(seed, ""))[0])
        for out in stages:
            checked = JointState(n, out.probes, dict(out.items()))
            assert checked.items() == out.items()
            assert all(type(ket) is BasisKet and type(mults) is tuple
                       and type(amp) is complex for (ket, mults), amp in out.items())
        photons = stages[-1].photon_state()
        assert photons.items() == PhotonState(n, dict(photons.items())).items()

    def test_photon_state_checks_the_kets(self):
        # a hand-built JointState's kets are checked on construction, so
        # photon_state is never reached with a bad one
        with pytest.raises(ValueError, match="pol_bits must be a nonempty string"):
            JointState(2, (), {(BasisKet("0x", "00"), ()): 1.0}).photon_state()
