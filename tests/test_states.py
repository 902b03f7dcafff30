import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypersa.kerr import JointState, attach_probes, homodyne_measure, parity_gadget
from hypersa.protocols import RunConfig, hgsa_n_analyze
from hypersa.rng import stream
from hypersa.states import (PRUNE_EPS, BasisKet, HyperLabel, PhotonState,
                            all_canonical_labels, apply_gate, bell_state,
                            canonical_bit_strings, complement,
                            equal_up_to_global_phase, ghz_state,
                            hyper_product, parse_state_literal, split_product,
                            state_from_label)

from oracle import dense_vector, gate_operator, random_state, assert_matches_dense
from test_protocols import canonical_label

SQ = 1 / math.sqrt(2)
BELL = ("phi+", "phi-", "psi+", "psi-")
# the Hadamard as an ndarray
H_ARRAY = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) * (1.0 / math.sqrt(2.0))


class TestBellStates:
    def test_phi_plus_polarization_amplitudes(self):
        s = bell_state("phi+", "P")
        assert s.amplitude(BasisKet("00", "00")) == pytest.approx(SQ)
        assert s.amplitude(BasisKet("11", "00")) == pytest.approx(SQ)
        assert len(s) == 2

    def test_psi_minus_spatial_amplitudes(self):
        s = bell_state("psi-", "S")
        assert s.amplitude(BasisKet("00", "01")) == pytest.approx(SQ)
        assert s.amplitude(BasisKet("00", "10")) == pytest.approx(-SQ)

    def test_phi_pair_orthogonal(self):
        a, b = bell_state("phi+", "P"), bell_state("phi-", "P")
        assert abs(a.inner(b)) < 1e-10

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="Bell kind"):
            bell_state("phi?", "P")

    @pytest.mark.parametrize("kind", BELL)
    @pytest.mark.parametrize("dof", ["P", "S"])
    def test_normalized(self, kind, dof):
        assert abs(bell_state(kind, dof).norm() - 1.0) < 1e-10


class TestGhzStates:
    def test_three_photon_plus(self):
        s = ghz_state("+", "000", "P")
        assert s.amplitude(BasisKet("000", "000")) == pytest.approx(SQ)
        assert s.amplitude(BasisKet("111", "000")) == pytest.approx(SQ)

    def test_complement_representatives_identical_up_to_sign(self):
        # (|100>-|011>) equals -(|011>-|100>) amplitude for amplitude,
        # and the "+" pair needs no sign at all
        a = ghz_state("-", "100", "P")
        b = PhotonState(3, {k: -amp for k, amp in ghz_state("-", "011", "P").items()})
        for ket, amp in a.items():
            assert abs(amp - b.amplitude(ket)) < 1e-12
        c = ghz_state("+", "100", "P")
        d = ghz_state("+", "011", "P")
        for ket, amp in c.items():
            assert abs(amp - d.amplitude(ket)) < 1e-12

    def test_two_photon_reduction_is_bell(self):
        a = ghz_state("+", "00", "P")
        b = bell_state("phi+", "P")
        for ket, amp in a.items():
            assert amp == b.amplitude(ket)

    def test_single_photon_is_one_qubit_superposition(self):
        # the photon-count floor is the guard's alone, not ghz_state's
        s = ghz_state("-", "0", "P")
        assert s.items() == [(BasisKet("0", "0"), SQ), (BasisKet("1", "0"), -SQ)]


class TestHyperProduct:
    def test_four_term_quarter_weights(self):
        s = hyper_product(bell_state("phi+", "P"), bell_state("psi+", "S"))
        assert len(s) == 4
        for pol in ("00", "11"):
            for spa in ("01", "10"):
                assert s.amplitude(BasisKet(pol, spa)) == pytest.approx(0.5)

    def test_single_ket_factor_relabels(self):
        point = PhotonState(2, {BasisKet("00", "00"): 1.0})
        s = hyper_product(point, bell_state("phi-", "S"))
        assert s.amplitude(BasisKet("00", "00")) == pytest.approx(SQ)
        assert s.amplitude(BasisKet("00", "11")) == pytest.approx(-SQ)

    def test_norm_product_of_normalized_is_one(self):
        s = hyper_product(bell_state("psi-", "P"), bell_state("phi+", "S"))
        assert abs(s.norm() - 1.0) < 1e-10

    def test_photon_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="photon counts"):
            hyper_product(bell_state("phi+", "P"), ghz_state("+", "000", "S"))

    def test_nontrivial_spatial_factor_rejected(self):
        with pytest.raises(ValueError, match="^p_state is not trivial in the spatial DOF$"):
            hyper_product(bell_state("phi+", "S"), bell_state("phi+", "S"))
        with pytest.raises(ValueError,
                           match="^s_state is not trivial in the polarization DOF$"):
            hyper_product(bell_state("phi+", "P"), bell_state("phi+", "P"))


def one_dof_state(n: int, dof: str, rng: np.random.Generator) -> PhotonState:
    """A random normalized state of ``dof`` with the other DOF all 0s, on a
    random support of at least one string."""
    vec = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    vec[rng.random(2 ** n) < 0.5] = 0
    vec[rng.integers(2 ** n)] = 1.0
    vec /= np.linalg.norm(vec)
    kets = [BasisKet(bits, "0" * n) if dof == "P" else BasisKet("0" * n, bits)
            for bits in (format(x, f"0{n}b") for x in range(2 ** n))]
    return PhotonState(n, {ket: a for ket, a in zip(kets, vec) if a})


class TestSplitProduct:
    @pytest.mark.parametrize("n", [2, 3])
    def test_inverts_hyper_product_on_every_label(self, n):
        for label in all_canonical_labels(n):
            p, s = split_product(state_from_label(label))
            assert equal_up_to_global_phase(p, ghz_state(label.p_sign, label.p_bits, "P"))
            assert equal_up_to_global_phase(s, ghz_state(label.s_sign, label.s_bits, "S"))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1),
           phase=st.floats(0, 2 * math.pi))
    def test_inverts_hyper_product_on_random_factors(self, n, seed, phase):
        rng = np.random.default_rng(seed)
        p_in, s_in = one_dof_state(n, "P", rng), one_dof_state(n, "S", rng)
        product = hyper_product(p_in, s_in)
        rotated = PhotonState(n, {k: a * complex(math.cos(phase), math.sin(phase))
                                  for k, a in product.items()})
        p, s = split_product(rotated)
        assert abs(p.norm() - 1) < 1e-12 and abs(s.norm() - 1) < 1e-12
        assert equal_up_to_global_phase(p, p_in) and equal_up_to_global_phase(s, s_in)
        assert [k for k, _ in hyper_product(p, s).items()] == [k for k, _ in rotated.items()]

    @pytest.mark.parametrize("first, second, weight", [
        # different supports: 8 kets where a product of the two halves has 16
        ("P:+00;S:+00", "P:+01;S:+01", 1.0),
        # one support, but the 2x2 amplitude matrix has full rank
        ("P:+00;S:+00", "P:-00;S:-00", 1j),
    ])
    def test_a_superposition_of_two_inputs_is_rejected(self, first, second, weight):
        a, b = (state_from_label(parse_state_literal(t)) for t in (first, second))
        norm = math.sqrt(2)
        mixed = PhotonState(2, {k: (a.amplitude(k) + weight * b.amplitude(k)) / norm
                                for k in sorted({k for k, _ in a.items() + b.items()})})
        with pytest.raises(ValueError, match="^the state is not a product of "
                                             "a polarization and a spatial factor$"):
            split_product(mixed)

    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_the_factors_of_a_scaled_input_are_normalized(self, scale):
        # the analyser has always accepted a product of any norm: its first
        # homodyne readout renormalized it
        state = state_from_label(parse_state_literal("P:+010;S:-011"))
        scaled = PhotonState(3, {k: scale * a for k, a in state.items()})
        for got, want in zip(split_product(scaled), split_product(state)):
            assert got.items() == want.items()

    def test_a_one_ket_product_splits(self):
        p, s = split_product(PhotonState(3, {BasisKet("011", "101"): -1.0}))
        assert [(k, abs(a)) for k, a in p.items()] == [(BasisKet("011", "000"), 1.0)]
        assert [(k, abs(a)) for k, a in s.items()] == [(BasisKet("000", "101"), 1.0)]

    def test_an_empty_state_is_rejected(self):
        with pytest.raises(ValueError, match="not a product"):
            split_product(PhotonState(3, {}))


class TestOrthogonality:
    def test_sixteen_bell_products_pairwise_orthogonal(self):
        states = [hyper_product(bell_state(p, "P"), bell_state(s, "S"))
                  for p in BELL for s in BELL]
        for i, a in enumerate(states):
            for b in states[i + 1:]:
                assert abs(a.inner(b)) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_canonical_families_pairwise_orthogonal(self, n):
        states = [state_from_label(lab) for lab in all_canonical_labels(n)]
        assert len(states) == 4 ** n
        for i, a in enumerate(states):
            for b in states[i + 1:]:
                assert abs(a.inner(b)) < 1e-10


class TestInner:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_the_dense_inner_product(self, n):
        rng = np.random.default_rng(100 + n)
        full = [random_state(n, rng) for _ in range(3)]
        # random subsets of their kets, and a state with no kets: unequal supports
        sparse = [PhotonState(n, {k: a for k, a in s.items() if rng.random() < 0.3})
                  for s in full] + [PhotonState(n, {})]
        if n > 1:
            sparse += [ghz_state("-", "0" + "1" * (n - 1), "P"), ghz_state("+", "0" * n, "S")]
        for a, b in itertools.product(full + sparse, repeat=2):
            assert abs(a.inner(b) - np.vdot(dense_vector(a), dense_vector(b))) <= 1e-12

    def test_photon_count_mismatch_rejected(self):
        a, b = bell_state("phi+", "P"), ghz_state("+", "000", "P")
        for compare in (a.inner, lambda b: equal_up_to_global_phase(a, b)):
            with pytest.raises(ValueError, match="^photon counts differ$"):
                compare(b)


def state_or_basis_ket(n: int, data, rng: np.random.Generator) -> PhotonState:
    """A random state or a basis ket, which cancels exactly under HH."""
    return data.draw(st.sampled_from([random_state(n, rng),
                                      PhotonState(n, {("0" * n, "0" * n): 1.0})]),
                     label="state")


class TestApplyGate:
    def test_hadamard_twice_is_identity(self):
        s = bell_state("psi+", "P")
        out = apply_gate(apply_gate(s, 1, "P"), 1, "P")
        for ket, amp in s.items():
            assert abs(out.amplitude(ket) - amp) < 1e-10

    def test_random_three_photon_state_matches_dense_oracle(self):
        rng = np.random.default_rng(91)
        for _ in range(10):
            state = random_state(3, rng)
            photon = int(rng.integers(3))
            dof = "P" if rng.random() < 0.5 else "S"
            out = apply_gate(state, photon, dof)
            expected = gate_operator(3, photon, dof, H_ARRAY) @ dense_vector(state)
            assert_matches_dense(out, expected)
            assert abs(out.norm() - 1.0) < 1e-10

    def test_gate_then_adjoint_restores_state(self):
        # the Hadamard is its own adjoint
        rng = np.random.default_rng(17)
        for _ in range(10):
            state = random_state(2, rng)
            out = apply_gate(apply_gate(state, 0, "S"), 0, "S")
            assert equal_up_to_global_phase(out, state)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 4), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_dense_oracle_property(self, n, data, seed):
        state = state_or_basis_ket(n, data, np.random.default_rng(seed))
        photon = data.draw(st.integers(0, n - 1), label="photon")
        dof = data.draw(st.sampled_from("PS"), label="dof")
        out = apply_gate(state, photon, dof)
        assert_matches_dense(out, gate_operator(n, photon, dof, H_ARRAY)
                             @ dense_vector(state))

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 4), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
    def test_derived_states_pass_the_public_checks(self, n, data, seed):
        # apply_gate builds its result without the public checks; the
        # checked constructor must give the same state
        state = state_or_basis_ket(n, data, np.random.default_rng(seed))
        photon = data.draw(st.integers(0, n - 1), label="photon")
        dof = data.draw(st.sampled_from("PS"), label="dof")
        out = apply_gate(apply_gate(state, photon, dof), photon, dof)
        checked = PhotonState(n, dict(out.items()))
        assert (out.n_photons, out.items()) == (n, checked.items())
        assert all(type(ket) is BasisKet and type(amp) is complex
                   for ket, amp in out.items())

    def test_bad_photon_index_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_gate(bell_state("phi+", "P"), 2, "P")

    @pytest.mark.parametrize("photon", [True, 1.0])
    def test_a_bool_or_float_photon_index_rejected(self, photon):
        # True once rotated photon 1, and 1.0 failed on string indexing
        with pytest.raises(ValueError, match=f"^photon index {photon} out of range "
                                             f"for 2 photons$"):
            apply_gate(bell_state("phi+", "P"), photon, "P")

    def test_a_numpy_photon_index_is_accepted(self):
        state = bell_state("phi+", "P")
        assert (apply_gate(state, np.int64(1), "P").items()
                == apply_gate(state, 1, "P").items())


class TestGlobalPhase:
    def test_complement_pair_equal(self):
        a = ghz_state("-", "100", "P")
        b = ghz_state("-", "011", "P")
        assert equal_up_to_global_phase(a, b)

    def test_orthogonal_pair_not_equal(self):
        assert not equal_up_to_global_phase(bell_state("phi+", "P"),
                                            bell_state("phi-", "P"))

    def test_phase_factor_ignored(self):
        rng = np.random.default_rng(5)
        s = random_state(2, rng)
        phase = np.exp(1j * np.pi / 3)
        rotated = PhotonState(2, {k: a * phase for k, a in s.items()})
        assert equal_up_to_global_phase(rotated, s)


class TestLabels:
    def test_canonical_fold_flips_bits_not_sign(self):
        lab = HyperLabel.canonical("-", "100", "+", "010")
        assert (lab.p_sign, lab.p_bits) == ("-", "011")
        assert (lab.s_sign, lab.s_bits) == ("+", "010")
        assert parse_state_literal("P:+01;S:-10") == HyperLabel("+", "01", "-", "01")

    def test_literal_round_trip(self):
        lab = HyperLabel("+", "000", "-", "001")
        assert parse_state_literal(lab.literal()) == lab

    @settings(max_examples=200, deadline=None)
    @given(lab=canonical_label(max_n=10))
    def test_literal_round_trip_property(self, lab):
        assert parse_state_literal(lab.literal(), lab.n_photons) == lab

    def test_bell_aliases(self):
        lab = parse_state_literal("P:phi+;S:psi-")
        assert lab == HyperLabel("+", "00", "-", "01")
        assert lab.bell_names() == ("phi+", "psi-")

    def test_bell_names_name_the_state_of_any_representative(self):
        # every (sign, bits) of two photons per DOF, canonical or not
        pairs = list(itertools.product("+-", ("00", "01", "10", "11")))
        for (p_sign, p_bits), (s_sign, s_bits) in itertools.product(pairs, repeat=2):
            label = HyperLabel(p_sign, p_bits, s_sign, s_bits)
            p_name, s_name = label.bell_names()
            named = hyper_product(bell_state(p_name, "P"), bell_state(s_name, "S"))
            state = hyper_product(ghz_state(p_sign, p_bits, "P"),
                                  ghz_state(s_sign, s_bits, "S"))
            assert equal_up_to_global_phase(state, named), label
            assert HyperLabel.canonical(*label).bell_names() == (p_name, s_name)
        assert HyperLabel("+", "11", "-", "10").bell_names() == ("phi+", "psi-")
        assert HyperLabel("+", "000", "+", "000").bell_names() is None

    def test_malformed_sign_named_in_error(self):
        with pytest.raises(ValueError, match="sign"):
            parse_state_literal("P:±;S:")
        with pytest.raises(ValueError, match=r"^sign must be '\+' or '-', got 'x'$"):
            ghz_state("x", "01", "P")

    @pytest.mark.parametrize("text, message", [
        ("P:+00", "state literal 'P:+00' must have two ';'-separated parts"),
        ("P:+00;S:+00;", "state literal 'P:+00;S:+00;' must have two ';'-separated parts"),
        ("P:+0x;S:+00", "token '+0x' must carry a 0/1 bit-string after the sign"),
        ("P:+00;S:-", "token '-' must carry a 0/1 bit-string after the sign"),
        ("P:;S:+0", "token '' must start with a '+' or '-' sign"),
        ("P:x0;S:+0", "token 'x0' must start with a '+' or '-' sign"),
    ])
    def test_malformed_literal_named_in_error(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_state_literal(text)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="length"):
            parse_state_literal("P:+00;S:-010")
        with pytest.raises(ValueError, match="^p_bits and s_bits must have the same length$"):
            HyperLabel.canonical("+", "00", "-", "010")

    def test_wrong_part_order_rejected(self):
        with pytest.raises(ValueError, match="'P:'"):
            parse_state_literal("S:+00;P:-01")

    def test_photon_count_check(self):
        with pytest.raises(ValueError, match="expected 3"):
            parse_state_literal("P:+00;S:+00", n=3)

    def test_one_photon_literal_parses_and_round_trips(self):
        # the parser checks syntax only; the count's range is the guard's
        # (the CLI exits 3), and the library takes the state it names
        lab = parse_state_literal("P:+0;S:-0")
        assert lab == HyperLabel("+", "0", "-", "0")
        assert hgsa_n_analyze(state_from_label(lab), RunConfig())[0] == lab

    def test_canonical_bit_strings(self):
        assert canonical_bit_strings(2) == ["00", "01"]
        assert canonical_bit_strings(3) == ["000", "001", "010", "011"]
        assert len(canonical_bit_strings(5)) == 16
        assert canonical_bit_strings(np.int64(2)) == ["00", "01"]
        # the photon-count rule: no bool, no float, nothing below 1
        for n in (0, 2.5, float("nan"), True):
            for build in (canonical_bit_strings, all_canonical_labels):
                with pytest.raises(ValueError, match=f"^n_photons must be an integer >= 1, "
                                                     f"got {re.escape(repr(n))}$"):
                    build(n)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_canonical_bit_strings_are_the_first_bit_0_strings(self, n):
        bits = canonical_bit_strings(n)
        assert len(set(bits)) == len(bits) == 2 ** (n - 1)
        assert bits == sorted(bits)
        assert all(len(b) == n and b[0] == "0" for b in bits)

    def test_complement(self):
        assert complement("0110") == "1001"


def container_states():
    """A PhotonState, a JointState and the output of each operation that
    derives a state, by name."""
    state = hyper_product(bell_state("psi-", "P"), bell_state("phi+", "S"))
    joint = attach_probes(ghz_state("+", "011", "P"), ("alpha1",))
    gadget = parity_gadget(joint, "alpha1", 0, 1, "P")
    collapsed, _ = homodyne_measure(gadget, "alpha1", rng=stream(3, ""))
    return {"PhotonState": state, "JointState": joint,
            "apply_gate": apply_gate(state, 1, "S"),
            "split_product": split_product(state)[1],
            "parity_gadget": gadget, "homodyne_measure": collapsed,
            "photon_state": collapsed.photon_state()}


CONTAINER_STATES = container_states()


class TestStateContainer:
    @pytest.mark.parametrize("name", CONTAINER_STATES)
    def test_every_state_is_the_one_container(self, name):
        state = CONTAINER_STATES[name]
        cls = type(state)
        for attr in ("n_photons", "_amps"):
            with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
                setattr(state, attr, getattr(state, attr))
        assert state.items() and all(abs(amp) >= PRUNE_EPS for _, amp in state.items())
        # the checked constructor and the unchecked derivation both drop dust
        (dusted, _), *kept = state.items()
        amps = {dusted: PRUNE_EPS / 2, **dict(kept)}
        own = (state.probes,) if cls is JointState else ()
        for built in (cls(state.n_photons, *own, amps),
                      cls._derived(state.n_photons, amps, *own)):
            assert type(built) is cls and built.items() == kept

    def test_a_joint_state_is_no_photon_state(self):
        # they share the container, but apply_gate must not take a JointState
        assert set(PhotonState.__mro__) & set(JointState.__mro__) - {object}
        assert not issubclass(JointState, PhotonState)

    def test_pruning_drops_dust(self):
        s = PhotonState(1, {BasisKet("0", "0"): 1.0, BasisKet("1", "0"): 1e-13})
        assert len(s) == 1

    def test_items_sorted_deterministically(self):
        s = hyper_product(bell_state("psi-", "P"), bell_state("psi+", "S"))
        kets = [k for k, _ in s.items()]
        assert kets == sorted(kets)

    def test_wrong_ket_length_rejected(self):
        with pytest.raises(ValueError, match="photons"):
            PhotonState(2, {BasisKet("0", "0"): 1.0})

    @pytest.mark.parametrize("n, ket, message", [
        (2, BasisKet("0x", "00"), "pol_bits must be a nonempty string of 0/1, got '0x'"),
        (2, BasisKet("00", "0x"), "spa_bits must be a nonempty string of 0/1, got '0x'"),
        (1, BasisKet("0", "2"), "spa_bits must be a nonempty string of 0/1, got '2'"),
        (2, BasisKet("00", "2"),
         "ket BasisKet(pol_bits='00', spa_bits='2') does not describe 2 photons"),
        (1, BasisKet("", ""),
         "ket BasisKet(pol_bits='', spa_bits='') does not describe 1 photons"),
        (0, BasisKet("", ""), "n_photons must be an integer >= 1, got 0"),
        (2.5, BasisKet("", ""), "n_photons must be an integer >= 1, got 2.5"),
        (float("nan"), BasisKet("", ""), "n_photons must be an integer >= 1, got nan"),
        (True, BasisKet("0", "0"), "n_photons must be an integer >= 1, got True"),
    ])
    def test_bad_ket_rejected_naming_the_field(self, n, ket, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PhotonState(n, {ket: 1.0})

    def test_a_numpy_photon_count_is_stored_as_a_plain_int(self):
        state = PhotonState(np.int64(3), {})
        assert state.n_photons == 3 and type(state.n_photons) is int

    def test_repr_is_the_constructor_call(self):
        state = state_from_label(HyperLabel("-", "010", "+", "011"))
        again = eval(repr(state), {"PhotonState": PhotonState, "BasisKet": BasisKet})
        assert again.n_photons == state.n_photons
        assert again.items() == state.items()

    def test_tuple_key_accepted(self):
        s = PhotonState(2, {("01", "10"): 1.0})
        assert s.items() == [(BasisKet("01", "10"), 1.0)]
