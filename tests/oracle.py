"""Independent dense-matrix oracle used to cross-check the sparse engine.

Every photon contributes two qubit slots: slot i is photon i's polarization
bit, slot n_photons + i its spatial bit.  A state maps to a dense vector of
dimension 4^N indexed by int(pol_bits + spa_bits, 2); gates become explicit
Kronecker products applied by matrix-vector multiplication.  Nothing in
that oracle shares code with the sparse path.

:func:`rotated_ghz_factor` is the closed form of every rotated one-DOF
factor.  The analyser's joint physics (probe readouts, the rotated joint
state and its detector outcomes) is held to ``joint_reference.py``, which
imports no ``hypersa`` code at all.
"""

from __future__ import annotations

import numpy as np

from hypersa.states import BasisKet, PhotonState


def dense_vector(state: PhotonState) -> np.ndarray:
    vec = np.zeros(4 ** state.n_photons, dtype=complex)
    for ket, amp in state.items():
        vec[int(ket.pol_bits + ket.spa_bits, 2)] = amp
    return vec


def state_from_dense(vec: np.ndarray, n_photons: int) -> PhotonState:
    amps = {}
    for idx, amp in enumerate(vec):
        if abs(amp) < 1e-14:
            continue
        bits = format(idx, f"0{2 * n_photons}b")
        amps[BasisKet(bits[:n_photons], bits[n_photons:])] = amp
    return PhotonState(n_photons, amps)


def slot_operator(n_slots: int, slot: int, gate: np.ndarray) -> np.ndarray:
    """Full 2^n_slots operator with ``gate`` at ``slot`` (slot 0 is the most
    significant index bit) and identity elsewhere."""
    op = np.array([[1.0 + 0j]])
    for s in range(n_slots):
        op = np.kron(op, gate if s == slot else np.eye(2, dtype=complex))
    return op


def gate_operator(n_photons: int, photon: int, dof: str,
                  gate: np.ndarray) -> np.ndarray:
    slot = photon if dof == "P" else n_photons + photon
    return slot_operator(2 * n_photons, slot, gate)


def hadamard_everywhere(n_photons: int) -> np.ndarray:
    """Operator for a beam splitter plus wave plate on every photon."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    op = np.array([[1.0 + 0j]])
    for _ in range(2 * n_photons):
        op = np.kron(op, h)
    return op


def random_state(n_photons: int, rng: np.random.Generator) -> PhotonState:
    dim = 4 ** n_photons
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    vec /= np.linalg.norm(vec)
    return state_from_dense(vec, n_photons)


def assert_matches_dense(state: PhotonState, vec: np.ndarray, tol: float = 1e-10):
    got = dense_vector(state)
    err = np.max(np.abs(got - vec))
    assert err <= tol, f"sparse state deviates from dense oracle by {err}"


def rotated_ghz_factor(sign: str, bits: str, dof: str) -> dict[BasisKet, complex]:
    """The one-DOF GHZ factor (|b> + s|~b>)/sqrt2 after a Hadamard on every
    photon, in closed form:

        H^n (|b> + s|~b>)/sqrt2 = sum_x (-1)^(b.x) (1 + s (-1)^|x|) |x> / 2^((n+1)/2)

    so its support is the even-weight strings x for s = + and the odd-weight
    ones for s = -, all of one magnitude.  The other DOF is all 0s."""
    n, s, b, zeros = len(bits), 1 if sign == "+" else -1, int(bits, 2), "0" * len(bits)
    out = {}
    for x in range(2 ** n):
        amp = ((-1) ** bin(b & x).count("1") * (1 + s * (-1) ** bin(x).count("1"))
               / 2 ** ((n + 1) / 2))
        if amp:
            xs = format(x, f"0{n}b")
            out[BasisKet(xs, zeros) if dof == "P" else BasisKet(zeros, xs)] = complex(amp)
    return out
