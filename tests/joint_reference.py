"""An independent dense reference for the analyser's joint physics.

It shares no code with ``hypersa``: it imports only numpy, math and random,
and reads everything off the 4^N joint vector by index-bit arithmetic.  The
vector is indexed by int(pol_bits + spa_bits, 2), as in ``oracle.py``, so
photon i's polarization bit is index bit 2N-1-i and its spatial bit N-1-i.

For a hyperentangled label ``(p_sign, p_bits, s_sign, s_bits)``,
:func:`joint_run`

1. builds the joint vector (|b> + s|~b>)(|b'> + s'|~b'>)/2;
2. reads probe k = 1..N-1 of each DOF (``alpha<k>`` for polarization, then
   ``beta<k>`` for spatial mode) as the magnitude of its parity gadget's net
   shift, |bit of photon k - bit of photon 0|, which must take one value on
   every branch (a point mass, probability 1);
3. under the gaussian model reports that magnitude misread (0 <-> 1) when
   the probe's stream ``random.Random(f"{seed}:probe:{pid}")`` draws below
   err = erfc(alpha (1 - cos theta)/sqrt 2)/2, with p = err, else p = 1 - err;
4. applies a Hadamard to all 2N qubits (a wave plate and a beam splitter on
   every photon) and keeps the probability of every (pol bits, spa bits)
   detector outcome, at index int(pol_bits + spa_bits, 2);
5. decodes the label from its own readouts and parities: each DOF's bits are
   "0" and its reported magnitudes, and its sign is "+" iff the V count
   (polarization) or the path-2 count (spatial) is even, which must hold
   alike on every outcome.

For any joint vector, such as a product of two one-DOF factors whose
readouts are not point masses, :func:`transcript_probabilities` gives what
an ideal run's transcript has: the weight of the projection its readouts
select, and its detector outcomes' probabilities in that projection.
"""

import math
import random

import numpy as np

# a cancelled amplitude leaves float dust far below any outcome's 4^-(N-1)
_SUPPORT_TOL = 1e-20
_PROBES = {"alpha": "P", "beta": "S"}  # each probe name prefix's DOF


class JointRun:
    """What :func:`joint_run` found: the decoded ``label`` (a plain 4-tuple),
    the ``readouts`` as (probe, magnitude, p, classes) tuples, P probes
    first, the ``rotated`` joint vector and the ``probabilities`` of its
    detector outcomes, 0 outside the support."""

    def __init__(self, label, readouts, rotated, probabilities):
        self.label, self.readouts = label, readouts
        self.rotated, self.probabilities = rotated, probabilities


def _ghz_terms(sign, bits):
    flipped = "".join("10"[int(c)] for c in bits)
    return ((bits, 1 / math.sqrt(2)), (flipped, (1 if sign == "+" else -1) / math.sqrt(2)))


def label_vector(label):
    """The 4^N joint vector of ``label = (p_sign, p_bits, s_sign, s_bits)``."""
    p_sign, p_bits, s_sign, s_bits = label
    vec = np.zeros(4 ** len(p_bits))  # every amplitude is real
    for p, p_amp in _ghz_terms(p_sign, p_bits):
        for s, s_amp in _ghz_terms(s_sign, s_bits):
            vec[int(p + s, 2)] = p_amp * s_amp
    return vec


def _photon_bits(indices, n, dof):
    """Photon i's bit in ``dof`` at each index, for i = 0..N-1."""
    shift = n if dof == "P" else 0
    return [(indices >> (shift + n - 1 - i)) & 1 for i in range(n)]


def _rotate(vec, n):
    """``vec`` after H on all 2N qubits, and the probabilities of its detector
    outcomes, 0 outside the support."""
    # H on each qubit in turn: the entries whose indices differ only in that
    # qubit's bit, (a, b), become (a + b, a - b); the 2N factors of 1/sqrt 2
    # come to 2^-N
    rotated = vec.copy()
    for qubit in range(2 * n):
        pairs = rotated.reshape(2 ** qubit, 2, -1)  # a view: writes land in rotated
        pairs[:, 0], pairs[:, 1] = pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]
    rotated /= 2 ** n
    probabilities = np.abs(rotated) ** 2
    probabilities[probabilities < _SUPPORT_TOL] = 0.0
    return rotated, probabilities


def transcript_probabilities(vec, readouts):
    """For any normalized 4^N joint vector ``vec`` and ``readouts`` as
    (probe, magnitude, ...) tuples, probe ``alpha<k>`` or ``beta<k>``: the
    weight of ``vec``'s projection onto the branches whose |bit_k - bit_0| in
    the probe's DOF equals its magnitude for every readout, and the
    probabilities of the detector outcomes, by index, in the renormalized
    projection after H on all 2N qubits (0 outside the support).  An ideal
    run's transcript has the weight times its event's probability."""
    n = (len(vec).bit_length() - 1) // 2
    indices = np.arange(len(vec))
    kept = np.ones(len(vec), dtype=bool)
    for probe, magnitude, *_ in readouts:
        name = probe.rstrip("0123456789")
        photon = _photon_bits(indices, n, _PROBES[name])
        kept &= np.abs(photon[int(probe[len(name):])] - photon[0]) == magnitude
    projected = np.where(kept, vec, 0)
    weight = float(np.vdot(projected, projected).real)
    return weight, _rotate(projected / math.sqrt(weight), n)[1]


def joint_run(label, cfg):
    """Steps 1-5 of the module notes on ``label``.  ``cfg`` is anything with
    the fields of a run config: the homodyne ``model`` ("ideal" or
    "gaussian"), the probes' ``theta`` and ``alpha``, and the ``seed`` that
    names their streams."""
    n = len(label[1])
    vec = label_vector(label)
    branches = np.flatnonzero(vec)
    err = math.erfc(cfg.alpha * (1 - math.cos(cfg.theta)) / math.sqrt(2)) / 2
    readouts, bits = [], {}
    for name, dof in _PROBES.items():
        photon = _photon_bits(branches, n, dof)
        for k in range(1, n):
            pid = f"{name}{k}"
            magnitudes = set(np.abs(photon[k] - photon[0]).tolist())
            assert len(magnitudes) == 1, f"{pid} is no point mass: {magnitudes}"
            magnitude, p = magnitudes.pop(), 1.0
            if cfg.model == "gaussian":
                if random.Random(f"{cfg.seed}:probe:{pid}").random() < err:
                    magnitude, p = 1 - magnitude, err
                else:
                    p = 1 - err
            readouts.append((pid, magnitude, p, 1))
        bits[dof] = "0" + "".join(str(r[1]) for r in readouts if r[0].startswith(name))

    rotated, probabilities = _rotate(vec, n)
    support = np.flatnonzero(probabilities)
    # V count (the polarization half of the index) and path-2 count parities
    odd = np.array([bin(i).count("1") % 2 for i in range(2 ** n)])
    signs = set(zip(odd[support >> n].tolist(), odd[support & (2 ** n - 1)].tolist()))
    assert len(signs) == 1, f"the outcomes decode to several sign pairs: {signs}"
    p_sign, s_sign = ("-" if parity else "+" for parity in signs.pop())
    return JointRun((p_sign, bits["P"], s_sign, bits["S"]), readouts, rotated, probabilities)
