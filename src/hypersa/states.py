"""Sparse state core for photons carrying polarization and spatial-mode qubits.

Each photon holds two classical bits: a polarization bit (0 = H, 1 = V) and a
spatial bit (0 = first path, 1 = second path).  An N-photon pure state is a
sparse map from :class:`BasisKet` to a complex amplitude.  The maximally
entangled inputs handled here have four nonzero terms; after the sign-basis
rotation an N-photon state holds 4^(N-1), a quarter of the 4^N entries a
dense vector would need.  That rotation is the one gate the analyser uses,
the Hadamard (:func:`apply_gate`): a wave plate on polarization, a beam
splitter on path.

:class:`PhotonState` and :class:`hypersa.kerr.JointState` share one immutable
container.  Its constructor is the one place a caller's keys, amplitudes and
probe ids are checked, with one rule per value; every operation, and every
builder here, derives its new state from checked ones.  Amplitudes with magnitude
below :data:`PRUNE_EPS` are dropped whenever a state is built, so float dust
never accumulates through chains of rotations.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from typing import Iterator, Literal, Mapping, NamedTuple

Dof = Literal["P", "S"]

#: Amplitudes below this magnitude are discarded when a state is built.
PRUNE_EPS = 1e-12

#: Default tolerance for norm and overlap checks.
NORM_TOL = 1e-10

_SQRT_HALF = 1.0 / math.sqrt(2.0)

#: The Hadamard, the one rotation (wave plates on P, beam splitters on S), by
#: old bit: (entry keeping it, flipped bit, entry flipping to it).
_HADAMARD = {"0": (complex(_SQRT_HALF), "1", complex(_SQRT_HALF)),
             "1": (complex(-_SQRT_HALF), "0", complex(_SQRT_HALF))}

#: Bell kind -> (sign, bits) of the two-photon GHZ label it names.
_BELL_BITS = {"phi+": ("+", "00"), "phi-": ("-", "00"),
              "psi+": ("+", "01"), "psi-": ("-", "01")}


def _check_dof(dof: str) -> str:
    if dof not in ("P", "S"):
        raise ValueError(f"unknown degree of freedom {dof!r}; expected 'P' or 'S'")
    return dof


def _check_bits(bits: str, what: str) -> str:
    # strip leaves behind any character other than 0/1
    return _checked(what, bits, "a nonempty string of 0/1",
                    lambda v: isinstance(v, str) and v and not v.strip("01"))


def _check_sign(sign: str) -> str:
    return _checked("sign", sign, "'+' or '-'",
                    lambda v: isinstance(v, str) and v in ("+", "-"))


def complement(bits: str) -> str:
    """Bitwise complement of a bit-string."""
    return "".join("1" if c == "0" else "0" for c in bits)


class BasisKet(NamedTuple):
    """One classical configuration of N photons.

    ``pol_bits[i]`` is photon i's polarization bit and ``spa_bits[i]`` its
    spatial bit.  Tuple ordering gives the lexicographic total order on
    ``(pol_bits, spa_bits)`` that makes state iteration deterministic.
    """

    pol_bits: str
    spa_bits: str


def _checked(name: str, value, rule: str, test):
    """``value`` if ``test(value)`` holds, else ``ValueError: {name} must be
    {rule}, got {value!r}``: the one rule for a number, sign or bit-string a
    caller passes.  A bool, Python's or numpy's, is no number, and a test that
    raises TypeError or ValueError fails, as NaN fails every comparison."""
    try:
        if type(value).__name__ not in ("bool", "bool_") and test(value):
            return value
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{name} must be {rule}, got {value!r}")


def _checked_int(name: str, value, rule: str, low: float, high: float = math.inf) -> int:
    """``value`` as a plain ``int`` in ``low..high`` (a float is none, even
    ``2.0``), else :func:`_checked`'s ValueError: the one integer rule."""
    return operator.index(_checked(name, value, rule,
                                   lambda v: low <= operator.index(v) <= high))


def _check_photon_count(n) -> int:
    """``n`` as a plain ``int`` of at least 1, or a ValueError."""
    return _checked_int("n_photons", n, "an integer >= 1", 1)


def _check_ket(ket, n_photons: int) -> BasisKet:
    """``ket`` as a :class:`BasisKet` of ``n_photons`` photons, or a ValueError."""
    ket = BasisKet(*ket)
    if any(isinstance(bits, str) and len(bits) != n_photons for bits in ket):
        raise ValueError(f"ket {ket!r} does not describe {n_photons} photons")
    for bits, field in zip(ket, BasisKet._fields):
        _check_bits(bits, field)
    return ket


def _check_photon_index(photon, n_photons: int) -> int:
    """``photon`` as a plain ``int`` below ``n_photons``, or a ValueError."""
    try:
        return _checked_int("photon", photon, "a photon index", 0, n_photons - 1)
    except ValueError:
        raise ValueError(f"photon index {photon} out of range for {n_photons} photons") from None


class _Amplitudes:
    """The container both state types are: a photon count and a sparse map from
    keys to complex amplitudes, immutable, with ``items`` in sorted key order.
    Construction checks the count, each key (the subclass's ``_check_key``) and
    each amplitude, and prunes amplitudes below :data:`PRUNE_EPS`."""

    __slots__ = ("n_photons", "_amps")

    def __init__(self, n_photons: int, amplitudes: Mapping):
        object.__setattr__(self, "n_photons", _check_photon_count(n_photons))
        amps = {}
        for key, amp in amplitudes.items():
            key = self._check_key(key, self.n_photons)
            a = complex(_checked("amplitude", amp, "a finite complex number", cmath.isfinite))
            if abs(a) >= PRUNE_EPS:
                amps[key] = a
        object.__setattr__(self, "_amps", amps)

    @classmethod
    def _derived(cls, n_photons: int, amplitudes: dict, *own):
        """A state an operation built from valid ones (keys checked, amplitudes
        ``complex``), so only pruning is left; ``own`` fills the subclass's slots."""
        self = object.__new__(cls)
        object.__setattr__(self, "n_photons", n_photons)
        object.__setattr__(self, "_amps", {key: a for key, a in amplitudes.items()
                                           if abs(a) >= PRUNE_EPS})
        if own:  # a PhotonState, which has none, skips the loop
            for name, value in zip(cls.__slots__, own):
                object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def items(self) -> list[tuple]:
        return sorted(self._amps.items())

    def __len__(self) -> int:
        return len(self._amps)


class PhotonState(_Amplitudes):
    """Sparse N-photon state: map from :class:`BasisKet` to complex amplitude;
    construction checks each ket's length and bits."""

    __slots__ = ()

    _check_key = staticmethod(_check_ket)

    def amplitude(self, ket: BasisKet) -> complex:
        return self._amps.get(ket, 0j)

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self._amps.values()))

    def inner(self, other: "PhotonState") -> complex:
        """Hermitian inner product <self|other>."""
        if self.n_photons != other.n_photons:
            raise ValueError("photon counts differ")
        acc = 0j
        for ket, amp in self._amps.items():
            acc += amp.conjugate() * other._amps.get(ket, 0j)
        return acc

    def __repr__(self) -> str:
        return f"PhotonState({self.n_photons}, {dict(self.items())!r})"


class HyperLabel(NamedTuple):
    """Canonical identity of a hyperentangled state: a sign and a bit-string
    per degree of freedom.  Canonical form fixes the first bit of each
    bit-string to 0; the complement class collapses onto it because
    ``(|b> + s|~b>)`` and ``s (|~b> + s|b>)`` are the same state.
    """

    p_sign: str
    p_bits: str
    s_sign: str
    s_bits: str

    @classmethod
    def canonical(cls, p_sign: str, p_bits: str, s_sign: str, s_bits: str) -> "HyperLabel":
        """Build a label, folding complement representatives onto the
        first-bit-0 form (signs are unchanged by the fold)."""
        _check_sign(p_sign)
        _check_sign(s_sign)
        _check_bits(p_bits, "p_bits")
        _check_bits(s_bits, "s_bits")
        if len(p_bits) != len(s_bits):
            raise ValueError("p_bits and s_bits must have the same length")
        if p_bits[0] == "1":
            p_bits = complement(p_bits)
        if s_bits[0] == "1":
            s_bits = complement(s_bits)
        return cls(p_sign, p_bits, s_sign, s_bits)

    @property
    def n_photons(self) -> int:
        return len(self.p_bits)

    def literal(self) -> str:
        """Wire form, e.g. ``P:+00;S:-01``."""
        return f"P:{self.p_sign}{self.p_bits};S:{self.s_sign}{self.s_bits}"

    def bell_names(self) -> tuple[str, str] | None:
        """Two-photon alias pair like ``("phi+", "psi-")``, else None: phi
        where a DOF's two bits agree, psi where they differ (a complement
        representative keeps its sign, so the sign carries over)."""
        if self.n_photons != 2:
            return None
        return tuple(("phi" if bits[0] == bits[1] else "psi") + sign
                     for sign, bits in ((self.p_sign, self.p_bits),
                                        (self.s_sign, self.s_bits)))


def canonical_bit_strings(n: int) -> list[str]:
    """All 2^(n-1) canonical GHZ bit-strings of length n, lexicographic."""
    n = _check_photon_count(n)
    return [format(i, f"0{n}b") for i in range(2 ** (n - 1))]


def all_canonical_labels(n: int) -> list[HyperLabel]:
    """The 4^n canonical hyperentangled labels, grouped by bit classes and
    ordered (+,+), (+,-), (-,+), (-,-) within each class."""
    return list(_canonical_labels(n))


def _canonical_labels(n: int) -> Iterator[HyperLabel]:
    """:func:`all_canonical_labels` one label at a time, for walks that keep
    none (4^10 labels held at once take about 100 MB)."""
    bits, new_label = canonical_bit_strings(n), tuple.__new__
    return (new_label(HyperLabel, (p_sign, p_bits, s_sign, s_bits))
            for p_bits, s_bits, p_sign, s_sign in itertools.product(bits, bits, "+-", "+-"))


def ghz_state(sign: str, bits: str, dof: Dof) -> PhotonState:
    """GHZ-class state ``(|bits> + sign |~bits>)/sqrt(2)`` in one DOF, one
    photon per bit.

    The other DOF is the all-zero product configuration.  ``bits`` need not
    be canonical; the returned amplitudes follow the given representative.
    """
    _check_sign(sign)
    _check_bits(bits, "bits")
    _check_dof(dof)
    n, zeros = len(bits), "0" * len(bits)
    s = _SQRT_HALF if sign == "+" else -_SQRT_HALF
    if dof == "P":
        first, second = BasisKet(bits, zeros), BasisKet(complement(bits), zeros)
    else:
        first, second = BasisKet(zeros, bits), BasisKet(zeros, complement(bits))
    return PhotonState._derived(n, {first: complex(_SQRT_HALF), second: complex(s)})


def bell_state(kind: str, dof: Dof) -> PhotonState:
    """One of the four two-photon Bell states in the named DOF.

    ``phi±`` pairs equal bits, ``psi±`` pairs opposite bits; the other DOF is
    the all-zero product configuration.
    """
    if kind not in _BELL_BITS:
        raise ValueError(f"unknown Bell kind {kind!r}; expected one of {tuple(_BELL_BITS)}")
    sign, bits = _BELL_BITS[kind]
    return ghz_state(sign, bits, dof)


def hyper_product(p_state: PhotonState, s_state: PhotonState) -> PhotonState:
    """Tensor product of a polarization-only and a spatial-only state.

    ``p_state`` must be trivial (all zeros) in the spatial DOF and
    ``s_state`` trivial in polarization; the result carries ``p_state``'s
    polarization amplitudes against ``s_state``'s spatial amplitudes.
    """
    if p_state.n_photons != s_state.n_photons:
        raise ValueError("photon counts differ between the two factors")
    zeros = "0" * p_state.n_photons
    if any(ket.spa_bits != zeros for ket in p_state._amps):
        raise ValueError("p_state is not trivial in the spatial DOF")
    if any(ket.pol_bits != zeros for ket in s_state._amps):
        raise ValueError("s_state is not trivial in the polarization DOF")
    return PhotonState._derived(p_state.n_photons, {
        BasisKet(kp.pol_bits, ks.spa_bits): ap * as_
        for kp, ap in p_state.items() for ks, as_ in s_state.items()})


def split_product(state: PhotonState) -> tuple[PhotonState, PhotonState]:
    """Inverse of :func:`hyper_product`: the two normalized factors, read off the
    first ket's column and row.  ValueError unless their product has the input's
    support and is the input, rescaled to norm 1, up to a phase (NORM_TOL)."""
    items, n = state.items(), state.n_photons
    if items:
        (ref_pol, ref_spa), zeros, factors = items[0][0], "0" * n, []
        for row in ({BasisKet(pol, zeros): a for (pol, spa), a in items if spa == ref_spa},
                    {BasisKet(zeros, spa): a for (pol, spa), a in items if pol == ref_pol}):
            norm = math.sqrt(sum(abs(a) ** 2 for a in row.values()))
            factors.append(PhotonState._derived(n, {k: a / norm for k, a in row.items()}))
        product = hyper_product(*factors)
        if ([k for k, _ in product.items()] == [k for k, _ in items]
                and abs(product.inner(state)) >= (1.0 - NORM_TOL) * state.norm()):
            return tuple(factors)
    raise ValueError("the state is not a product of a polarization and a spatial factor")


def state_from_label(label: HyperLabel) -> PhotonState:
    """The hyperentangled state named by a label."""
    return hyper_product(ghz_state(label.p_sign, label.p_bits, "P"),
                         ghz_state(label.s_sign, label.s_bits, "S"))


def apply_gate(state: PhotonState, photon: int, dof: Dof) -> PhotonState:
    """The Hadamard on one photon's bit in one DOF: a wave plate on ``"P"``, a
    beam splitter on ``"S"``.  Each old amplitude sends ``1/sqrt(2)`` of itself
    to the ket with that bit flipped and keeps ``1/sqrt(2)`` of itself, negated
    where the bit is 1."""
    _check_dof(dof)
    photon = _check_photon_index(photon, state.n_photons)
    on_pol = dof == "P"
    new_ket = tuple.__new__
    out: dict[BasisKet, complex] = {}
    get = out.get
    for ket, amp in state._amps.items():
        pol, spa = ket
        bits = pol if on_pol else spa
        keep, flipped, flip = _HADAMARD[bits[photon]]
        out[ket] = get(ket, 0j) + keep * amp
        nbits = bits[:photon] + flipped + bits[photon + 1:]
        nk = new_ket(BasisKet, (nbits, spa) if on_pol else (pol, nbits))
        out[nk] = get(nk, 0j) + flip * amp
    return PhotonState._derived(state.n_photons, out)


def equal_up_to_global_phase(a: PhotonState, b: PhotonState) -> bool:
    """True iff two normalized states differ only by a global phase,
    i.e. ``|<a|b>| >= 1 - NORM_TOL``."""
    if a.n_photons != b.n_photons:
        raise ValueError("photon counts differ")
    return abs(a.inner(b)) >= 1.0 - NORM_TOL


def parse_state_literal(text: str, n: int | None = None) -> HyperLabel:
    """Parse a state literal like ``P:+000;S:-001`` into a canonical label.

    Two-photon Bell aliases are accepted per DOF (``P:phi+;S:psi-``).
    Raises ValueError naming the offending token on malformed input; if
    ``n`` is given it must be a photon count (an integer >= 1) and the
    parsed count must match it.  The guard's range is not checked here
    (:func:`hypersa.protocols.check_photon_count`).
    """
    parts = text.strip().split(";")
    if len(parts) != 2:
        raise ValueError(f"state literal {text!r} must have two ';'-separated parts")
    parsed: dict[str, tuple[str, str]] = {}
    for part, want in zip(parts, ("P", "S")):
        head, sep, body = part.strip().partition(":")
        if not sep or head != want:
            raise ValueError(f"token {part.strip()!r} must start with '{want}:'")
        body = body.strip()
        if body in _BELL_BITS:
            parsed[want] = _BELL_BITS[body]
            continue
        if not body or body[0] not in "+-":
            raise ValueError(f"token {body!r} must start with a '+' or '-' sign")
        sign, bits = body[0], body[1:]
        if not bits or any(c not in "01" for c in bits):
            raise ValueError(f"token {body!r} must carry a 0/1 bit-string after the sign")
        parsed[want] = (sign, bits)
    (p_sign, p_bits), (s_sign, s_bits) = parsed["P"], parsed["S"]
    if len(p_bits) != len(s_bits):
        raise ValueError(f"P and S bit-strings differ in length in {text!r}")
    if n is not None and len(p_bits) != _check_photon_count(n):
        raise ValueError(f"state literal {text!r} has {len(p_bits)} photons, expected {n}")
    return HyperLabel.canonical(p_sign, p_bits, s_sign, s_bits)
