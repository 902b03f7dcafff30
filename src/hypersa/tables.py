"""The two tables of the analyser: the probe-shift signature of every QND
group, and the detector-parity groups with the outcomes each can produce."""

from __future__ import annotations

from typing import NamedTuple

from . import optics, protocols
from .optics import outcome_tokens
from .protocols import check_photon_count
from .states import canonical_bit_strings, complement, ghz_state, hyper_product


class SignatureRow(NamedTuple):
    """One QND group: its display bit pair, the four member state literals
    in sign order (+,+), (+,-), (-,+), (-,-), and the probe shift pattern
    (0 = no shift, 1 = a +-theta shift) for alpha then beta probes."""

    p_bits: str
    s_bits: str
    members: tuple[str, ...]
    shifts: tuple[int, ...]


class DetectionRow(NamedTuple):
    """One detector-parity group: its index, the sign pair, the member state
    literals, and the outcome token strings the group can produce."""

    group: int
    p_sign: str
    s_sign: str
    members: tuple[str, ...]
    outcomes: tuple[str, ...]


def display_bits(bits: str) -> str:
    """Display representative of a GHZ bit class: the lower-Hamming-weight
    of the string and its complement (ties keep the leading-0 form)."""
    comp = complement(bits)
    return comp if comp.count("1") < bits.count("1") else bits


_SIGN_ORDER = (("+", "+"), ("+", "-"), ("-", "+"), ("-", "-"))


def _member_literal(p_sign: str, p_bits: str, s_sign: str, s_bits: str) -> str:
    return f"P:{p_sign}{display_bits(p_bits)};S:{s_sign}{display_bits(s_bits)}"


def emit_signature_table(n: int) -> list[SignatureRow]:
    """The probe-shift signature of every QND group, 4^(n-1) rows, ordered by
    (polarization, spatial) bit class."""
    check_photon_count(n, "signature table")
    rows = []
    for p_bits in canonical_bit_strings(n):
        for s_bits in canonical_bit_strings(n):
            members = tuple(_member_literal(ps, p_bits, ss, s_bits)
                            for ps, ss in _SIGN_ORDER)
            shifts = tuple(int(c) for c in p_bits[1:] + s_bits[1:])
            rows.append(SignatureRow(display_bits(p_bits), display_bits(s_bits),
                                     members, shifts))
    return rows


def emit_detection_table(n: int) -> list[DetectionRow]:
    """The four detector-parity groups with their members and outcome sets.

    The outcome set is computed by actually transforming one member of the
    group; it depends only on the sign pair.  No rotation couples the DOFs,
    so the member's rotated state is the product of its two rotated factors.
    """
    check_photon_count(n, "detection table")
    rows = []
    for gi, (p_sign, s_sign) in enumerate(_SIGN_ORDER, start=1):
        members = tuple(_member_literal(p_sign, pb, s_sign, sb)
                        for pb in canonical_bit_strings(n)
                        for sb in canonical_bit_strings(n))
        factors = (protocols.sign_basis_transform(ghz_state(sign, "0" * n, dof), dof)
                   for sign, dof in ((p_sign, "P"), (s_sign, "S")))
        support = optics.detection_distribution(hyper_product(*factors))
        rows.append(DetectionRow(gi, p_sign, s_sign, members,
                                 tuple(outcome_tokens(o) for o in support)))
    return rows
