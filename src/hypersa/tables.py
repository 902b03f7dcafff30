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
    rows, bits = [], canonical_bit_strings(n)
    for p_bits in bits:
        for s_bits in bits:
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
    rows, bits = [], canonical_bit_strings(n)
    for gi, (p_sign, s_sign) in enumerate(_SIGN_ORDER, start=1):
        members = tuple(_member_literal(p_sign, pb, s_sign, sb)
                        for pb in bits for sb in bits)
        factors = (protocols.sign_basis_transform(ghz_state(sign, "0" * n, dof), dof)
                   for sign, dof in ((p_sign, "P"), (s_sign, "S")))
        support = optics.detection_distribution(hyper_product(*factors))
        rows.append(DetectionRow(gi, p_sign, s_sign, members,
                                 tuple(outcome_tokens(o) for o in support)))
    return rows


def _signature_text(rows: list[SignatureRow], n: int) -> str:
    head = ["state".ljust(12)] + [p.ljust(8) for p in protocols.probe_ids(n)]
    lines = ["".join(head)]
    for row in rows:
        cells = [f"P:{row.p_bits};S:{row.s_bits}".ljust(12)]
        cells += [("±θ" if s else "0").ljust(8) for s in row.shifts]
        lines.append("".join(cells))
    return "\n".join(lines)


def _detection_text(rows: list[DetectionRow]) -> str:
    lines = ["group  signs  outcomes"]
    for row in rows:
        lines.append(f"{row.group}      ({row.p_sign},{row.s_sign})  "
                     + " | ".join(row.outcomes))
        lines.append(f"       states: {', '.join(row.members)}")
    return "\n".join(lines)


def cmd_tables(args) -> int:
    """``hypersa tables``: both tables as text, one JSON document or CSV."""
    from .cli import EXIT_OK, _config, _csv_writer, _photon_count, _print_json
    n = _photon_count("tables", args.n)
    _config(args)  # checks the flags, though the tables depend on none
    sig_rows = emit_signature_table(n)
    det_rows = emit_detection_table(n)
    if args.fmt == "json":
        _print_json({"signature_table": [row._asdict() for row in sig_rows],
                     "detection_table": [row._asdict() for row in det_rows]})
    elif args.fmt == "csv":
        writer = _csv_writer()
        writer.writerow(["state"] + protocols.probe_ids(n))
        for row in sig_rows:
            writer.writerow([f"P:{row.p_bits};S:{row.s_bits}"]
                            + ["t" if s else "0" for s in row.shifts])
        print()
        writer.writerow(["group", "p_sign", "s_sign", "states", "outcomes"])
        for row in det_rows:
            writer.writerow([row.group, row.p_sign, row.s_sign,
                             " ".join(row.members), " | ".join(row.outcomes)])
    else:
        print(f"probe shift signatures ({len(sig_rows)} groups):")
        print(_signature_text(sig_rows, n))
        print()
        print(f"detector parity groups ({len(det_rows)}):")
        print(_detection_text(det_rows))
    return EXIT_OK
