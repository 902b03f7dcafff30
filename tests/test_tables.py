import pytest

from hypersa.optics import detection_distribution, outcome_tokens
from hypersa.protocols import (display_bits, emit_detection_table,
                               emit_signature_table, sign_basis_transform)
from hypersa.states import HyperLabel, state_from_label

# Golden two-photon signature rows: bit-class pair -> probe shift pattern
# (0 = no shift, 1 = a +-theta shift), transcribed row by row.
SIGNATURE_GOLDEN_2 = [
    ("00", "00", (0, 0)),
    ("00", "01", (0, 1)),
    ("01", "00", (1, 0)),
    ("01", "01", (1, 1)),
]

# Golden three-photon signature rows in display representatives,
# transcribed row by row: (p class, s class, (alpha1, alpha2, beta1, beta2)).
DISPLAY_ORDER_3 = ["000", "001", "010", "100"]
SIGNATURE_GOLDEN_3 = [
    ("000", "000", (0, 0, 0, 0)),
    ("000", "001", (0, 0, 0, 1)),
    ("000", "010", (0, 0, 1, 0)),
    ("000", "100", (0, 0, 1, 1)),
    ("001", "000", (0, 1, 0, 0)),
    ("001", "001", (0, 1, 0, 1)),
    ("001", "010", (0, 1, 1, 0)),
    ("001", "100", (0, 1, 1, 1)),
    ("010", "000", (1, 0, 0, 0)),
    ("010", "001", (1, 0, 0, 1)),
    ("010", "010", (1, 0, 1, 0)),
    ("010", "100", (1, 0, 1, 1)),
    ("100", "000", (1, 1, 0, 0)),
    ("100", "001", (1, 1, 0, 1)),
    ("100", "010", (1, 1, 1, 0)),
    ("100", "100", (1, 1, 1, 1)),
]

SIGN_ORDER = [("+", "+"), ("+", "-"), ("-", "+"), ("-", "-")]

# Golden detector token lists per sign group, in emission order.
DETECTION_GOLDEN_2 = {
    ("+", "+"): ["A1+ B1+", "A1- B1-", "A2+ B2+", "A2- B2-"],
    ("+", "-"): ["A1+ B2+", "A1- B2-", "A2+ B1+", "A2- B1-"],
    ("-", "+"): ["A1+ B1-", "A1- B1+", "A2+ B2-", "A2- B2+"],
    ("-", "-"): ["A1+ B2-", "A1- B2+", "A2+ B1-", "A2- B1+"],
}


class TestDisplayBits:
    def test_two_photon_classes_unchanged(self):
        assert display_bits("00") == "00"
        assert display_bits("01") == "01"

    def test_three_photon_heavy_class_flips(self):
        assert display_bits("011") == "100"
        assert display_bits("001") == "001"

    def test_four_photon_heavy_class_flips(self):
        assert display_bits("0111") == "1000"
        assert display_bits("0011") == "0011"  # tie keeps the leading-0 form


class TestSignatureTable:
    def test_two_photon_rows_cell_for_cell(self):
        rows = emit_signature_table(2)
        assert [(r.p_bits, r.s_bits, r.shifts) for r in rows] == SIGNATURE_GOLDEN_2

    def test_two_photon_members(self):
        rows = emit_signature_table(2)
        assert rows[1].members == ("P:+00;S:+01", "P:+00;S:-01",
                                   "P:-00;S:+01", "P:-00;S:-01")

    def test_three_photon_rows_cell_for_cell(self):
        rows = emit_signature_table(3)
        assert [(r.p_bits, r.s_bits, r.shifts) for r in rows] == SIGNATURE_GOLDEN_3

    def test_three_photon_heavy_row_uses_display_representative(self):
        rows = emit_signature_table(3)
        last = rows[-1]
        assert (last.p_bits, last.s_bits) == ("100", "100")
        assert last.shifts == (1, 1, 1, 1)
        assert last.members[0] == "P:+100;S:+100"

    @pytest.mark.parametrize("n,count", [(2, 4), (3, 16), (4, 64)])
    def test_row_count_is_group_count(self, n, count):
        assert len(emit_signature_table(n)) == count

    def test_shift_width_tracks_probe_count(self):
        assert all(len(r.shifts) == 6 for r in emit_signature_table(4))

    def test_guard(self):
        with pytest.raises(ValueError, match="2 <= n"):
            emit_signature_table(1)


class TestDetectionTable:
    def test_two_photon_groups_row_for_row(self):
        rows = emit_detection_table(2)
        assert [(r.group, r.p_sign, r.s_sign) for r in rows] == [
            (1, "+", "+"), (2, "+", "-"), (3, "-", "+"), (4, "-", "-")]
        for row in rows:
            assert list(row.outcomes) == DETECTION_GOLDEN_2[(row.p_sign, row.s_sign)]
            expected_members = tuple(
                f"P:{row.p_sign}{pb};S:{row.s_sign}{sb}"
                for pb in ("00", "01") for sb in ("00", "01"))
            assert row.members == expected_members

    def test_three_photon_groups_row_for_row(self):
        rows = emit_detection_table(3)
        assert len(rows) == 4
        for row, signs in zip(rows, SIGN_ORDER):
            assert (row.p_sign, row.s_sign) == signs
            expected_members = tuple(
                f"P:{row.p_sign}{pb};S:{row.s_sign}{sb}"
                for pb in DISPLAY_ORDER_3 for sb in DISPLAY_ORDER_3)
            assert row.members == expected_members
            assert len(row.members) == 16
            assert len(row.outcomes) == 16

    def test_three_photon_outcome_parities_match_group(self):
        for row in emit_detection_table(3):
            for tokens in row.outcomes:
                records = tokens.split()
                v = sum(1 for t in records if t.endswith("-"))
                x2 = sum(1 for t in records if t[1] == "2")
                assert (v % 2 == 0) == (row.p_sign == "+")
                assert (x2 % 2 == 0) == (row.s_sign == "+")

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_outcomes_are_the_joint_rotation_of_a_member(self, n):
        # the table rotates the two factors apart; rotating the joint state
        # of the group's all-zeros member gives the same tokens in order
        for row in emit_detection_table(n):
            joint = state_from_label(HyperLabel(row.p_sign, "0" * n, row.s_sign, "0" * n))
            rotated = sign_basis_transform(sign_basis_transform(joint, "S"), "P")
            support = detection_distribution(rotated)
            assert row.outcomes == tuple(outcome_tokens(o) for o in support)

    def test_guard(self):
        with pytest.raises(ValueError, match="2 <= n"):
            emit_detection_table(11)
