"""Each golden CLI case prints, byte for byte, what ``golden_stdout.json`` holds."""

import json

import pytest

from golden_stdout import CASES, GOLDEN, run_case

RECORDED = json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_the_corpus_covers_exactly_the_cases():
    assert sorted(RECORDED) == sorted(CASES)


@pytest.mark.parametrize("key", sorted(CASES))
def test_case_output_is_unchanged(key):
    assert run_case(CASES[key]) == RECORDED[key]
