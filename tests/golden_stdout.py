"""The golden stdout corpus: fixed CLI cases, each with its exit code and the
SHA-256 digest and byte count of its stdout and of its stderr.

The cases run in-process through :func:`hypersa.cli.main` with every
``HYPERSA_*`` environment variable cleared.  ``tests/test_golden_stdout.py``
holds each case to ``tests/golden_stdout.json``; this script regenerates that
file and prints the cases whose digests changed.  Regenerate only together
with a declared output change.  Run from the repository root::

    PYTHONPATH=src python tests/golden_stdout.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
from pathlib import Path
from unittest import mock

from hypersa import cli

GOLDEN = Path(__file__).with_name("golden_stdout.json")
FORMATS = ("text", "json", "csv")
LITERALS = ("P:+00;S:-01", "P:-010;S:+011", "P:+0110100111;S:-0011011010")
#: a gaussian run whose per-probe misread probability is about 0.28
GAUSSIAN = ("--model", "gaussian", "--theta", "0.2", "--alpha", "30")


def _cases() -> list[list[str]]:
    cases = [["verify", "--n", str(n), "--format", fmt] for n in (2, 3, 4, 6) for fmt in FORMATS]
    cases += [["verify", "--n", "3", "--model", "gaussian", "--trials", "200", "--seed", "1",
               "--format", fmt] for fmt in ("text", "json")]
    cases += [["tables", "--n", str(n), "--format", fmt] for n in (2, 3, 5) for fmt in FORMATS]
    cases += [["montecarlo", "--n", str(n), *GAUSSIAN, "--trials", str(trials), "--seed", "7",
               "--format", fmt] for n, trials in ((2, 500), (4, 100)) for fmt in FORMATS]
    cases += [["analyze", literal, "--seed", str(seed), "--format", fmt]
              for literal in LITERALS for seed in (0, 1) for fmt in FORMATS]
    cases += [["analyze", "P:-0101;S:+0110", *GAUSSIAN, "--seed", str(seed), "--format", fmt]
              for seed in (0, 1) for fmt in FORMATS]
    return cases


CASES = {shlex.join(argv): argv for argv in _cases()}


def _digest(text: str) -> dict:
    data = text.encode("utf-8")
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def run_case(argv: list[str]) -> dict:
    """``argv``'s exit code and the digests of its stdout and stderr, run
    through :func:`hypersa.cli.main` with no ``HYPERSA_*`` variable set."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(cli.ENV_PREFIX)}
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env, clear=True), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"exit": code, "stdout": _digest(out.getvalue()), "stderr": _digest(err.getvalue())}


def main() -> None:
    """Rewrite the corpus and print the cases whose record changed."""
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    new = {key: run_case(case) for key, case in CASES.items()}
    changed = sorted(key for key in new.keys() | old.keys() if old.get(key) != new.get(key))
    for key in changed:
        print(f"changed: {key}")
    print(f"{len(new)} cases, {len(changed)} changed")
    GOLDEN.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
