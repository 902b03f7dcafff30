"""Correctness checks on hypersa CLI output.

Every JSON document is validated against the schema the package ships, then
against the paper's claims: ``verify`` proves all 4^n inputs correct in
4^(n-1) QND groups, ``analyze`` returns the canonical label of its input,
and the Monte Carlo error rate lies within 3 standard errors of its own
``predicted`` field (the test of acceptance criterion 8).  The expected
numbers are worked out here, not read from the program.  Each check returns
a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema


class Checker:
    def __init__(self, schema_dir: Path):
        self._validators = {}
        for kind in ("analyze", "report", "montecarlo"):
            schema = json.loads((schema_dir / f"{kind}.schema.json").read_text())
            self._validators[kind] = jsonschema.Draft202012Validator(schema)

    def _load(self, kind: str, stdout: str) -> tuple[dict | None, list[str]]:
        try:
            doc = json.loads(stdout)
        except ValueError as exc:
            return None, [f"stdout is not JSON: {exc}"]
        errors = [f"schema: {e.message}" for e in self._validators[kind].iter_errors(doc)]
        return (None, errors) if errors else (doc, [])

    def verify(self, stdout: str, n: int) -> list[str]:
        doc, problems = self._load("report", stdout)
        if doc is None:
            return problems
        want = {"n": n, "total": 4 ** n, "correct": 4 ** n,
                "groups": 4 ** (n - 1), "model": "ideal"}
        return [f"verify {key}={doc.get(key)!r}, expected {value!r}"
                for key, value in want.items() if doc.get(key) != value]

    def analyze(self, stdout: str, literal: str, n: int) -> list[str]:
        doc, problems = self._load("analyze", stdout)
        if doc is None:
            return problems
        if doc["label"]["literal"] != literal:
            problems.append(f"analyze {literal} decoded as {doc['label']['literal']}")
        if len(doc["probes"]) != 2 * (n - 1) or len(doc["detection"]) != n:
            problems.append(f"analyze {literal}: {len(doc['probes'])} probes and "
                            f"{len(doc['detection'])} detector records for n={n}")
        return problems

    def montecarlo(self, stdout: str, n: int, trials: int, theta: float,
                   alpha: float) -> tuple[list[str], tuple[int, int, float] | None]:
        """Problems with one Monte Carlo document, and its (errors, trials,
        predicted) for the pooled rate test in :func:`pooled_rate`."""
        doc, problems = self._load("montecarlo", stdout)
        if doc is None:
            return problems, None
        per_probe = 0.5 * math.erfc(alpha * (1.0 - math.cos(theta)) / math.sqrt(2.0))
        predicted = 1.0 - (1.0 - per_probe) ** (2 * (n - 1))
        cells = doc["per_state"].values()
        if (doc["n"], doc["trials"]) != (n, trials):
            problems.append(f"montecarlo reports n={doc['n']} trials={doc['trials']}")
        if len(doc["per_state"]) != 4 ** n:
            problems.append(f"montecarlo tallies {len(doc['per_state'])} states, "
                            f"expected {4 ** n}")
        if (sum(c["trials"] for c in cells), sum(c["errors"] for c in cells)) \
                != (doc["trials"], doc["errors"]):
            problems.append("montecarlo per_state tallies do not sum to the totals")
        if not math.isclose(doc["rate"], doc["errors"] / doc["trials"], rel_tol=1e-12):
            problems.append(f"montecarlo rate {doc['rate']} != errors/trials")
        if not math.isclose(doc["predicted"], predicted, rel_tol=1e-9):
            problems.append(f"montecarlo predicted {doc['predicted']}, expected {predicted}")
        if not math.isclose(doc["per_probe_error"], per_probe, rel_tol=1e-9):
            problems.append(f"montecarlo per_probe_error {doc['per_probe_error']}, "
                            f"expected {per_probe}")
        return problems, (doc["errors"], doc["trials"], doc["predicted"])


def pooled_rate(tallies: list[tuple[int, int, float]]) -> list[str]:
    """3-standard-error test of the error rate pooled over a run's Monte
    Carlo processes against their shared ``predicted`` rate.

    Pooling makes one test per run, so its false-alarm chance stays at the
    two-sided 3-sigma 0.27 % however many processes the run holds."""
    errors = sum(e for e, _, _ in tallies)
    trials = sum(t for _, t, _ in tallies)
    predicted = tallies[0][2]
    sigma = math.sqrt(predicted * (1.0 - predicted) / trials)
    rate = errors / trials
    if abs(rate - predicted) > 3.0 * sigma:
        return [f"montecarlo rate {rate:.5f} over {trials} trials is "
                f"{abs(rate - predicted) / sigma:.2f} standard errors from "
                f"predicted {predicted:.5f}"]
    return []
