"""Mutation census of the analyser's stages: how many one-site defects in
``states``, ``kerr``, ``optics`` and ``protocols`` the verifier catches, and,
on request, how many the test suite catches.

Each mutant changes one site of one module: a comparison (``==``/``!=``,
``<``/``<=``, ``>``/``>=``), an arithmetic operator (``+``/``-``,
``*``/``/``) or a constant (``"P"``/``"S"``, ``"+"``/``"-"``,
``"0"``/``"1"``, ``0``/``1``, ``"H"``/``"V"``, ``2`` -> ``1``).  It runs in a
temporary copy of the repository, in its own subprocess with a timeout and
with no bytecode written.  The subprocess runs ``verify_complete(3)``, then
``hgsa_n_analyze`` on each of the 64 n=3 labels at seeds 0 and 1, under the
ideal model, and counts the analyses that return a wrong label and those
that raise; the labels are built here, not by the mutated code.

Run from the repository root::

    python tests/mutation_census.py                  # the verify half
    python tests/mutation_census.py --tier1          # and pytest -x per verify survivor
    python tests/mutation_census.py --function check_photon_count --function RunConfig.__new__

It prints one JSON line per mutant (module, line, function, operator, the
``verify`` verdict, the wrong labels, the analyses that raised and, with
``--tier1``, whether the suite killed it), then a totals line.  A mutant
passes ``verify`` with a wrong label when ``verify`` passes but an analysis
returns a wrong label or raises.  The census exits 1 when a mutant that
:data:`BY_DESIGN` does not list does so.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("states", "kerr", "optics", "protocols")
COPIED = ("src", "tests", "bench", "demos", "pyproject.toml")
VERIFY_TIMEOUT_S = 30  # an unmutated verify half takes about 0.1 s
TIER1_TIMEOUT_S = 1200  # an unmutated pytest run takes about 20 s

_SYMBOLS = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">",
            ast.GtE: ">=", ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
#: operator type -> the type it becomes
OPERATORS = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
             ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Add: ast.Sub, ast.Sub: ast.Add,
             ast.Mult: ast.Div, ast.Div: ast.Mult}
#: (type, value) of a constant -> the value it becomes; keyed by type too, as 0 == 0.0 == False
CONSTANTS = {(str, "P"): "S", (str, "S"): "P", (str, "+"): "-", (str, "-"): "+",
             (str, "0"): "1", (str, "1"): "0", (str, "H"): "V", (str, "V"): "H",
             (int, 0): 1, (int, 1): 0, (int, 2): 1}

#: (module, function, operator) -> why a mutant there passes ``verify`` with a wrong label
BY_DESIGN = {
    ("optics", "sample_outcome", "0 -> 1"):
        "returns the drawn outcome's probability, not the outcome: verify walks "
        "every detector branch and never draws one, so only the tests cover the draw",
    ("protocols", "hgsa_n_analyze", "+ -> -"):
        "`readouts -= reads` raises: verify runs each factor's pre_detection, not "
        "the analyser's join of the two factors, which the tests cover",
}

#: run in each mutant's subprocess; prints {"verify": ..., "wrong_labels": ..., "raised": ...}
_VERIFY_HALF = """
import itertools, json
from hypersa.protocols import RunConfig, hgsa_n_analyze, verify_complete
from hypersa.states import HyperLabel, state_from_label
try:
    verdict = "pass" if verify_complete(3).all_correct else "fail"
except Exception:
    verdict = "error"
wrong = raised = 0
for p_bits, s_bits in itertools.product(["000", "001", "010", "011"], repeat=2):
    for p_sign, s_sign in itertools.product("+-", repeat=2):
        label = HyperLabel(p_sign, p_bits, s_sign, s_bits)
        for seed in (0, 1):
            try:
                wrong += hgsa_n_analyze(state_from_label(label), RunConfig(seed=seed))[0] != label
            except Exception:
                raised += 1
print(json.dumps({"verify": verdict, "wrong_labels": wrong, "raised": raised}))
"""


def _swap(op: ast.AST, new: type) -> str:
    return f"{_SYMBOLS[type(op)]} -> {_SYMBOLS[new]}"


def sites(tree: ast.Module) -> list[tuple[int, str, str, partial]]:
    """``(line, function, operator, apply)`` for every site of ``tree`` the
    census mutates, in a fixed walk order; ``apply()`` mutates that site."""
    found = []

    def walk(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            where = ".".join(inner) or "<module>"
            if isinstance(child, ast.Compare):
                for i, op in enumerate(child.ops):
                    if type(op) in OPERATORS:
                        new = OPERATORS[type(op)]
                        found.append((child.lineno, where, _swap(op, new),
                                      partial(child.ops.__setitem__, i, new())))
            elif isinstance(child, (ast.BinOp, ast.AugAssign)) and type(child.op) in OPERATORS:
                new = OPERATORS[type(child.op)]
                found.append((child.lineno, where, _swap(child.op, new),
                              partial(setattr, child, "op", new())))
            elif isinstance(child, ast.Constant) and (type(child.value), child.value) in CONSTANTS:
                new = CONSTANTS[type(child.value), child.value]
                found.append((child.lineno, where, f"{child.value!r} -> {new!r}",
                              partial(setattr, child, "value", new)))
            walk(child, inner)

    walk(tree, ())
    return found


def mutant_source(source: str, index: int) -> str:
    """``source`` with its ``index``-th site (:func:`sites`) mutated."""
    tree = ast.parse(source)
    sites(tree)[index][3]()
    return ast.unparse(tree)


def _run(argv: list[str], cwd: Path, timeout: float) -> subprocess.CompletedProcess | None:
    """``argv`` run on the copy at ``cwd``; None when it times out."""
    env = {**os.environ, "PYTHONPATH": str(cwd / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None


def verify_half(copy: Path) -> dict:
    """The verdict and wrong labels of the mutant now in ``copy``."""
    run = _run([sys.executable, "-c", _VERIFY_HALF], copy, VERIFY_TIMEOUT_S)
    if run is None:
        return {"verify": "timeout", "wrong_labels": None, "raised": None}
    try:
        return json.loads(run.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):  # the mutant broke the import or the harness
        return {"verify": "error", "wrong_labels": None, "raised": None}


def tier1_kills(copy: Path) -> bool:
    """Whether ``pytest -x`` fails (or times out) on the mutant now in ``copy``."""
    run = _run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                "tests"], copy, TIER1_TIMEOUT_S)
    return run is None or run.returncode != 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tier1", action="store_true",
                        help="also run pytest -x on each mutant that passes verify")
    parser.add_argument("--function", action="append", default=[],
                        help="mutate only sites in this function (name or Class.name); repeatable")
    args = parser.parse_args(argv)

    start, totals = time.perf_counter(), {"mutants": 0, "verify_failed": 0, "verify_passed": 0,
                                          "wrong_label": 0, "unlisted": 0}
    if args.tier1:
        totals.update(tier1_killed=0, tier1_survived=0)
    with tempfile.TemporaryDirectory(prefix="mutation-census-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src, dst = ROOT / name, copy / name
            if src.is_dir():
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(src, dst)
        for module in MODULES:
            path = copy / "src" / "hypersa" / f"{module}.py"
            source = path.read_text(encoding="utf-8")
            for index, (line, function, operator, _) in enumerate(sites(ast.parse(source))):
                names = {function, function.rsplit(".", 1)[-1]}
                if args.function and not names & set(args.function):
                    continue
                path.write_text(mutant_source(source, index), encoding="utf-8")
                record = {"module": module, "line": line, "function": function,
                          "operator": operator, **verify_half(copy)}
                passed = record["verify"] == "pass"
                totals["mutants"] += 1
                totals["verify_passed" if passed else "verify_failed"] += 1
                if passed and (record["wrong_labels"] or record["raised"]):
                    totals["wrong_label"] += 1
                    record["by_design"] = BY_DESIGN.get((module, function, operator))
                    totals["unlisted"] += record["by_design"] is None
                if args.tier1 and passed:
                    record["tier1"] = "killed" if tier1_kills(copy) else "survived"
                    totals[f"tier1_{record['tier1']}"] += 1
                print(json.dumps(record), flush=True)
            path.write_text(source, encoding="utf-8")
    totals["seconds"] = round(time.perf_counter() - start, 1)
    print(json.dumps({"totals": totals}), flush=True)
    return 1 if totals["unlisted"] else 0


if __name__ == "__main__":
    sys.exit(main())
