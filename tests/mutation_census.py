"""Mutation census of the analyser's stages: how many one-site defects in
``states``, ``kerr``, ``optics``, ``protocols`` and ``rng`` the verifier
catches, and, on request, how many the test suite catches.

Each mutant changes one site of one module, with one of the sufficient
operators of Offutt, Lee, Rothermel, Untch & Zapf (ACM TOSEM 5(2), 1996): a
comparison (``==``/``!=``, ``<``/``<=``, ``>``/``>=``, ``in``/``not in``,
``is``/``is not``), an arithmetic operator (``+``/``-``, ``*``/``/``), a
connective (``and``/``or``, ``not x`` -> ``x``), a call (``any``/``all``,
``min``/``max``, ``abs(x)`` -> ``x``) or a constant (``"P"``/``"S"``,
``"+"``/``"-"``, ``"0"``/``"1"``, ``0``/``1``, ``True``/``False``,
``"H"``/``"V"``, ``2`` -> ``1``).  It runs in a
temporary copy of the repository, in its own subprocess with a timeout and
with no bytecode written.  The subprocess runs ``verify_complete(3)``, then
``hgsa_n_analyze`` on each of the 64 n=3 labels in two passes: the ideal
model at seeds 0 and 1, and the gaussian model at ``theta=0.2``,
``alpha=30`` and seed 0, where each probe misreads with probability about
0.28.  Each analysis's transcript (its label, each readout's probe,
magnitude and ``p``, and the detector records) is compared with the
unmutated copy's, recorded once per census; an analysis that raises differs
too.  The labels are built here, not by the mutated code.

Run from the repository root::

    python tests/mutation_census.py                  # the verify half
    python tests/mutation_census.py --tier1          # and pytest -x per verify survivor,
                                                     # its module's test file first
    python tests/mutation_census.py --function check_photon_count --function RunConfig.__new__

It prints one JSON line per mutant (module, line, function, operator, the
site's ordinal ``k`` among its function's sites of that operator in
:func:`sites` order, the ``verify`` verdict, the analyses of each pass that
differ, those that raised and, with ``--tier1``, whether the suite killed
it), then a totals line.  A mutant passes ``verify`` with a wrong label when
``verify`` passes but an analysis of either pass differs; ``gaussian_differ``
in the totals counts those whose gaussian pass differs.  Each entry of
:data:`BY_DESIGN` and :data:`EQUIVALENT` excuses one site, keyed
``(module, function, operator, k)``.  The census exits 1 when a mutant that
:data:`BY_DESIGN` does not list passes ``verify`` with a wrong label, and,
with ``--tier1``, when a mutant that :data:`EQUIVALENT` does not list
survives the suite.  A run without ``--function`` also exits 1 on a stale
entry, one that excuses no mutant: of :data:`BY_DESIGN` on every such run,
of :data:`EQUIVALENT` on one with ``--tier1``; it prints one line per stale
entry before the totals.
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
from collections import Counter
from functools import partial
from operator import ne
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("states", "kerr", "optics", "protocols", "rng")
COPIED = ("src", "tests", "bench", "demos", "pyproject.toml")
VERIFY_TIMEOUT_S = 30  # an unmutated verify half takes about 0.1 s
TIER1_TIMEOUT_S = 1200  # an unmutated pytest run takes about 20 s

_SYMBOLS = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">",
            ast.GtE: ">=", ast.In: "in", ast.NotIn: "not in", ast.Is: "is",
            ast.IsNot: "is not", ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
            ast.And: "and", ast.Or: "or"}
#: operator type -> the type it becomes
OPERATORS = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
             ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.In: ast.NotIn, ast.NotIn: ast.In,
             ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.Add: ast.Sub, ast.Sub: ast.Add,
             ast.Mult: ast.Div, ast.Div: ast.Mult, ast.And: ast.Or, ast.Or: ast.And}
#: (type, value) of a constant -> the value it becomes; keyed by type too, as 0 == 0.0 == False
CONSTANTS = {(str, "P"): "S", (str, "S"): "P", (str, "+"): "-", (str, "-"): "+",
             (str, "0"): "1", (str, "1"): "0", (str, "H"): "V", (str, "V"): "H",
             (int, 0): 1, (int, 1): 0, (int, 2): 1, (bool, True): False, (bool, False): True}
#: built-in called by name -> the built-in called instead
CALLS = {"any": "all", "all": "any", "min": "max", "max": "min"}

_MISREAD = ("changes the gaussian misread, its probability or its weight in p: verify "
            "proves the ideal readout, which never misreads, so only the gaussian pass "
            "and the tests see it")
_POINT_MASS_DRAWN = ("picks a point-mass class too, so its p is the class's summed branch "
                     "weight, not exactly 1, and a misread takes the stream's second uniform: "
                     "verify checks readout magnitudes and classes, not p")

#: (module, function, operator, k) -> why the mutant there passes ``verify`` with a wrong label
BY_DESIGN = {
    ("kerr", "gaussian_error_prob", "0 -> 1", 0):
        "refuses every theta below 1, so the gaussian pass raises: verify proves the "
        "ideal readout, which never asks for a misread probability",
    ("kerr", "gaussian_error_prob", "* -> /", 0): _MISREAD,
    ("kerr", "gaussian_error_prob", "/ -> *", 1): _MISREAD,
    ("kerr", "gaussian_error_prob", "* -> /", 1): _MISREAD,
    ("kerr", "gaussian_error_prob", "- -> +", 0): _MISREAD,
    ("kerr", "misread", "in -> not in", 0): _MISREAD,
    ("kerr", "misread", "0 -> 1", 0): _MISREAD,
    ("kerr", "misread", "1 -> 0", 0): _MISREAD,
    ("kerr", "misread", "- -> +", 0): _MISREAD,
    ("kerr", "misread", "1 -> 0", 1): _MISREAD,
    ("kerr", "homodyne_measure", "1 -> 0", 0):
        "refuses every misread probability above 0, so the gaussian pass raises: "
        "verify's ideal readout has 0",
    ("kerr", "homodyne_measure", "!= -> ==", 0): _POINT_MASS_DRAWN,
    ("kerr", "homodyne_measure", "1 -> 0", 1): _POINT_MASS_DRAWN,
    ("kerr", "homodyne_measure", "0 -> 1", 1): _MISREAD,
    ("kerr", "homodyne_measure", "is not -> is", 0): _MISREAD,
    ("kerr", "homodyne_measure", "True -> False", 0): _MISREAD,
    ("kerr", "homodyne_measure", "False -> True", 0): _MISREAD,
    ("kerr", "homodyne_measure", "- -> +", 0): _MISREAD,
    ("kerr", "homodyne_measure", "* -> /", 0): _MISREAD,
    ("optics", "sample_outcome", "0 -> 1", 0):
        "returns the drawn outcome's probability, not the outcome: verify walks "
        "every detector branch and never draws one, so only the tests cover the draw",
    ("rng", "pick", "not x -> x", 0):
        "refuses every generator, so each draw raises: verify's readouts are point "
        "masses and it never draws a detector event, so it never picks",
    ("rng", "pick", "1 -> 0", 0):
        "sums the drawn items, not their weights, and raises: verify's readouts "
        "are point masses and it never draws a detector event, so it never picks",
    ("rng", "pick", "is -> is not", 0):
        "refuses every distribution as empty: verify never picks (as above)",
    ("rng", "pick", "+ -> -", 0):
        "subtracts the weights, so every draw takes the last pair: every detector "
        "outcome decodes to the right label and verify never picks, so only the "
        "transcripts and the tests show it",
    ("protocols", "hgsa_n_analyze", "+ -> -", 0):
        "`readouts -= reads` raises: verify runs each factor's pre_detection, not "
        "the analyser's join of the two factors, which the tests cover",
}

#: (module, function, operator, k) -> why the mutant there, which passes ``verify``,
#: survives the suite: it changes no behaviour the package has
EQUIVALENT = {
    ("states", "<module>", "'P' -> 'S'", 0):
        "a letter of the `Dof` alias, a type hint only: nothing reads its arguments",
    ("states", "<module>", "'S' -> 'P'", 0):
        "a letter of the `Dof` alias, a type hint only: nothing reads its arguments",
    ("states", "_Amplitudes.__init__", ">= -> >", 0):
        "the prune of a small amplitude: no amplitude's modulus is exactly PRUNE_EPS",
    ("states", "_Amplitudes._derived", ">= -> >", 0):
        "the prune of a small amplitude: no amplitude's modulus is exactly PRUNE_EPS",
    ("states", "split_product", ">= -> >", 0):
        "the overlap test: no overlap lands exactly on (1 - NORM_TOL) times the norm",
    ("states", "equal_up_to_global_phase", ">= -> >", 0):
        "the overlap test: no overlap is exactly 1 - NORM_TOL",
    ("optics", "detection_distribution", "> -> >=", 0):
        "the norm check: no state's norm defect is exactly NORM_TOL",
}

#: the analyser's passes over the 64 n=3 labels: name -> the RunConfig arguments of each run
PASSES = {"ideal": [{"seed": 0}, {"seed": 1}],
          "gaussian": [{"theta": 0.2, "alpha": 30.0, "model": "gaussian", "seed": 0}]}

#: run in each mutant's subprocess; prints {"verify": ..., "ideal": [...], "gaussian": [...]},
#: each pass's transcripts in label order (None where the analysis raised)
_VERIFY_HALF = f"""
import itertools, json
from hypersa.protocols import RunConfig, hgsa_n_analyze, verify_complete
from hypersa.states import HyperLabel, state_from_label
try:
    verdict = "pass" if verify_complete(3).all_correct else "fail"
except Exception:
    verdict = "error"
out = {{"verify": verdict}}
for name, runs in {PASSES!r}.items():
    out[name] = []
    for p_bits, s_bits in itertools.product(["000", "001", "010", "011"], repeat=2):
        for p_sign, s_sign in itertools.product("+-", repeat=2):
            label = HyperLabel(p_sign, p_bits, s_sign, s_bits)
            for kwargs in runs:
                try:
                    got, t = hgsa_n_analyze(state_from_label(label), RunConfig(**kwargs))
                    out[name].append(repr((tuple(got), [(r.probe, r.magnitude, r.p)
                                                        for r in t.probe_readouts],
                                           t.detector_outcome.records)))
                except Exception:
                    out[name].append(None)
print(json.dumps(out))
"""


def _swap(op: ast.AST, new: type) -> str:
    return f"{_SYMBOLS[type(op)]} -> {_SYMBOLS[new]}"


def _replacing(parent: ast.AST, child: ast.AST, new: ast.AST) -> partial:
    """What puts ``new`` where ``child`` sits in ``parent``."""
    for field, value in ast.iter_fields(parent):
        if value is child:
            return partial(setattr, parent, field, new)
        if isinstance(value, list) and any(item is child for item in value):
            return partial(value.__setitem__, [id(item) for item in value].index(id(child)), new)
    raise ValueError(f"{child!r} is not a child of {parent!r}")


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
            elif (isinstance(child, (ast.BinOp, ast.AugAssign, ast.BoolOp))
                  and type(child.op) in OPERATORS):
                new = OPERATORS[type(child.op)]
                found.append((child.lineno, where, _swap(child.op, new),
                              partial(setattr, child, "op", new())))
            elif isinstance(child, ast.UnaryOp) and isinstance(child.op, ast.Not):
                found.append((child.lineno, where, "not x -> x",
                              _replacing(node, child, child.operand)))
            elif isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                name = child.func.id
                if name in CALLS:
                    found.append((child.lineno, where, f"{name} -> {CALLS[name]}",
                                  partial(setattr, child.func, "id", CALLS[name])))
                elif name == "abs" and len(child.args) == 1 and not child.keywords:
                    found.append((child.lineno, where, "abs(x) -> x",
                                  _replacing(node, child, child.args[0])))
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
    """The verdict and each pass's transcripts of the code now in ``copy``."""
    run = _run([sys.executable, "-c", _VERIFY_HALF], copy, VERIFY_TIMEOUT_S)
    if run is None:
        return {"verify": "timeout"}
    try:
        return json.loads(run.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):  # the mutant broke the import or the harness
        return {"verify": "error"}


def compared(run: dict, reference: dict) -> dict:
    """Per pass, how many of ``run``'s transcripts differ from ``reference``'s,
    and how many analyses raised; None when ``run`` has no transcripts."""
    if PASSES.keys() - run.keys():
        return {**{f"{name}_differ": None for name in PASSES}, "raised": None}
    return {**{f"{name}_differ": sum(map(ne, run[name], reference[name])) for name in PASSES},
            "raised": sum(t is None for name in PASSES for t in run[name])}


def tier1_kills(copy: Path, module: str) -> bool:
    """Whether ``pytest -x`` fails (or times out) on the mutant of ``module`` now
    in ``copy``: first on the module's own ``tests/test_<module>.py``, which
    kills most mutants in seconds, then, only if that passes, on the rest."""
    own = f"tests/test_{module}.py"
    for selection in ([own], ["tests", "--ignore", own]):
        run = _run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                    *selection], copy, TIER1_TIMEOUT_S)
        if run is None or run.returncode != 0:
            return True
    return False


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tier1", action="store_true",
                        help="also run pytest -x on each mutant that passes verify")
    parser.add_argument("--function", action="append", default=[],
                        help="mutate only sites in this function (name or Class.name); repeatable")
    args = parser.parse_args(argv)

    start, totals = time.perf_counter(), {"mutants": 0, "verify_failed": 0, "verify_passed": 0,
                                          "wrong_label": 0, "gaussian_differ": 0,
                                          "unlisted": 0}
    if args.tier1:
        totals.update(tier1_killed=0, tier1_survived=0, tier1_unlisted=0)
    # the keys of the mutants each table must excuse; a table key not among them is stale
    arose = {"BY_DESIGN": set(), "EQUIVALENT": set()}
    with tempfile.TemporaryDirectory(prefix="mutation-census-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src, dst = ROOT / name, copy / name
            if src.is_dir():
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(src, dst)
        reference = verify_half(copy)
        if reference["verify"] != "pass" or compared(reference, reference)["raised"] != 0:
            sys.exit(f"the unmutated code fails the verify half: {reference['verify']}")
        for module in MODULES:
            path = copy / "src" / "hypersa" / f"{module}.py"
            source = path.read_text(encoding="utf-8")
            ordinals = Counter()
            for index, (line, function, operator, _) in enumerate(sites(ast.parse(source))):
                key = (module, function, operator, ordinals[function, operator])
                ordinals[function, operator] += 1
                names = {function, function.rsplit(".", 1)[-1]}
                if args.function and not names & set(args.function):
                    continue
                path.write_text(mutant_source(source, index), encoding="utf-8")
                run = verify_half(copy)
                record = {"module": module, "line": line, "function": function,
                          "operator": operator, "k": key[3], "verify": run["verify"],
                          **compared(run, reference)}
                passed = record["verify"] == "pass"
                totals["mutants"] += 1
                totals["verify_passed" if passed else "verify_failed"] += 1
                if passed and (record["ideal_differ"] or record["gaussian_differ"]):
                    totals["wrong_label"] += 1
                    totals["gaussian_differ"] += record["gaussian_differ"] > 0
                    record["by_design"] = BY_DESIGN.get(key)
                    totals["unlisted"] += record["by_design"] is None
                    arose["BY_DESIGN"].add(key)
                if args.tier1 and passed:
                    record["tier1"] = "killed" if tier1_kills(copy, module) else "survived"
                    totals[f"tier1_{record['tier1']}"] += 1
                    if record["tier1"] == "survived":
                        record["equivalent"] = EQUIVALENT.get(key)
                        totals["tier1_unlisted"] += record["equivalent"] is None
                        arose["EQUIVALENT"].add(key)
                print(json.dumps(record), flush=True)
            path.write_text(source, encoding="utf-8")
    if not args.function:
        tables = {"BY_DESIGN": BY_DESIGN, **({"EQUIVALENT": EQUIVALENT} if args.tier1 else {})}
        stale = [(name, key) for name, table in tables.items() for key in table
                 if key not in arose[name]]
        for name, key in stale:
            print(json.dumps({"stale": name, "key": key}), flush=True)
        totals["stale"] = len(stale)
    totals["seconds"] = round(time.perf_counter() - start, 1)
    print(json.dumps({"totals": totals}), flush=True)
    return 1 if totals["unlisted"] or totals.get("tier1_unlisted") or totals.get("stale") else 0


if __name__ == "__main__":
    sys.exit(main())
