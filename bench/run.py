"""Benchmark of the hypersa command line, end to end and layer by layer.

    python3 bench/run.py --workload verify|montecarlo|analyze \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is ``src/hypersa``.
One client drives one CLI child process at a time (a closed loop); each
child is ``hypersa.cli:entry``, the console-script entry point, run from
the checkout's sources.

``--trace 0`` times untraced child processes for at least ``--seconds``
seconds and reports the end-to-end metrics.  ``--trace 1`` runs the same
inputs in this process through ``hypersa.cli.main`` three times (untraced,
traced, traced again) and reports the per-layer metrics of the first traced
pass.  Every output is checked (see ``checks.py``); the last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Traces go to ``.bench_build/trace/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.metadata
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import checks
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"

ENTRY = "from hypersa.cli import entry; entry()"
SETUP = ("import sys, hypersa.cli; hypersa.cli.build_parser(); "
         "sys.stdout.write(hypersa.cli.__file__)")
SETUP_REPEATS = 8  # fresh interpreters for cli.interpreter_s and cli.import_s
PROBE_EVERY_S = 3.0  # reference runs and a setup run this often between calls
REF_S = 0.2  # timings are scaled to a machine where each reference takes this

VERIFY_N = 4  # one n=5 process fills a run: a single, drifting sample
MC_N, MC_THETA, MC_ALPHA, MC_TRIALS = 2, 0.2, 60.0, 2500
ANALYZE_NS = range(2, 8)
ANALYZE_BLOCKS = 17  # 17 blocks of one call per n: 102 calls, 11 beyond p90


class Op(NamedTuple):
    argv: tuple[str, ...]  # CLI arguments after "hypersa"
    check: Callable[[str], tuple[list[str], tuple | None]]


class Workload(NamedTuple):
    ops: Callable[[int, checks.Checker], Iterator[Op]]
    minimum: int  # ops every run makes; traced runs make exactly these
    block: int    # a timed run stops only after a whole block
    spans: tuple[str, ...]  # spans that must fire in a traced run


def verify_ops(seed: int, checker) -> Iterator[Op]:
    argv = ("verify", "--n", str(VERIFY_N), "--format", "json", "--seed", str(seed))
    while True:
        yield Op(argv, lambda out: (checker.verify(out, VERIFY_N), None))


def montecarlo_ops(seed: int, checker) -> Iterator[Op]:
    rng = random.Random(seed)
    while True:
        argv = ("montecarlo", "--n", str(MC_N), "--model", "gaussian",
                "--theta", str(MC_THETA), "--alpha", str(MC_ALPHA),
                "--trials", str(MC_TRIALS), "--seed", str(rng.randrange(2 ** 31)),
                "--format", "json")
        yield Op(argv, lambda out: checker.montecarlo(out, MC_N, MC_TRIALS,
                                                      MC_THETA, MC_ALPHA))


def analyze_ops(seed: int, checker) -> Iterator[Op]:
    """Blocks of one call per n in 2..7 in shuffled order, so n is uniform
    and every run holds the same mix.  From the second block on, one call
    per block repeats an earlier (literal, seed) of its n, whose stdout must
    be byte-identical to the first."""
    rng = random.Random(seed)
    earlier: dict[int, list[tuple[str, int]]] = {n: [] for n in ANALYZE_NS}
    while True:
        ns = list(ANALYZE_NS)
        rng.shuffle(ns)
        repeat = rng.choice(ns) if earlier[ns[0]] else None
        for n in ns:
            if n == repeat:
                literal, call_seed = rng.choice(earlier[n])
            else:
                bits = ["0" + "".join(rng.choice("01") for _ in range(n - 1))
                        for _ in range(2)]
                literal = f"P:{rng.choice('+-')}{bits[0]};S:{rng.choice('+-')}{bits[1]}"
                call_seed = rng.randrange(2 ** 31)
                earlier[n].append((literal, call_seed))
            yield Op(("analyze", literal, "--format", "json", "--seed", str(call_seed)),
                     lambda out, lit=literal, n=n: (checker.analyze(out, lit, n), None))


_PIPELINE = ("states.apply_gate", "states.state_from_label",
             "optics.detection_distribution", "kerr.attach_probes",
             "kerr.parity_gadget", "kerr.homodyne_measure",
             "kerr.magnitude_distribution", "protocols.stream",
             "protocols.sign_basis_transform", "cli.main")
_SAMPLED = _PIPELINE + ("optics.sample_outcome", "protocols.run_parity_stage",
                        "protocols.hgsa_n_analyze")

WORKLOADS = {
    "verify": Workload(verify_ops, 1, 1, _PIPELINE + ("protocols.verify_complete",)),
    "montecarlo": Workload(montecarlo_ops, 1, 1,
                           _SAMPLED + ("protocols.monte_carlo_misclassification",)),
    "analyze": Workload(analyze_ops, ANALYZE_BLOCKS * len(ANALYZE_NS),
                        len(ANALYZE_NS), _SAMPLED),
}


class Child(NamedTuple):
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_child(args: list[str], env: dict[str, str]) -> Child:
    """Run one interpreter to completion.  Its CPU time and peak RSS come
    from its own wait4 record, so no earlier child's high-water mark leaks
    into them (RUSAGE_CHILDREN keeps the maximum over all children)."""
    with open(WORK / "child.out", "w+b") as out, open(WORK / "child.err", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read().decode(), err.read().decode(), wall,
                     usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def median_child_wall(args: list[str], env: dict[str, str], repeats: int) -> float:
    walls = []
    for _ in range(repeats):
        child = run_child(args, env)
        if child.code != 0:
            raise RuntimeError(f"{args} exited {child.code}: {child.stderr.strip()}")
        walls.append(child.wall_s)
    return statistics.median(walls)


class Ledger:
    """Operations attempted and the problems of those that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]


class Determinism:
    """Identical arguments must give byte-identical stdout."""

    def __init__(self) -> None:
        self._first: dict[tuple[str, ...], str] = {}

    def check(self, argv: tuple[str, ...], stdout: str) -> list[str]:
        first = self._first.setdefault(argv, stdout)
        return [] if first == stdout else ["stdout differs from an earlier identical run"]


def check_op(op: Op, code: int, stdout: str, stderr: str,
             same: Determinism) -> tuple[list[str], tuple | None]:
    if code != 0:
        return [f"exit code {code}: {stderr.strip()[-300:]}"], None
    problems, tally = op.check(stdout)
    return problems + same.check(op.argv, stdout), tally


def timed_run(workload: Workload, ops: Iterator[Op], seconds: float,
              ledger: Ledger, env: dict[str, str]) -> tuple[dict, list[float], dict]:
    """Time CLI calls for about ``seconds``.

    Every PROBE_EVERY_S between calls, and at both ends, two program-free
    references sample the machine's current speed: a bare ``import numpy``
    (start-up) and ``reference.py`` (compute).  Start-up time is scaled by
    the start-up reference.  A call is scaled by a blend of the two, weighted
    by the share of the call the setup runs show to be start-up, so a slow
    phase of the machine does not read as a slow program.  Returns the
    metrics, the raw call wall times and the raw probe wall times."""
    probes = {"start": [], "compute": [], "setup": []}

    def probe() -> float:
        for name, args in (("start", ["-c", "import numpy"]),
                           ("compute", [str(BENCH / "reference.py")]),
                           ("setup", ["-c", SETUP])):
            child = run_child(args, env)
            ledger.record(name, [child.stderr.strip()[-300:]] if child.code else [])
            probes[name].append(child.wall_s)
        return time.perf_counter()

    same, children, tallies = Determinism(), [], []
    start = last_probe = probe()
    for op in ops:
        child = run_child(["-c", ENTRY, *op.argv], env)
        problems, tally = check_op(op, child.code, child.stdout, child.stderr, same)
        ledger.record(" ".join(op.argv), problems)
        children.append(child)
        if tally:
            tallies.append(tally)
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            last_probe = probe()
        done = len(children)
        remaining = seconds - (time.perf_counter() - start)
        if (done >= workload.minimum and done % workload.block == 0
                and remaining < statistics.median(c.wall_s for c in children)):
            break
    probe()
    if tallies:
        ledger.record("pooled Monte Carlo rate", checks.pooled_rate(tallies))

    walls = [c.wall_s for c in children]
    start_scale, compute_scale = (REF_S / statistics.median(probes[name])
                                  for name in ("start", "compute"))
    setup_s, call_s = statistics.median(probes["setup"]), statistics.median(walls)
    share = min(1.0, setup_s / call_s)
    call_scale = share * start_scale + (1.0 - share) * compute_scale
    return {
        "setup_s": (setup_s * start_scale, "s"),
        "call_p50_s": (call_s * call_scale, "s"),
        "cpu_s": (statistics.median(c.cpu_s for c in children) * call_scale, "s"),
        "peak_rss_mb": (max(c.rss_mb for c in children), "MB"),
    }, walls, probes


def call_main(main, argv: tuple[str, ...]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except Exception as exc:  # a crash fails this op; the run goes on
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = -1
    return code, out.getvalue(), err.getvalue()


def traced_run(workload: Workload, ops: list[Op], ledger: Ledger,
               env: dict[str, str], trace_file: Path) -> dict:
    interpreter_s = median_child_wall(["-c", "pass"], env, SETUP_REPEATS)
    import_s = median_child_wall(["-c", "import hypersa.cli"], env, SETUP_REPEATS)

    package = importlib.import_module("hypersa")
    cli = importlib.import_module("hypersa.cli")
    same, tallies, walls, tracers = Determinism(), [], [], []
    for label in ("untraced", "traced", "traced again"):
        tracer = Tracer() if label != "untraced" else None
        with tracer.installed(package) if tracer else contextlib.nullcontext():
            main = cli.main
            start = time.perf_counter()
            for op in ops:
                code, stdout, stderr = call_main(main, op.argv)
                problems, tally = check_op(op, code, stdout, stderr, same)
                ledger.record(f"{label} {' '.join(op.argv)}", problems)
                if tally and not tracer:
                    tallies.append(tally)
            walls.append(time.perf_counter() - start)
        if tracer:
            tracers.append(tracer)
    if tallies:
        ledger.record("pooled Monte Carlo rate", checks.pooled_rate(tallies))
    first, second = tracers
    counts, again = first.exact_counts(), second.exact_counts()
    ledger.record("exact counts repeat", [f"{name} {value} then {again[name]}"
                                          for name, value in counts.items()
                                          if again[name] != value])
    ledger.record("span wiring", [f"{name} never fired" for name in workload.spans
                                  if counts[f"{name}.calls"] == 0])

    self_s = first.self_seconds()
    metrics = {name: (value, "count") for name, value in counts.items()}
    metrics.update({f"{name}.self_s": (value, "s") for name, value in self_s.items()})
    metrics["cli.interpreter_s"] = (interpreter_s, "s")
    metrics["cli.import_s"] = (import_s - interpreter_s, "s")
    metrics["trace.overhead_frac"] = ((walls[1] - walls[0]) / walls[0], "ratio")
    metrics["trace.coverage"] = (sum(self_s.values()) / walls[1], "ratio")

    trace_file.parent.mkdir(parents=True, exist_ok=True)
    origin = first.spans[0][2] if first.spans else 0.0
    with open(trace_file, "w") as fh:
        json.dump({"metrics": metrics, "pass_wall_s": walls,
                   "span_fields": ["name", "parent", "start_s", "end_s"],
                   "spans": [[name, parent, start - origin, end - origin]
                             for name, parent, start, end in first.spans]}, fh)
    return metrics


def git_state() -> tuple[str | None, bool | None]:
    if not (ROOT / ".git").exists():
        return None, None
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                           capture_output=True, text=True).stdout.strip()
    return sha or None, bool(dirty)


def environment(args) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    sha, dirty = git_state()
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": numpy_version, "cpu_count": os.cpu_count(),
            "git_sha": sha, "git_dirty": dirty,
            "loadavg_start": list(os.getloadavg())}


def print_summary(workload: str, metrics: dict, walls: list[float],
                  probes: dict[str, list[float]], ledger: Ledger) -> None:
    """Human-readable lines: the raw, unscaled wall times under the names the
    project's notes use (verify_s, mc_trials_per_s, ...), then every metric."""
    if walls:
        for name in ("start", "compute"):
            print(f"reference_{name}_s {statistics.median(probes[name]):.6g} s  (raw, "
                  f"median of {len(probes[name])}; metrics in s are scaled to {REF_S} s)")
        count = f"(raw, {len(walls)} invocations)"
        if workload == "verify":
            print(f"verify_s {statistics.median(walls):.6g} s  {count}")
        if workload == "analyze":  # 102+ calls: at least ten lie beyond the p90
            p90 = statistics.quantiles(walls, n=10, method="inclusive")[8]
            print(f"analyze_p50_s {statistics.median(walls):.6g} s  {count}")
            print(f"analyze_p90_s {p90:.6g} s  {count}")
        if workload == "montecarlo":
            rate = statistics.median(MC_TRIALS / w for w in walls)
            print(f"mc_trials_per_s {rate:.6g} 1/s  "
                  f"(raw, median of {len(walls)} processes of {MC_TRIALS} trials)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_frac {ledger.failed / ledger.attempted:.6g}  "
          f"({ledger.failed} of {ledger.attempted} operations)")
    for problem in ledger.problems:
        print(f"FAIL {problem}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (SRC / "hypersa" / "cli.py").is_file():
        print(f"error: no hypersa sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    # HYPERSA_* variables default CLI flags; the inputs must be the seed's alone.
    for key in [k for k in os.environ if k.startswith("HYPERSA_")]:
        del os.environ[key]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = run_child(["-c", SETUP], env)
    if probe.code != 0 or Path(probe.stdout).resolve() != SRC / "hypersa" / "cli.py":
        print(f"error: the checkout's hypersa does not import cleanly: "
              f"{probe.stdout or probe.stderr.strip()}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    info = environment(args)
    workload = WORKLOADS[args.workload]
    ops = workload.ops(args.seed, checks.Checker(SRC / "hypersa" / "schemas"))
    ledger = Ledger()
    if args.trace:
        trace_file = WORK / "trace" / f"{args.workload}-seed{args.seed}.json"
        minimum = [next(ops) for _ in range(workload.minimum)]
        metrics, walls, probes = traced_run(workload, minimum, ledger, env,
                                            trace_file), [], {}
    else:
        metrics, walls, probes = timed_run(workload, ops, args.seconds, ledger, env)
    info["loadavg_end"] = list(os.getloadavg())

    print("env " + json.dumps(info))
    print_summary(args.workload, metrics, walls, probes, ledger)
    print(json.dumps({
        "correct": ledger.failed == 0, "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
