import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import hypersa
from hypersa import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS_PATH = BENCH / "spans.py"


def test_every_traced_span_names_a_package_function(monkeypatch):
    # the benchmark looks each span up by name and counts one that never
    # fires as a failed operation, so a deleted function must fail here
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SPANS
    for name in spans.SPANS:
        layer, func = name.split(".")
        module = importlib.import_module(f"hypersa.{layer}")
        assert inspect.isfunction(getattr(module, func, None)), name


@pytest.fixture
def bench_run(monkeypatch):
    """``bench/run.py`` loaded read-only, with its sibling modules importable."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    siblings = ("checks", "spans")
    saved = {name: sys.modules.pop(name) for name in siblings if name in sys.modules}
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        yield run
    finally:
        for name in siblings:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


@pytest.mark.parametrize("workload, argv", [
    ("verify", ("verify", "--n", "2")),
    ("montecarlo", ("montecarlo", "--n", "2", "--model", "gaussian", "--trials", "20")),
    ("analyze", ("analyze", "P:+00;S:-01", "--format", "json")),
])
def test_workload_spans_fire(bench_run, workload, argv):
    # a fast path that bypasses a traced function (apply_gate, stream, ...)
    # would fail the benchmark's span-wiring check; catch it here instead
    tracer = bench_run.Tracer()
    with tracer.installed(hypersa):
        code, _, stderr = bench_run.call_main(cli.main, argv)
    assert code == 0, stderr
    calls = tracer.exact_counts()
    silent = [name for name in bench_run.WORKLOADS[workload].spans
              if calls[f"{name}.calls"] == 0]
    assert not silent, f"spans never fired: {silent}"
