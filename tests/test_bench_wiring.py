import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
