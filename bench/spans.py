"""In-process tracing of the hypersa layers, done from outside the package.

Each traced function is replaced by a timing wrapper in every module
namespace that holds it, because callers look functions up by the name
they imported (``protocols`` does ``from .kerr import parity_gadget``,
``optics`` does ``from .states import apply_gate``).  Patching only the
defining module would miss those calls.  Nothing under ``src/`` changes:
the originals are put back when the traced pass ends.

A span is ``[name, parent index, start, end]`` with ``perf_counter``
times; spans stay in memory and are written out once the run is over.
A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from types import ModuleType

# Traced functions by layer, each with the counters recorded at its boundary.
# A counter is (metric name, function of (args, result) -> int).
SPANS: dict[str, tuple] = {
    "states.apply_gate": (("states.apply_gate.kets_in", lambda a, r: len(a[0])),),
    "states.state_from_label": (),
    "optics.detection_distribution": (
        ("optics.detection_distribution.outcomes", lambda a, r: len(r)),),
    "optics.sample_outcome": (),
    "kerr.attach_probes": (),
    "kerr.parity_gadget": (("kerr.parity_gadget.branches_in", lambda a, r: len(a[0])),),
    "kerr.homodyne_measure": (),
    "kerr.magnitude_distribution": (),
    "protocols.stream": (),
    "protocols.sign_basis_transform": (),
    "protocols.run_parity_stage": (),
    "protocols.hgsa_n_analyze": (),
    "protocols.verify_complete": (
        ("protocols.branches_walked",
         lambda a, r: sum(check.branches for check in r.per_state)),),
    "protocols.monte_carlo_misclassification": (),
    "cli.main": (),
}

COUNTERS = [name for counters in SPANS.values() for name, _ in counters]


class Tracer:
    """Spans and boundary counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counters):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            for metric, count in counters:
                counts[metric] += count(args, result)
            return result

        return traced

    @contextmanager
    def installed(self, package: ModuleType):
        """Wrap every function in SPANS wherever the package binds it."""
        modules = [package] + [getattr(package, layer)
                               for layer in ("states", "optics", "kerr", "protocols", "cli")]
        saved = []
        try:
            for name, counters in SPANS.items():
                layer, attr = name.split(".")
                original = getattr(getattr(package, layer), attr)
                wrapper = self.wrap(name, original, counters)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            saved.append((module, key, original))
                            setattr(module, key, wrapper)
            yield
        finally:
            for module, key, original in saved:
                setattr(module, key, original)

    def exact_counts(self) -> dict[str, int]:
        """Calls per span plus every boundary counter; these must repeat
        exactly for the same inputs."""
        calls = Counter(span[0] for span in self.spans)
        out = {f"{name}.calls": calls[name] for name in SPANS}
        out.update({metric: self.counts[metric] for metric in COUNTERS})
        return out

    def self_seconds(self) -> dict[str, float]:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(SPANS, 0.0)
        for (name, _, start, end), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return out
