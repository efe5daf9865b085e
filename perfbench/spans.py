"""In-memory span recorder for the traced run.

Spans are recorded only around calls the benchmark makes into the program's
public functions and modules, by wrapping *instances* in the benchmark
process (``module.forward``, ``model.encode_blocks``, ...); the program
itself carries no tracing.  A span is ``(id, parent, name, start, end,
request id, scope)``, where the scope names the model or process that ran
it; its layer is the part of its name before the first dot.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

#: Layers of the program, in the order the per-layer table lists them.
#: ``bench`` is the benchmark's own code between traced calls.
LAYERS = ("serve", "isa", "graph", "gnn", "nn", "models", "training", "bench")


class Tracer:
    """Records nested spans; a disabled tracer costs one flag check per call.

    The parent of a span is the innermost open span of the same thread.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.enabled = False
        self.spans: List[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        #: Recorded with every span; set it before calling into one model.
        self.scope = ""
        #: Counters recorded next to spans (e.g. GEMM flops), per scope.
        self.counters: Dict[tuple, float] = defaultdict(float)

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    @contextmanager
    def span(self, name: str, request_id: Optional[str] = None):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        span_id = self._new_id()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append(
                (span_id, parent, name, start, end, request_id, self.scope)
            )

    def record(self, name: str, start: float, end: float,
               request_id: Optional[str] = None) -> None:
        """Adds a finished root span measured by the caller."""
        if self.enabled:
            self.spans.append(
                (self._new_id(), None, name, start, end, request_id, self.scope)
            )

    def wrap(self, function: Callable, name: str) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            with self.span(name):
                return function(*args, **kwargs)

        return traced

    def count(self, name: str, amount: float) -> None:
        """Adds to the counter ``name`` of the current scope."""
        if self.enabled:
            self.counters[(self.scope, name)] += amount



def write_spans(spans: Iterable[tuple], path: Path) -> None:
    """Writes spans as JSON lines (one span per line)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span_id, parent, name, start, end, request_id, scope in spans:
            handle.write(json.dumps({
                "id": span_id, "parent": parent, "name": name,
                "start": start, "end": end, "request_id": request_id,
                "scope": scope,
            }) + "\n")


def in_scope(spans: Iterable[tuple], scope: str) -> List[tuple]:
    return [span for span in spans if span[6] == scope]


def self_times(spans: Iterable[tuple]) -> Dict[str, float]:
    """Total self time per span name, in seconds."""
    spans = list(spans)
    child_time: Dict[int, float] = defaultdict(float)
    for _, parent, _, start, end, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for span_id, _, name, start, end, _, _ in spans:
        totals[name] += (end - start) - child_time[span_id]
    return dict(totals)


def inclusive_times(spans: Iterable[tuple]) -> Dict[str, float]:
    """Total duration per span name, in seconds (nested repeats counted)."""
    totals: Dict[str, float] = defaultdict(float)
    for _, _, name, start, end, _, _ in spans:
        totals[name] += end - start
    return dict(totals)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_self_ms(by_name: Dict[str, float], operations: int) -> Dict[str, float]:
    """Self time per layer per operation, in ms (every layer present)."""
    per_layer = {layer: 0.0 for layer in LAYERS}
    for name, seconds in by_name.items():
        per_layer[layer_of(name)] += seconds * 1e3 / operations
    return per_layer


def format_table(spans: Iterable[tuple], operations: int, unit: str) -> str:
    """The per-layer self-time table: one row per span name, then layers."""
    by_name = self_times(spans)
    total = sum(by_name.values())
    rows = [f"{'span':<28}{'self ms/' + unit:>16}{'share':>9}"]
    for name, seconds in sorted(by_name.items(), key=lambda item: -item[1]):
        rows.append(
            f"{name:<28}{seconds * 1e3 / operations:>16.3f}"
            f"{seconds / total if total else 0.0:>9.1%}"
        )
    rows.append("-" * 53)
    for layer, ms in layer_self_ms(by_name, operations).items():
        rows.append(f"{'layer ' + layer:<28}{ms:>16.3f}"
                    f"{ms * operations / 1e3 / total if total else 0.0:>9.1%}")
    return "\n".join(rows)


def trace_metrics(spans: List[tuple], untraced: List[float],
                  traced: List[float]) -> Dict[str, float]:
    """Per-layer self time per operation, and the cost of tracing itself.

    ``untraced`` and ``traced`` are operation durations (seconds) of the
    same workload with the tracer off and on.
    """
    by_name = self_times(spans)
    metrics = {
        f"self.{layer}_ms": ms
        for layer, ms in layer_self_ms(by_name, len(traced)).items()
    }
    untraced_ms = sum(untraced) / len(untraced) * 1e3
    traced_ms = sum(traced) / len(traced) * 1e3
    metrics["trace.untraced_op_ms"] = untraced_ms
    metrics["trace.op_ms"] = traced_ms
    metrics["trace.overhead_pct"] = (traced_ms / untraced_ms - 1.0) * 100.0
    metrics["trace.spans"] = float(len(spans))
    return metrics
