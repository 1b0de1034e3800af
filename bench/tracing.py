"""Layer tracing from outside the program.

The tracer rebinds fedsel's public functions at each module boundary to
wrappers that record one span per call: name, start, end, thread and the span
that caused it. Every ``fedsel.*`` namespace that imported a function by name
gets the wrapper, so calls between modules (``orchestrator`` calling
``strategies.run_local``) and inside one (``nn.train_epoch`` calling
``nn.loss_and_gradient``) are both seen. Spans stay in memory while a unit
runs; ``layer_metrics`` turns them into per-layer counts and times.

Client threads do not inherit the caller's stack, so the first span on a
thread other than the main one takes the innermost open main-thread span as
its parent. Self time is a span's duration minus the union of its children's
intervals, which stays right when children on several threads overlap.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

# (module, function) pairs wrapped at the boundary. A pair that no longer
# exists is skipped, and its metrics read 0.
WRAPPED = (
    ("nn", "loss_and_gradient"),
    ("nn", "sgd_momentum_step"),
    ("nn", "train_epoch"),
    ("nn", "forward"),
    ("nn", "cross_entropy_loss"),
    ("strategies", "evaluate"),
    ("strategies", "mean_correct_confidence"),
    ("strategies", "run_local"),
    ("orchestrator", "run_federation"),
    ("orchestrator", "run_centralized"),
    ("aggregation", "aggregate"),
    ("aggregation", "aggregate_metrics"),
    ("reporting", "run_comparison"),
    ("data", "make_dataset"),
)

# Per-layer metrics in report order, with their units.
LAYER_METRICS = {
    "nn.step_calls": "count",
    "nn.step_s": "s",
    "nn.train_epoch_calls": "count",
    "nn.train_epoch_s": "s",
    "nn.train_epoch_self_s": "s",
    "nn.train_samples": "count",
    "nn.eval_forward_calls": "count",
    "strategies.evaluate_calls": "count",
    "strategies.evaluate_s": "s",
    "strategies.confidence_s": "s",
    "strategies.run_local_calls": "count",
    "strategies.run_local_s": "s",
    "orchestrator.run_federation_s": "s",
    "orchestrator.run_federation_self_s": "s",
    "orchestrator.run_centralized_s": "s",
    "orchestrator.run_centralized_self_s": "s",
    "aggregation.aggregate_s": "s",
    "aggregation.aggregate_metrics_s": "s",
    "reporting.run_comparison_s": "s",
    "reporting.run_comparison_self_s": "s",
    "data.make_dataset_s": "s",
    "bench.trace_overhead_s": "s",
    "bench.wall_s": "s",
    "bench.cpu_s": "s",
    "bench.reference_wall_s": "s",
}


def _train_rows(args: tuple, kwargs: dict) -> int:
    """Rows of ``train_x`` in a ``train_epoch(params, spec, state, train_x, ...)`` call."""
    x = kwargs["train_x"] if "train_x" in kwargs else args[3] if len(args) > 3 else None
    return len(x) if hasattr(x, "__len__") else 0


class Span:
    __slots__ = ("name", "parent", "thread", "start", "end", "rows")

    def __init__(self, name: str, parent: "Span | None", thread: int):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0
        self.rows = 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.recording = False
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._thread_ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            if threading.current_thread() is threading.main_thread():
                stack = self._main_stack
                self._local.thread = 0
            else:
                stack = []
                self._local.thread = next(self._thread_ids)
            self._local.stack = stack
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        rows = _train_rows if name == "nn.train_epoch" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main and stack is not main else None
            span = Span(name, parent, tracer._local.thread)
            if rows is not None:
                span.rows = rows(args, kwargs)
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return wrapper

    def install(self) -> None:
        """Rebind every wrapped function wherever a fedsel module holds it."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "fedsel" or n.startswith("fedsel."))
        ]
        for module_name, func_name in WRAPPED:
            try:
                home = importlib.import_module(f"fedsel.{module_name}")
            except ImportError:
                continue
            original = getattr(home, func_name, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times for one traced unit. Every metric of
    LAYER_METRICS except the ``bench.*`` ones is present, 0 when its
    function is missing or was never called."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            children[id(span.parent)].append(span)

    def calls(name: str) -> int:
        return len(by_name[name])

    def busy(name: str) -> float:
        return sum(s.end - s.start for s in by_name[name])

    def self_time(name: str) -> float:
        total = 0.0
        for s in by_name[name]:
            kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children[id(s)]]
            total += (s.end - s.start) - _union_length(kids)
        return total

    return {
        "nn.step_calls": max(calls("nn.loss_and_gradient"), calls("nn.sgd_momentum_step")),
        "nn.step_s": busy("nn.loss_and_gradient") + busy("nn.sgd_momentum_step"),
        "nn.train_epoch_calls": calls("nn.train_epoch"),
        "nn.train_epoch_s": busy("nn.train_epoch"),
        "nn.train_epoch_self_s": self_time("nn.train_epoch"),
        "nn.train_samples": sum(s.rows for s in by_name["nn.train_epoch"]),
        "nn.eval_forward_calls": calls("nn.forward") + calls("nn.cross_entropy_loss"),
        "strategies.evaluate_calls": calls("strategies.evaluate"),
        "strategies.evaluate_s": busy("strategies.evaluate"),
        "strategies.confidence_s": busy("strategies.mean_correct_confidence"),
        "strategies.run_local_calls": calls("strategies.run_local"),
        "strategies.run_local_s": busy("strategies.run_local"),
        "orchestrator.run_federation_s": busy("orchestrator.run_federation"),
        "orchestrator.run_federation_self_s": self_time("orchestrator.run_federation"),
        "orchestrator.run_centralized_s": busy("orchestrator.run_centralized"),
        "orchestrator.run_centralized_self_s": self_time("orchestrator.run_centralized"),
        "aggregation.aggregate_s": busy("aggregation.aggregate"),
        "aggregation.aggregate_metrics_s": busy("aggregation.aggregate_metrics"),
        "reporting.run_comparison_s": busy("reporting.run_comparison"),
        "reporting.run_comparison_self_s": self_time("reporting.run_comparison"),
        "data.make_dataset_s": busy("data.make_dataset"),
    }


def spans_to_json(spans: list[Span]) -> dict:
    """JSON-ready spans, one row each, times in seconds from the first start."""
    origin = min((s.start for s in spans), default=0.0)
    index = {id(s): i for i, s in enumerate(spans)}
    return {
        "fields": ["name", "parent", "thread", "start_s", "end_s"],
        "spans": [
            [s.name, index.get(id(s.parent)), s.thread, s.start - origin, s.end - origin]
            for s in spans
        ],
    }
