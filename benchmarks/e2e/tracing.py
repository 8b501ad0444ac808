"""Span tracer of the end-to-end benchmark.

The tracer lives in the benchmark, not in ``src/``: :meth:`Tracer.wrap`
replaces a public entry point of a layer *on the live instance* with a
wrapper that records one span per call — ``[name, start, end, parent,
request, counted, amount]`` — into an in-memory list per thread (``layers.py``
says which entry points).  A layer's self time is its spans' duration minus
the part their child spans cover, so the self times under one harness root
span add up to that root's duration exactly.

Only spans under a harness root (a ``bench.*`` span opened with
:meth:`Tracer.root`) are reported: output checks call the same wrapped entry
points from outside any root, and their spans are not the workload's.

Generator entry points (``WarehouseTable.scan_columns``) get one span per
resumption: the consumer's time between two blocks is not the scan's.  Only
the first resumption is ``counted`` as a call.
"""

from __future__ import annotations

import inspect
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Iterator

NAME, START, END, PARENT, REQUEST, COUNTED, AMOUNT = range(7)
ROOT_PREFIX = "bench."

#: ``amount(args, kwargs, result)`` — the work one call did, in the layer's
#: own unit (bytes, rows, records).
Amount = Callable[[tuple, dict, Any], float]


class _ThreadTrace:
    """The spans one thread recorded; parents index into the same list."""

    def __init__(self, thread_name: str) -> None:
        self.thread_name = thread_name
        self.spans: list[list[Any]] = []
        self.stack: list[int] = []
        self.request: Any = None

    def open(self, name: str, counted: bool = True) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.request, counted, 0])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        self.stack.pop()

    def reported(self) -> list[bool]:
        """Per span: does it sit under a harness root?"""
        out: list[bool] = []
        for span in self.spans:
            parent = span[PARENT]
            out.append(out[parent] if parent >= 0 else span[NAME].startswith(ROOT_PREFIX))
        return out


class Tracer:
    """Collects spans from every thread that calls a wrapped entry point."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: list[_ThreadTrace] = []

    def thread_trace(self) -> _ThreadTrace:
        trace = getattr(self._local, "trace", None)
        if trace is None:
            trace = _ThreadTrace(threading.current_thread().name)
            self._local.trace = trace
            with self._lock:
                self.threads.append(trace)
        return trace

    # ------------------------------------------------------------- recording

    def root(self, name: str, request: Any) -> "_RootSpan":
        """A harness span around one request/batch; children inherit ``request``."""
        return _RootSpan(self.thread_trace(), ROOT_PREFIX + name, request)

    def wrap(self, owner: Any, attr: str, name: str, amount: Amount | None = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper named ``name``."""
        func = getattr(owner, attr)
        thread_trace = self.thread_trace

        if inspect.isgeneratorfunction(func):
            def traced_generator(*args: Any, **kwargs: Any) -> Iterator[Any]:
                iterator = func(*args, **kwargs)
                counted = True
                while True:
                    trace = thread_trace()
                    index = trace.open(name, counted)
                    counted = False
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        trace.close(index)
                    yield item

            setattr(owner, attr, traced_generator)
            return

        def traced(*args: Any, **kwargs: Any) -> Any:
            trace = thread_trace()
            index = trace.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                trace.close(index)
            if amount is not None:
                trace.spans[index][AMOUNT] = amount(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    # ------------------------------------------------------------- reporting

    def self_times(self) -> list[tuple[_ThreadTrace, list[float]]]:
        """Per thread, each span's duration minus its children's durations."""
        out = []
        for trace in self.threads:
            self_s = [span[END] - span[START] for span in trace.spans]
            for span in trace.spans:
                if span[PARENT] >= 0:
                    self_s[span[PARENT]] -= span[END] - span[START]
            out.append((trace, self_s))
        return out

    def by_name(self) -> dict[str, dict[str, float]]:
        """``{span name: {"calls", "self_s", "amount"}}`` over the reported spans."""
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "amount": 0}
        )
        for trace, self_s in self.self_times():
            for span, own, reported in zip(trace.spans, self_s, trace.reported()):
                if not reported:
                    continue
                entry = totals[span[NAME]]
                entry["calls"] += 1 if span[COUNTED] else 0
                entry["self_s"] += own
                entry["amount"] += span[AMOUNT]
        return totals

    def dump(self) -> list[dict[str, Any]]:
        """Every span as a JSON-friendly dict (``parent`` is a global index)."""
        out: list[dict[str, Any]] = []
        for trace in self.threads:
            base = len(out)
            for span in trace.spans:
                out.append({
                    "name": span[NAME],
                    "start": span[START],
                    "end": span[END],
                    "parent": base + span[PARENT] if span[PARENT] >= 0 else None,
                    "request": span[REQUEST],
                    "thread": trace.thread_name,
                })
        return out

    def check(self) -> list[str]:
        """Structural problems of the span forest (empty when well formed)."""
        problems: list[str] = []
        for trace, self_s in self.self_times():
            where = trace.thread_name
            if trace.stack:
                problems.append(f"{where}: {len(trace.stack)} span(s) never closed")
            root_total = 0.0
            for index, (span, own) in enumerate(zip(trace.spans, self_s)):
                if not -1 <= span[PARENT] < index:
                    problems.append(f"{where}: span {index} has no parent {span[PARENT]}")
                if span[END] < span[START]:
                    problems.append(f"{where}: span {index} ends before it starts")
                # perf_counter is monotonic, so a child can overrun its parent
                # only by float rounding.
                if own < -1e-6:
                    problems.append(f"{where}: span {index} {span[NAME]} self time {own}")
                if span[PARENT] < 0:
                    root_total += span[END] - span[START]
            if abs(sum(self_s) - root_total) > 0.02 * root_total:
                problems.append(f"{where}: self times sum to {sum(self_s)}, roots to {root_total}")
        return problems


class _RootSpan:
    """``with tracer.root(name, request):`` — tags child spans with the request."""

    def __init__(self, trace: _ThreadTrace, name: str, request: Any) -> None:
        self.trace, self.name, self.request = trace, name, request

    def __enter__(self) -> None:
        self.outer_request = self.trace.request
        self.trace.request = self.request
        self.index = self.trace.open(self.name)

    def __exit__(self, *exc_info: Any) -> None:
        self.trace.close(self.index)
        self.trace.request = self.outer_request


class NullTracer:
    """The untraced run: ``root`` is one shared no-op context manager."""

    def root(self, name: str, request: Any) -> "NullTracer":
        return self

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> None:
        return None
