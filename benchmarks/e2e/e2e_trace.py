"""In-memory span tracer for the end-to-end benchmark (stdlib only).

The tracer observes the program from the outside.  It wraps public
callables *where they are looked up*: ``from x import y`` binds ``y`` in
the importing module, so wrapping the defining module would miss those
calls.  :meth:`Tracer.unwrap` restores every original.

A span records its name, start, end, parent span and thread; spans of
one serve request also carry the request id.  Spans stay in memory and
are written once, as Chrome trace-event JSON (opens in Perfetto or
``chrome://tracing``), when the run ends.  A layer's *self time* is its
spans' duration minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Span", "Tracer", "nesting_errors"]

#: ``after(tracer, args, kwargs, result)`` -- counts taken at a boundary.
AfterHook = Callable[["Tracer", tuple, dict, Any], None]


@dataclass(frozen=True)
class Span:
    """One timed interval.  ``thread`` is ``None`` for spans that start
    and end on different threads (a serve request: sent by the load
    generator, completed by the cluster's collector)."""

    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    root: int  # the top-level span this one descends from (itself, if top-level)
    thread: Optional[int]
    request: Optional[int] = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Collects spans and boundary counts; installs and removes wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.epoch_ns = time.perf_counter_ns()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._wrapped: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[Tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: int = 1) -> None:
        """Add to a boundary count from any thread."""
        with self._lock:
            self.counts[key] += amount

    def new_id(self) -> int:
        """Reserve a span id (for a span recorded later with :meth:`add`)."""
        return next(self._ids)

    @contextmanager
    def span(self, name: str, *, request: Optional[int] = None,
             parent: Optional[int] = None) -> Iterator[int]:
        """Time the ``with`` body as a child of this thread's open span.

        ``parent`` instead names a cross-thread span reserved with
        :meth:`new_id` and recorded later by :meth:`add` (a serve request
        whose ``submit`` call this is).
        """
        stack = self._stack()
        span_id = next(self._ids)
        if parent is not None:
            root = parent
        elif stack:
            parent, root = stack[-1]
        else:
            root = span_id
        stack.append((span_id, root))
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, root,
                                   threading.get_ident(), request))

    def add(self, name: str, start_ns: int, end_ns: int, *, span_id: Optional[int] = None,
            request: Optional[int] = None) -> int:
        """Record a top-level span that starts and ends on different threads."""
        span_id = next(self._ids) if span_id is None else span_id
        self.spans.append(Span(span_id, name, start_ns, end_ns, None, span_id, None, request))
        return span_id

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str,
             after: Optional[AfterHook] = None) -> None:
        """Replace ``owner.attr`` with a spanned wrapper until :meth:`unwrap`.

        ``owner`` is the module or class the callers look the name up in;
        on a class the plain function is wrapped, so it still binds as a
        method.
        """
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._wrapped.append((owner, attr, original))

    def unwrap(self) -> None:
        """Restore every wrapped callable (last wrapped, first restored)."""
        while self._wrapped:
            owner, attr, original = self._wrapped.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def roots(self, name: str) -> List[Span]:
        """Top-level spans called ``name``."""
        return [s for s in self.spans if s.name == name and s.parent is None]

    def self_time_ns(self, root: str) -> Tuple[int, Dict[str, int]]:
        """Total duration of the ``root`` spans and, per span name, the
        self time of every span beneath them (the roots included)."""
        roots = {s.span_id: s.duration_ns for s in self.roots(root)}
        children_ns: Dict[int, int] = defaultdict(int)
        for s in self.spans:
            if s.parent is not None:
                children_ns[s.parent] += s.duration_ns
        self_ns: Dict[str, int] = defaultdict(int)
        for s in self.spans:
            if s.root in roots:
                self_ns[s.name] += s.duration_ns - children_ns[s.span_id]
        return sum(roots.values()), dict(self_ns)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def chrome_events(self) -> List[Dict[str, Any]]:
        """Chrome trace events: complete events for same-thread spans,
        async begin/end pairs (keyed by request id) for cross-thread ones."""
        pid = os.getpid()
        events: List[Dict[str, Any]] = []
        for s in sorted(self.spans, key=lambda s: s.start_ns):
            ts = (s.start_ns - self.epoch_ns) / 1000.0
            args = {"span": s.span_id, "parent": s.parent, "request": s.request}
            if s.thread is None:
                common = {"name": s.name, "cat": "request", "id": s.request, "pid": pid,
                          "tid": 0}
                events.append({**common, "ph": "b", "ts": ts, "args": args})
                events.append({**common, "ph": "e", "ts": (s.end_ns - self.epoch_ns) / 1000.0})
            else:
                events.append({"name": s.name, "ph": "X", "ts": ts,
                               "dur": s.duration_ns / 1000.0, "pid": pid,
                               "tid": s.thread, "args": args})
        return events

    def write_chrome(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": self.chrome_events(), "displayTimeUnit": "ms"}, handle)


def nesting_errors(events: List[Dict[str, Any]]) -> List[str]:
    """Problems with span nesting in a Chrome trace written by :class:`Tracer`.

    Every span with a parent must lie inside its parent's interval, and a
    same-thread parent must be on the same thread.  Request ids must be
    unique within the trace.
    """
    ends = {e["id"]: e["ts"] for e in events if e["ph"] == "e"}
    spans: Dict[int, Tuple[float, float, Any]] = {}
    for event in events:
        if event["ph"] == "X":
            spans[event["args"]["span"]] = (
                event["ts"], event["ts"] + event["dur"], event["tid"]
            )
        elif event["ph"] == "b":
            spans[event["args"]["span"]] = (event["ts"], ends[event["id"]], None)
    errors = []
    slack = 1e-3  # microseconds: float rounding of the ns -> us conversion
    for event in events:
        if event["ph"] != "X" or event["args"]["parent"] is None:
            continue
        child = spans[event["args"]["span"]]
        parent = spans.get(event["args"]["parent"])
        if parent is None:
            errors.append(f"{event['name']}: parent {event['args']['parent']} missing")
        elif child[0] < parent[0] - slack or child[1] > parent[1] + slack:
            errors.append(f"{event['name']}: outside its parent span")
        elif parent[2] is not None and parent[2] != child[2]:
            errors.append(f"{event['name']}: parent on another thread")
    return errors
