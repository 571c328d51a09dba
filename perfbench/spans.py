"""In-memory span recorder installed around the program's public functions.

A :class:`Tracer` replaces a function (``module:name``) or a method
(``module:Class.name``) with a wrapper that times each call.  Every
thread keeps its own stack of open spans, so a span's *self time* is its
duration minus the durations of its direct children, and self times of
all layers add up to the traced time without double counting.

Per-name aggregates (calls, inclusive seconds, self seconds) are kept
for every call.  Individual spans — name, start, end, parent, request
id — are kept up to ``span_cap`` per name, so that a traced suite round
(millions of calls) stays within a few megabytes; they are written at
the end as Chrome trace-event JSON, which Perfetto opens.

``count`` targets are only counted: their time stays in the caller's
self time.  They are the per-event hot paths (heap pushes, bus
publishes) where a timer would cost more than the work.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from typing import Any, Callable, Optional


def resolve(target: str) -> tuple[Any, str, Any]:
    """``module:attr`` or ``module:Class.attr`` -> (owner, attr, current value)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    if isinstance(owner, type):
        if attr not in owner.__dict__:
            raise AttributeError(f"{target}: not defined on {owner.__name__} itself")
        value = owner.__dict__[attr]
    else:
        value = getattr(owner, attr)
    if not callable(value):
        raise TypeError(f"{target} is not a plain function")
    return owner, attr, value


class _ThreadState:
    __slots__ = ("tid", "stack", "stats", "counts", "spans", "kept", "next_id")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        #: open spans: [child seconds, span id]
        self.stack: list[list] = []
        #: name -> [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        #: (name, start, end, span id, parent id, request id)
        self.spans: list[tuple] = []
        self.kept: dict[str, int] = {}
        self.next_id = 0


class Tracer:
    """Wraps functions, records spans and counters, restores on exit."""

    def __init__(self, span_cap: int = 2000) -> None:
        self.span_cap = span_cap
        self.origin = time.perf_counter()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Per-thread state
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.get_ident())
            with self._lock:
                self._states.append(state)
            self._local.state = state
            return state

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def timed(
        self,
        name: str,
        fn: Callable,
        rid_of: Optional[Callable[[Any], Any]] = None,
        tag_of: Optional[Callable[[Any], str]] = None,
    ) -> Callable:
        """``fn`` wrapped in a span; ``rid_of``/``tag_of`` read its result."""
        tracer = self
        clock = time.perf_counter
        cap = self.span_cap

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            span_id = state.next_id
            state.next_id = span_id + 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                stat = state.stats.get(name)
                if stat is None:
                    stat = state.stats[name] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if tag_of is not None and result is not None:
                    tag = f"{name}.{tag_of(result)}"
                    state.counts[tag] = state.counts.get(tag, 0) + 1
                kept = state.kept.get(name, 0)
                if kept < cap:
                    state.kept[name] = kept + 1
                    rid = rid_of(result) if rid_of is not None and result is not None else None
                    state.spans.append((name, start, end, span_id, parent, rid))

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = tracer._state().counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, layers) -> "Tracer":
        """Patch every target of every :class:`~layers.Layer` in ``layers``."""
        resolved = [(layer, resolve(target)) for layer in layers for target in layer.targets]
        for layer, (owner, attr, original) in resolved:
            if layer.count_only:
                wrapped = self.counted(layer.name, original)
            else:
                wrapped = self.timed(layer.name, original, layer.rid_of, layer.tag_of)
            setattr(owner, attr, wrapped)
            self._patched.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def totals(self) -> dict[str, Any]:
        """Merged stats and counters over every thread seen so far."""
        stats: dict[str, list] = {}
        counts: dict[str, int] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, total, own) in state.stats.items():
                merged = stats.setdefault(name, [0, 0.0, 0.0])
                merged[0] += calls
                merged[1] += total
                merged[2] += own
            for name, value in state.counts.items():
                counts[name] = counts.get(name, 0) + value
        return {
            "stats": {name: {"calls": c, "total_s": t, "self_s": s} for name, (c, t, s) in stats.items()},
            "counts": counts,
        }

    def spans(self) -> list[dict[str, Any]]:
        """Kept spans as plain dicts (seconds since the tracer started)."""
        with self._lock:
            states = list(self._states)
        out = []
        for state in states:
            for name, start, end, span_id, parent, rid in state.spans:
                out.append({
                    "name": name, "tid": state.tid,
                    "start": start - self.origin, "end": end - self.origin,
                    "id": span_id, "parent": parent, "rid": rid,
                })
        return out

    def dump(self, path: str) -> None:
        """Write stats, counters and spans as JSON (the launcher's hand-off)."""
        payload = {**self.totals(), "spans": self.spans()}
        write_json(path, payload)


def write_json(path: str, payload: Any) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)


def chrome_trace(process_spans: dict[str, list[dict[str, Any]]], counters: dict[str, Any]) -> dict:
    """Chrome trace-event JSON: one process lane per span source."""
    events: list[dict[str, Any]] = []
    for pid, (label, spans) in enumerate(sorted(process_spans.items()), start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid, "args": {"name": label}})
        for span in spans:
            args = {"id": span["id"], "parent": span["parent"]}
            if span["rid"] is not None:
                args["rid"] = span["rid"]
            events.append({
                "name": span["name"], "cat": span["name"].split(".")[0], "ph": "X",
                "ts": round(span["start"] * 1e6, 3),
                "dur": round((span["end"] - span["start"]) * 1e6, 3),
                "pid": pid, "tid": span["tid"], "args": args,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": counters}
