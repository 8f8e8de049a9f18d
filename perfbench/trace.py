"""In-memory tracing from the benchmark's side of each layer boundary.

The benchmark never edits the library: it wraps the objects and calls it
hands to each layer (a proxy around a shard endpoint, a wrapper around
``WaveletMatrix.rank``, ...).  Every wrapped call updates per-thread
totals ``[calls, total_s, self_s]``, where self time is the call's
duration minus the time of wrapped calls nested inside it on the same
thread.  Coarse boundaries (one per query and layer) additionally record
a span ``(id, name, start, end, parent, query_id, thread)``; the
high-frequency ones (rank, bind, leap: millions per run) are aggregated
only, because a span per call would cost more than the call.

Spans and totals stay in memory and are written out when the run ends.
A thread can suspend recording (the answer oracle does, so reference
evaluations are never attributed to the system under test).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator


class _ThreadState(threading.local):
    def __init__(self, tracer: "Tracer") -> None:
        self.stack: list[list] = []  # frames: [child_s, span_id]
        self.totals: dict[str, list] = {}
        self.spans: list[tuple] = []
        self.suspended = False
        # Register this thread's containers, not ``self``: attribute
        # reads on a thread-local resolve to the *reading* thread's copy.
        tracer._register(self.totals, self.spans)


class Tracer:
    """Wraps callables, patches attributes and aggregates what they cost."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._states: list[tuple[dict, list]] = []
        # A threading.local subclass re-runs __init__ with these
        # arguments in every thread that touches it.
        self._local = _ThreadState(self)
        self._patches: list[tuple[object, str, object]] = []
        self._next_id = 0
        self.query_id = None
        self.enabled = False

    def _register(self, totals: dict, spans: list) -> None:
        with self._lock:
            self._states.append((totals, spans))

    def _span_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn, span: bool = False):
        """``fn`` timed under ``name``; ``span=True`` also records spans."""
        local = self._local
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = local
            if state.suspended:
                return fn(*args, **kwargs)
            stack = state.stack
            parent = stack[-1][1] if stack else None
            sid = tracer._span_id() if span else parent
            frame = [0.0, sid]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                tot = state.totals.get(name)
                if tot is None:
                    tot = state.totals[name] = [0, 0.0, 0.0]
                tot[0] += 1
                tot[1] += elapsed
                tot[2] += elapsed - frame[0]
                if span:
                    state.spans.append(
                        (sid, name, start, end, parent, tracer.query_id,
                         threading.get_ident())
                    )

        traced.__wrapped__ = fn
        return traced

    def record(self, name: str, start: float, end: float) -> None:
        """Account an interval measured elsewhere (e.g. submit → done of a
        future) as a root span of the calling thread: it adds to the
        totals but is nobody's child."""
        if not self.enabled or self._local.suspended:
            return
        state = self._local
        tot = state.totals.get(name)
        if tot is None:
            tot = state.totals[name] = [0, 0.0, 0.0]
        tot[0] += 1
        tot[1] += end - start
        tot[2] += end - start
        state.spans.append(
            (self._span_id(), name, start, end, None, self.query_id,
             threading.get_ident())
        )

    def patch(self, owner, attr: str, name: str, span: bool = False) -> None:
        """Replace ``owner.attr`` (a class or an instance) by its traced
        wrapper until :meth:`unpatch_all`."""
        own = vars(owner).get(attr)
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), span))
        self._patches.append((owner, attr, own))

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is not None:
                setattr(owner, attr, own)
            else:
                delattr(owner, attr)

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """This thread's calls are not recorded inside the block."""
        self._local.suspended = True
        try:
            yield
        finally:
            self._local.suspended = False

    # -- reading -------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """``{name: {calls, total_s, self_s}}`` summed over threads."""
        out: dict[str, dict[str, float]] = {}
        with self._lock:
            states = list(self._states)
        for totals, _spans in states:
            for name, (calls, total, own) in list(totals.items()):
                agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                agg["calls"] += calls
                agg["total_s"] += total
                agg["self_s"] += own
        return out

    def spans(self) -> list[dict]:
        with self._lock:
            states = list(self._states)
        rows = [s for _totals, spans in states for s in list(spans)]
        rows.sort(key=lambda s: s[2])
        keys = ("id", "name", "start", "end", "parent", "query_id", "thread")
        return [dict(zip(keys, s)) for s in rows]
