"""In-memory span tracing wrapped around calls into the repo's layers.

The benchmark never edits ``src/``: a :class:`Tracer` patches a layer's
public function or method for the duration of a traced run, records one
span (name, start, end, parent, trace id) per call, and restores the
original on :meth:`Tracer.restore`.  Spans stay in memory and are
written out once, when the run ends (:meth:`Tracer.dump`).

A span's *self time* is its duration minus the part of that interval
its child spans cover, so the self times of all spans partition the
traced wall time between the layers.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Union


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    trace: int                    # sid of the root span of this call tree

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(start: float, end: float,
            intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: s.duration - covered(s.start, s.end, children[s.sid])
            for s in spans}


Namer = Union[str, Callable[..., str]]


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[tuple[int, int, str]]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(entry[2] == name for entry in self._stack())

    @contextmanager
    def span(self, name: str):
        with self._lock:
            self._next += 1
            sid = self._next
        st = self._stack()
        parent, trace = (st[-1][0], st[-1][1]) if st else (None, sid)
        st.append((sid, trace, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            st.pop()
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent, trace))

    # -- patching ----------------------------------------------------------

    def wrap(self, owner: object, attr: str, name: Namer,
             on_result: Optional[Callable] = None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` is the span name, or a function of the call's arguments
        returning it.  ``on_result(result, *args, **kwargs)`` observes
        each return value (for counts taken where the work happens).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        func = original.__func__ if isinstance(original, staticmethod) \
            else original
        tracer = self

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with tracer.span(label):
                result = func(*args, **kwargs)
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        traced.__wrapped__ = func
        if isinstance(original, staticmethod):
            traced = staticmethod(traced)
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def wrap_everywhere(self, module: object, attr: str, name: Namer,
                        prefix: str = "repro",
                        on_result: Optional[Callable] = None) -> None:
        """Wrap a module-level function in its defining module and in
        every loaded ``prefix.*`` module that bound it by import."""
        import sys

        original = getattr(module, attr)
        for modname, mod in list(sys.modules.items()):
            if (modname == prefix or modname.startswith(prefix + ".")) \
                    and getattr(mod, attr, None) is original:
                self.wrap(mod, attr, name, on_result=on_result)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def by_name(self) -> dict[str, dict[str, float]]:
        """``{name: {"self_s", "total_s", "calls"}}`` over all spans."""
        selfs = self_times(self.spans)
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        for s in self.spans:
            row = out[s.name]
            row["self_s"] += selfs[s.sid]
            row["total_s"] += s.duration
            row["calls"] += 1
        return dict(out)

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "trace": s.trace,
                }) + "\n")
