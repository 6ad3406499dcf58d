"""Span tracing from outside the program.

A :class:`Tracer` replaces public functions and methods of ``repro`` modules
with wrappers that record one span per call: name, start, end, parent span
and operation id.  Nothing inside ``src/`` changes; :meth:`Tracer.restore`
puts every original back.  The current span lives in a :mod:`contextvars`
variable, so asyncio tasks created inside an operation (``gather``,
``wait_for``) inherit it, and :meth:`Tracer.wrap_callback` carries it across
event-scheduler callbacks.

Spans are kept in flat arrays while the run lasts and written to a JSON-lines
file only at the end (:meth:`Tracer.dump`).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import time
from array import array
from collections import Counter
from pathlib import Path

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=(-1, -1))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counters: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._next_op = 0

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------
    def _open(self, name: str, new_op: bool) -> tuple[int, contextvars.Token]:
        parent, op = _CURRENT.get()
        if new_op:
            op = self._next_op
            self._next_op += 1
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        span = len(self.start)
        self.name_of.append(index)
        self.parent.append(parent)
        self.op.append(op)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return span, _CURRENT.set((span, op))

    def _close(self, span: int, token: contextvars.Token) -> None:
        self.end[span] = time.perf_counter()
        _CURRENT.reset(token)

    def traced(self, function, name: str, *, new_op: bool = False):
        """Return ``function`` wrapped so every call records a span."""
        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def async_wrapper(*args, **kwargs):
                span, token = self._open(name, new_op)
                try:
                    return await function(*args, **kwargs)
                finally:
                    self._close(span, token)

            return async_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span, token = self._open(name, new_op)
            try:
                return function(*args, **kwargs)
            finally:
                self._close(span, token)

        return wrapper

    def wrap_callback(self, callback, name: str):
        """Bind ``callback`` to the current operation; it fires as span ``name``."""
        _parent, op = _CURRENT.get()

        def fire():
            token = _CURRENT.set((_CURRENT.get()[0], op))
            try:
                span, inner = self._open(name, False)
                try:
                    return callback()
                finally:
                    self._close(span, inner)
            finally:
                _CURRENT.reset(token)

        return fire

    # ------------------------------------------------------------------
    # Patching.
    # ------------------------------------------------------------------
    def patch(self, owner: object, attribute: str, replacement: object) -> None:
        """Set ``owner.attribute`` until :meth:`restore`."""
        original = (
            owner.__dict__[attribute]
            if isinstance(owner, type)
            else getattr(owner, attribute)
        )
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def wrap(self, owner: object, attribute: str, name: str, *, new_op: bool = False) -> None:
        """Trace every call of ``owner.attribute`` as span ``name``."""
        original = (
            owner.__dict__[attribute]
            if isinstance(owner, type)
            else getattr(owner, attribute)
        )
        self.patch(owner, attribute, self.traced(original, name, new_op=new_op))

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Analysis.
    # ------------------------------------------------------------------
    def spans_named(self, name: str) -> list[int]:
        index = self._name_index.get(name)
        if index is None:
            return []
        return [span for span, of in enumerate(self.name_of) if of == index]

    def durations(self, name: str) -> list[float]:
        return [self.end[s] - self.start[s] for s in self.spans_named(name)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its children cover.

        Children of one span can overlap (concurrent ``gather`` tasks), so
        the covered part is the union of their intervals.
        """
        children: dict[int, list[int]] = {}
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                children.setdefault(parent, []).append(span)
        result = [self.end[s] - self.start[s] for s in range(len(self.start))]
        for parent, kids in children.items():
            intervals = sorted((self.start[k], self.end[k]) for k in kids)
            covered = 0.0
            low, high = intervals[0]
            for start, end in intervals[1:]:
                if start > high:
                    covered += high - low
                    low, high = start, end
                elif end > high:
                    high = end
            covered += high - low
            result[parent] -= covered
        return result

    def self_total(self, names: set[str], self_times: list[float]) -> float:
        indices = {self._name_index[n] for n in names if n in self._name_index}
        return sum(t for t, of in zip(self_times, self.name_of) if of in indices)

    def dump(self, path: Path, *, limit: int = 100_000) -> int:
        """Write up to ``limit`` spans as JSON lines; return how many."""
        count = min(limit, len(self.start))
        with open(path, "w", encoding="utf-8") as handle:
            for span in range(count):
                handle.write(
                    json.dumps(
                        {
                            "id": span,
                            "name": self.names[self.name_of[span]],
                            "start": self.start[span],
                            "end": self.end[span],
                            "parent": self.parent[span],
                            "op": self.op[span],
                        }
                    )
                    + "\n"
                )
        return count
