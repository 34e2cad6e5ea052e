"""Layer spans taken from outside the program, by wrapping module names.

``Tracer.patched`` replaces module-level attributes (the names the
pipeline looks up at call time, such as ``integrator.draw_standard_normals``)
with timing wrappers for the duration of a ``with`` block and restores the
originals afterwards.  Nothing inside the package changes.

Each wrapped call is a span.  Spans are aggregated per (name, thread) as
they close, so memory stays flat however many calls a run makes:

* ``calls``: spans closed
* ``busy_s``: summed span durations (thread-busy seconds)
* ``self_s``: busy time not covered by a directly nested span on the
  same thread
* ``units``: work counted by the span's ``units`` callback, if any
"""
from __future__ import annotations

import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []  # (thread id, {name: [calls, busy_s, self_s, units]})

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ({}, [])
            with self._lock:
                self._tables.append((threading.get_ident(), state[0]))
        return state

    def call(self, name, fn, *args, _units=None, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one span called ``name``."""
        table, stack = self._state()
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            covered = stack.pop()
            if stack:
                stack[-1] += elapsed
            row = table.get(name)
            if row is None:
                row = table[name] = [0, 0.0, 0.0, 0]
            row[0] += 1
            row[1] += elapsed
            row[2] += elapsed - covered
        if _units is not None:
            row[3] += _units(args, kwargs, result)
        return result

    def _wrap(self, name, fn, units):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, _units=units, **kwargs)
        return wrapper

    @contextmanager
    def patched(self, targets):
        """Trace ``(module, attribute, span name, units)`` targets in a block.

        ``units(args, kwargs, result)`` returns the work one call did, or
        ``units`` is None.
        """
        saved = []
        try:
            for module, attr, name, units in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, units))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self) -> dict:
        """{name: {"calls", "busy_s", "self_s", "units"}} over all threads."""
        out = {}
        with self._lock:
            tables = list(self._tables)
        for _thread_id, table in tables:
            for name, (calls, busy, own, units) in table.items():
                agg = out.setdefault(name, {
                    "calls": 0, "busy_s": 0.0, "self_s": 0.0, "units": 0})
                agg["calls"] += calls
                agg["busy_s"] += busy
                agg["self_s"] += own
                agg["units"] += units
        return out
