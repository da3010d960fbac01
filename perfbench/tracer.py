"""Outside-in span tracer: wraps public calls of the program's layers.

The benchmark times each layer from its own files by replacing a method
(on a class, or on one instance) with a wrapper that records a span
around the original call, and puts every original back on
:meth:`Tracer.restore`.  Nothing under ``src/`` knows it is traced.

Spans are aggregated in memory as they close, per span name:

* ``total`` -- wall time inside the call;
* ``self_`` -- ``total`` minus the time covered by spans opened inside it
  (so the self times of all spans add up to the time spent inside any
  span, without double counting);
* ``calls`` -- number of calls;
* ``edges[(parent, child)]`` -- time of ``child`` spans opened directly
  inside a ``parent`` span (the span that caused it).

The tracer's own work in a wrapper (bookkeeping, clock reads, count
hooks) is timed too and summed in ``overhead``; it is charged to no
span, so a parent's self time does not grow with the number of traced
calls inside it.  The self times plus ``overhead`` add up to the time
spent inside the outermost spans.

Only calls made by the process and thread that created the tracer are
recorded.  Forked workers (shards, eval cells) inherit the patched
classes but run the originals; the supervised fan-out's pipe-reader
threads must not open spans under the main thread's.
"""

from __future__ import annotations

import functools
import inspect
import os
import threading
import time
from collections import defaultdict

_MISSING = object()


class Tracer:
    """Span recorder plus the method patches that feed it."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._thread = threading.get_ident()
        self._pid = os.getpid()
        self._stack: list = []
        self._patches: list = []
        self.total = defaultdict(float)
        self.self_ = defaultdict(float)
        self.calls = defaultdict(int)
        self.edges = defaultdict(float)
        self.counts = defaultdict(float)
        self.overhead = 0.0

    def reset(self) -> None:
        """Forget every recorded span (the patches stay installed).

        Cleared in place: count hooks hold references to ``counts``.
        """
        for table in (self.total, self.self_, self.calls, self.edges,
                      self.counts):
            table.clear()
        self.overhead = 0.0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _close(self, enter: float, t0: float, t1: float) -> None:
        """Close the innermost span: wrapper entered at ``enter``, the
        wrapped call ran from ``t0`` to ``t1``."""
        name, child = self._stack.pop()
        dt = t1 - t0
        self.total[name] += dt
        self.self_[name] += dt - child
        self.calls[name] += 1
        if self._stack:
            parent = self._stack[-1]
            self.edges[(parent[0], name)] += dt
        leave = self._clock()
        self.overhead += (t0 - enter) + (leave - t1)
        if self._stack:
            self._stack[-1][1] += leave - enter

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------

    def _mine(self) -> bool:
        return (
            threading.get_ident() == self._thread
            and os.getpid() == self._pid
        )

    def _install(self, owner, attr: str, make_wrapper) -> None:
        own = vars(owner).get(attr, _MISSING)
        if inspect.isclass(owner):
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, (staticmethod, classmethod)):
                raise TypeError(f"cannot wrap {owner.__name__}.{attr}")
        else:
            original = getattr(owner, attr)
        setattr(owner, attr, make_wrapper(original))
        self._patches.append((owner, attr, own))

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Record a span ``name`` around every call of ``owner.attr``.

        ``owner`` is a class (every instance is traced), a module, or a
        single instance.  ``after(args, kwargs, result)`` runs after the
        call, outside the timed span (in ``overhead``), for counts taken
        at the boundary.
        """
        clock, stack, close = self._clock, self._stack, self._close
        mine = self._mine

        def make_wrapper(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                enter = clock()
                if not mine():
                    return fn(*args, **kwargs)
                stack.append([name, 0.0])
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    close(enter, t0, clock())
                    raise
                t1 = clock()
                if after is not None:
                    after(args, kwargs, result)
                close(enter, t0, t1)
                return result

            return wrapper

        self._install(owner, attr, make_wrapper)

    def hook(self, owner, attr: str, after) -> None:
        """Call ``after(args, kwargs, result)`` after ``owner.attr``, untimed."""

        mine = self._mine

        def make_wrapper(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if mine():
                    after(args, kwargs, result)
                return result

            return wrapper

        self._install(owner, attr, make_wrapper)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def self_sum(self) -> float:
        """Time covered by at least one span, less ``overhead``."""
        return float(sum(self.self_.values()))

    def top_level(self, names) -> float:
        """Inclusive time of ``names``, minus their nesting in each other."""
        names = set(names)
        nested = sum(
            dt for (parent, child), dt in self.edges.items()
            if parent in names and child in names
        )
        return float(sum(self.total[n] for n in names) - nested)
