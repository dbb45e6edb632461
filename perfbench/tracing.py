"""In-memory spans around the program's public entry points.

The benchmark never edits the program to trace it: :class:`Tracer`
replaces a method or a registry entry with a wrapper that opens a span
around each call, and puts the original back on :meth:`Tracer.restore`.
A wrapped coroutine function gets one span per step: from each
resumption to the next suspension, so its spans hold the time it runs,
never the time it waits while other tasks run.  Spans stay in memory
until the run ends.  Per-step entry points (the monitor's ``observe``)
are too hot for a span per call; an *accumulator* only adds up their
time and count, and charges the time to whichever span is open so self
times stay exact.

A span's self time is its duration minus the part of it its child spans
cover (children of concurrent exchanges may overlap, so the covered
part is a union of intervals) minus accumulated time charged to it.
"""

from __future__ import annotations

import contextvars
import inspect
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

CURRENT = object()

#: Accumulator that collects the time ``around`` calls take (see
#: :meth:`Tracer.wrap`).
AROUND = "bench.probe"


class Span:
    """One timed call: name, interval, the span that caused it."""

    __slots__ = ("name", "start", "end", "parent", "children", "inner", "attrs")

    def __init__(self, name: str, parent: Optional["Span"], start: float):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.children: List[Span] = []
        #: Accumulated (per-step) time charged to this span.
        self.inner = 0.0
        self.attrs: Dict[str, object] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_time(span: Span) -> float:
    """Length of the union of *span*'s child intervals, clipped to it."""
    intervals = sorted((max(child.start, span.start), min(child.end, span.end))
                       for child in span.children)
    covered = 0.0
    run_start = run_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = start, end
        elif end > run_end:
            run_end = end
    if run_end is not None:
        covered += run_end - run_start
    return covered


def self_time(span: Span) -> float:
    """*span*'s duration minus its children's union and accumulated time."""
    return max(0.0, span.duration - covered_time(span) - span.inner)


class _Steps:
    """Awaitable that runs a coroutine one step at a time, each step
    (from a resumption to the next suspension) inside its own span."""

    __slots__ = ("tracer", "name", "parent", "coro")

    def __init__(self, tracer: "Tracer", name: str, parent, coro):
        self.tracer = tracer
        self.name = name
        self.parent = parent
        self.coro = coro

    def __await__(self):
        coro = self.coro
        value, error = None, None
        while True:
            with self.tracer.span(self.name, parent=self.parent):
                try:
                    if error is None:
                        yielded = coro.send(value)
                    else:
                        yielded = coro.throw(error)
                except StopIteration as stop:
                    return stop.value
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as caught:  # noqa: BLE001 - handed to the coroutine
                value, error = None, caught


class Tracer:
    """Records spans and accumulators; owns the patches it installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        #: Accumulator name -> [seconds, calls].
        self.accumulators: Dict[str, List[float]] = {}
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._patches = []

    # ------------------------------------------------------------ spans

    @contextmanager
    def span(self, name: str, parent=CURRENT):
        """Open a span; its parent defaults to the span open in this context."""
        if parent is CURRENT:
            parent = self._current.get()
        span = Span(name, parent, self.clock())
        token = self._current.set(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._current.reset(token)
            if parent is not None:
                parent.children.append(span)
            self.spans.append(span)

    # ------------------------------------------------------------ patching

    def _install(self, owner, attribute, replacement):
        if isinstance(owner, dict):
            original = owner[attribute]
            owner[attribute] = replacement
            self._patches.append((owner, attribute, original, True))
        else:
            own = attribute in vars(owner)
            original = getattr(owner, attribute)
            setattr(owner, attribute, replacement)
            self._patches.append((owner, attribute, original, own))
        return original

    def _charge(self, cell: List[float], elapsed: float):
        """Add *elapsed* to an accumulator and to the span open right now."""
        cell[0] += elapsed
        cell[1] += 1
        span = self._current.get()
        if span is not None:
            span.inner += elapsed

    def wrap(self, owner, attribute, name: str,
             parent: Optional[Callable] = None,
             record: Optional[Callable] = None,
             skip: Optional[Callable[[Optional[Span]], bool]] = None,
             around: Optional[Callable[[], float]] = None):
        """Record a span named *name* around every call of ``owner.attribute``.

        *owner* is a class, a module or a dict (for registry entries).
        ``parent(args, kwargs)`` picks the parent span when the caller's
        context does not hold it; ``record(span, args, kwargs, result)``
        stores attributes; ``skip(current)`` bypasses the span (used to
        fold a nested call into its caller's span).  ``around()`` runs
        just before the span opens and just after it closes; the mean of
        its two readings is stored as ``span.attrs["around"]``, and the
        time it takes is accumulated under :data:`AROUND` and charged to
        the enclosing span, so it stays out of every self time.  A
        coroutine function gets a span per step instead (see
        :class:`_Steps`); ``record`` and ``around`` apply to plain
        functions only.
        """
        tracer = self
        clock = self.clock
        around_cell = self.accumulators.setdefault(AROUND, [0.0, 0]) if around else None
        target = owner[attribute] if isinstance(owner, dict) else getattr(owner, attribute)
        original = None

        def sample():
            started = clock()
            value = around()
            tracer._charge(around_cell, clock() - started)
            return value

        @contextmanager
        def traced(args, kwargs):
            before = sample() if around is not None else None
            chosen = parent(args, kwargs) if parent is not None else CURRENT
            with tracer.span(name, parent=chosen) as span:
                yield span
            if around is not None:
                span.attrs["around"] = (before + sample()) / 2

        def bypass():
            return skip is not None and skip(tracer._current.get())

        if inspect.iscoroutinefunction(target):
            def wrapper(*args, **kwargs):
                if bypass():
                    return original(*args, **kwargs)
                chosen = parent(args, kwargs) if parent is not None else CURRENT
                return _Steps(tracer, name, chosen, original(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                if bypass():
                    return original(*args, **kwargs)
                with traced(args, kwargs) as span:
                    result = original(*args, **kwargs)
                    if record is not None:
                        record(span, args, kwargs, result)
                    return result

        original = self._install(owner, attribute, wrapper)
        return wrapper

    def accumulate(self, owner, attribute, name: str):
        """Add up time and calls of ``owner.attribute`` without spans."""
        cell = self.accumulators.setdefault(name, [0.0, 0])
        clock = self.clock
        charge = self._charge
        original = None

        def wrapper(*args, **kwargs):
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                charge(cell, clock() - started)

        original = self._install(owner, attribute, wrapper)
        return wrapper

    def restore(self):
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attribute, original, own = self._patches.pop()
            if isinstance(owner, dict):
                owner[attribute] = original
            elif own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    # ------------------------------------------------------------ summaries

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, summed self time, summed duration."""
        table: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            entry = table.setdefault(span.name,
                                     {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_time(span)
            entry["total_s"] += span.duration
        for name, (seconds, calls) in self.accumulators.items():
            table[name] = {"calls": calls, "self_s": seconds, "total_s": seconds}
        return table

    def attr_sum(self, name: str, key: str) -> float:
        """Sum of attribute *key* over the spans called *name*."""
        return sum(span.attrs.get(key, 0) for span in self.spans
                   if span.name == name)
