"""The tracing half of the telemetry spine.

A :class:`Span` is one timed unit of work -- name, wall-clock start and
duration, attributes, and a parent link -- grouped under a trace id.
:class:`Tracer` hands them out three ways:

* ``with tracer.span("campaign.run")`` for plain nested code --
  parentage propagates through a contextvar, so spans opened anywhere
  below (including across ``await``) attach to the right parent.
* ``tracer.begin()`` / ``tracer.finish()`` for code that cannot hold a
  context manager open.
* ``tracer.add(name, duration)`` for synthetic spans built after the
  fact from a measured duration (the per-scenario ``campaign.scenario``
  spans are stamped from ``result.elapsed_seconds``).

:func:`span_tree` reassembles the finished spans into one
parent→children tree, and :func:`render_tree` prints it.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
import time
import uuid
from typing import Dict, List, Optional, Sequence, Tuple

#: The ambient trace context: ``(trace_id, span_id)`` of the innermost
#: open span, or None at top level.  Contextvars are per-thread (and
#: per-task under asyncio): another thread that should join a trace
#: attaches explicitly via ``current_context`` / ``attach_context``.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "repro_obs_span", default=None)


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


class Span:
    """One timed unit of work inside a trace."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name",
                 "start_time", "duration", "attributes", "_token")

    def __init__(self, name: str, trace_id: str, span_id: str,
                 parent_id: Optional[str], start_time: float,
                 duration: Optional[float] = None,
                 attributes: Optional[Dict[str, object]] = None):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_time = start_time
        self.duration = duration
        self.attributes = dict(attributes or {})
        self._token = None

    def set_attribute(self, key: str, value):
        self.attributes[key] = value

    @property
    def finished(self) -> bool:
        return self.duration is not None

    def __repr__(self):
        return ("Span(%r, trace=%s, id=%s, parent=%s, duration=%s)"
                % (self.name, self.trace_id, self.span_id, self.parent_id,
                   self.duration))


class Tracer:
    """Creates spans and retains the finished ones for export."""

    def __init__(self, limit: int = 100_000):
        self._lock = threading.Lock()
        self._finished: List[Span] = []
        self.limit = limit
        self.dropped = 0

    # ---------------------------------------------------------- creation

    def begin(self, name: str,
              parent: Optional[Tuple[str, str]] = None,
              attributes: Optional[Dict[str, object]] = None) -> Span:
        """Open a span and make it the ambient parent; caller must
        ``finish()`` it.

        ``parent`` overrides the ambient context with an explicit
        ``(trace_id, span_id)`` pair.
        """
        if parent is None:
            parent = _CURRENT.get()
        if parent is None:
            trace_id, parent_id = _new_id(), None
        else:
            trace_id, parent_id = parent
        span = Span(name=name, trace_id=trace_id, span_id=_new_id(),
                    parent_id=parent_id, start_time=time.time(),
                    attributes=attributes)
        span._token = _CURRENT.set((span.trace_id, span.span_id))
        return span

    def finish(self, span: Span, end_time: Optional[float] = None):
        """Close a span and retain it for export."""
        if span.duration is None:
            end = time.time() if end_time is None else end_time
            span.duration = max(0.0, end - span.start_time)
        if span._token is not None:
            try:
                _CURRENT.reset(span._token)
            except ValueError:
                # Finished from a different context (e.g. another
                # thread); the ambient var there was never ours to reset.
                pass
            span._token = None
        self._retain(span)

    @contextlib.contextmanager
    def span(self, name: str,
             parent: Optional[Tuple[str, str]] = None,
             attributes: Optional[Dict[str, object]] = None):
        """``with tracer.span("name") as span:`` -- the common case."""
        opened = self.begin(name, parent=parent, attributes=attributes)
        try:
            yield opened
        finally:
            self.finish(opened)

    def add(self, name: str, duration: float,
            parent: Optional[Tuple[str, str]] = None,
            start_time: Optional[float] = None,
            attributes: Optional[Dict[str, object]] = None) -> Span:
        """Record a synthetic, already-measured span.

        The campaign runner builds its per-scenario spans this way from
        ``result.elapsed_seconds``, so the scenario body needs no tracer
        plumbing.
        """
        if parent is None:
            parent = _CURRENT.get()
        if parent is None:
            trace_id, parent_id = _new_id(), None
        else:
            trace_id, parent_id = parent
        duration = max(0.0, float(duration))
        if start_time is None:
            start_time = time.time() - duration
        span = Span(name=name, trace_id=trace_id, span_id=_new_id(),
                    parent_id=parent_id, start_time=start_time,
                    duration=duration, attributes=attributes)
        self._retain(span)
        return span

    def _retain(self, span: Span):
        with self._lock:
            if len(self._finished) >= self.limit:
                self.dropped += 1
                return
            self._finished.append(span)

    # ------------------------------------------------------------- export

    def finished_spans(self) -> List[Span]:
        with self._lock:
            return list(self._finished)

    def drain(self) -> List[Span]:
        """Return the retained spans and clear the buffer."""
        with self._lock:
            spans, self._finished = self._finished, []
        return spans

    def reset(self):
        with self._lock:
            self._finished = []
            self.dropped = 0


# --------------------------------------------------------------------------
# Ambient context helpers
# --------------------------------------------------------------------------

def current_context() -> Optional[Tuple[str, str]]:
    """The ambient ``(trace_id, span_id)``, for crossing a boundary."""
    return _CURRENT.get()


def attach_context(parent: Optional[Tuple[str, str]]):
    """Set the ambient trace context in *this* thread/task.

    Returns a token for :func:`detach_context`.  Another thread calls
    this with a pair taken by :func:`current_context` so its spans root
    under that span.
    """
    return _CURRENT.set(tuple(parent) if parent is not None else None)


def detach_context(token):
    try:
        _CURRENT.reset(token)
    except ValueError:
        pass


# --------------------------------------------------------------------------
# Tree reassembly
# --------------------------------------------------------------------------

def span_tree(spans: Sequence[Span]) -> Dict[Optional[str], List[Span]]:
    """Group spans as ``parent_id -> [children sorted by start]``.

    Roots (no parent, or parent not in the batch -- a span whose parent
    was exported separately) appear under ``None``.
    """
    known = {span.span_id for span in spans}
    tree: Dict[Optional[str], List[Span]] = {}
    for span in spans:
        parent = span.parent_id if span.parent_id in known else None
        tree.setdefault(parent, []).append(span)
    for children in tree.values():
        children.sort(key=lambda span: span.start_time)
    return tree


def render_tree(spans: Sequence[Span]) -> str:
    """A human-readable indented rendering of :func:`span_tree`."""
    tree = span_tree(spans)
    lines: List[str] = []

    def emit(span: Span, depth: int):
        duration = "?" if span.duration is None else (
            "%.6fs" % span.duration)
        lines.append("%s%s (%s)" % ("  " * depth, span.name, duration))
        for child in tree.get(span.span_id, []):
            emit(child, depth + 1)

    for root in tree.get(None, []):
        emit(root, 0)
    return "\n".join(lines)


# --------------------------------------------------------------------------
# The process default
# --------------------------------------------------------------------------

_default_tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return _default_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process default; returns the previous one."""
    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer
    return previous
