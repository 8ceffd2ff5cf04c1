"""Lightweight span tracer: monotonic-clock scopes with parent nesting.

A span measures one scope of work on the monotonic clock
(``time.perf_counter``) and emits a JSON-able event dict when it
closes::

    {"type": "span", "name": "serve.manager.flush", "span": 3,
     "parent": 2, "depth": 1, "seconds": 0.0123, ...attrs}

Nesting is tracked per thread: a span opened while another span of the
same thread is active records that span as its parent, so a capture
reconstructs the call tree without any global state.

Events go to the installed *sink* (a callable taking the event dict) —
:class:`JsonlSink` appends JSONL lines, :func:`capture` collects into a
list for tests and the examples.  With no sink installed, :func:`span`
returns one shared no-op context manager: no span object is allocated,
no clock is read.

Like the metrics registry, spans are numerics-neutral: they read the
clock and build dicts, and never touch RNG state or model data.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time

__all__ = ["span", "set_sink", "get_sink", "capture", "JsonlSink"]

_SINK = [None]
_IDS = itertools.count(1)
_STACK = threading.local()


def set_sink(sink):
    """Install the event sink (``None`` removes it) and return the
    previous one.  The sink is any callable taking one event dict."""
    previous = _SINK[0]
    _SINK[0] = sink
    return previous


def get_sink():
    """The currently installed event sink, or ``None``."""
    return _SINK[0]


class _NoopSpan:
    """Shared do-nothing span handed out when no sink is installed."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def annotate(self, **attrs):
        return self


_NOOP = _NoopSpan()


class Span:
    """One timed scope.  Use via :func:`span`, not directly."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "depth", "_t0")

    def __init__(self, name, attrs):
        self.name = name
        self.attrs = attrs
        self.span_id = next(_IDS)
        self.parent_id = None
        self.depth = 0
        self._t0 = None

    def annotate(self, **attrs):
        """Attach extra attributes to the span's event."""
        self.attrs.update(attrs)
        return self

    def __enter__(self):
        stack = getattr(_STACK, "spans", None)
        if stack is None:
            stack = _STACK.spans = []
        if stack:
            self.parent_id = stack[-1].span_id
            self.depth = len(stack)
        stack.append(self)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        seconds = time.perf_counter() - self._t0
        stack = _STACK.spans
        if stack and stack[-1] is self:
            stack.pop()
        sink = _SINK[0]
        if sink is not None:
            event = {"type": "span", "name": self.name,
                     "span": self.span_id, "parent": self.parent_id,
                     "depth": self.depth, "seconds": seconds}
            if exc_type is not None:
                event["error"] = exc_type.__name__
            event.update(self.attrs)
            sink(event)
        return False


def span(name, **attrs):
    """Open a timed scope: ``with span("serve.manager.flush"): ...``.

    Returns the shared no-op span when no sink is installed — zero
    allocation on the fast path.
    """
    if _SINK[0] is None:
        return _NOOP
    return Span(name, attrs)


@contextlib.contextmanager
def capture():
    """Collect span events into a list for the duration of the scope::

        with obs.capture() as events:
            run()
        summarize(events)

    Restores the previous sink on exit.
    """
    events = []
    previous = set_sink(events.append)
    try:
        yield events
    finally:
        set_sink(previous)


class JsonlSink:
    """Append span events as JSON lines to a file (one event per line).

    Thread-safe; flushes per event so a crash loses at most the event
    being written.  Use as a context manager or call :meth:`close`.
    """

    def __init__(self, path):
        self.path = str(path)
        self._fh = open(self.path, "a", encoding="utf-8")
        self._lock = threading.Lock()

    def __call__(self, event):
        line = json.dumps(event, sort_keys=True)
        with self._lock:
            if self._fh is not None:
                self._fh.write(line + "\n")
                self._fh.flush()

    def close(self):
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
