"""In-memory span recorder of the benchmark driver.

One span per call into the program (``<layer>.<operation>``), opened by
the driver around the public call — no source file of ``repro`` gains a
span.  Every span is timed and counted as one attempted operation; the
spans themselves are *kept* only in a traced run (``keep=True``) and
written out as JSONL when the run ends.
"""

import json
import time


class Span:
    __slots__ = ("name", "trace", "parent", "start", "end")

    def __init__(self, name, trace, parent):
        self.name, self.trace, self.parent = name, trace, parent
        self.start = self.end = time.perf_counter()

    @property
    def seconds(self):
        return self.end - self.start


class Recorder:
    """Times spans, counts operations attempted/failed, keeps checks."""

    def __init__(self, keep):
        self.keep = keep
        self.spans = []          # closed and open spans, in start order
        self.attempted = 0
        self.failed = 0
        self.checks = {}         # name -> bool
        self._current = None     # index of the innermost open kept span

    def span(self, name, trace=None, op=True):
        """Context manager timing one call; ``op=False`` marks a driver
        phase that groups calls and is not itself an operation."""
        return _Scope(self, Span(name, trace, self._current), op)

    def check(self, name, ok):
        """A correctness check is an operation that fails when wrong."""
        ok = bool(ok)
        self.attempted += 1
        self.failed += not ok
        self.checks[name] = ok and self.checks.get(name, True)
        return ok

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def self_seconds(self, index):
        """A span's duration minus the part its child spans cover."""
        span = self.spans[index]
        return span.seconds - sum(s.seconds for s in self.spans
                                  if s.parent == index)

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for index, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "span": index, "name": s.name, "trace": s.trace,
                    "parent": s.parent, "start": s.start, "end": s.end,
                }) + "\n")


class _Scope:
    __slots__ = ("rec", "span", "op", "outer")

    def __init__(self, rec, span, op):
        self.rec, self.span, self.op = rec, span, op

    def __enter__(self):
        rec = self.rec
        self.outer = rec._current
        if rec.keep:
            rec._current = len(rec.spans)
            rec.spans.append(self.span)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, exc_type, exc, tb):
        self.span.end = time.perf_counter()
        rec = self.rec
        rec._current = self.outer
        if self.op:
            rec.attempted += 1
            rec.failed += exc_type is not None
        return False
