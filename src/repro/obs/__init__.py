"""Unified observability for the serving stack: metrics + tracing.

``repro.obs`` gives every subsystem one way to count, time, and trace:

* :class:`MetricsRegistry` — Counter / Gauge / Histogram with fixed
  log-scale bucket bounds, so merging snapshots across threads,
  components, or worker processes is deterministic and
  order-independent (see :mod:`repro.obs.registry` for the metric
  naming scheme);
* :func:`span` — monotonic-clock scopes with per-thread parent
  nesting, emitted as JSONL events to a pluggable sink;
* exporters — JSONL files and the
  ``python -m repro.obs summarize`` CLI for percentile / hit-ratio
  tables.

Metrics are always on; spans are emitted only while a sink is
installed.  Everything is numerics-neutral (no RNG, no float ops on
model data — neither metrics nor a span sink ever change a
prediction).
"""

from .registry import (BUCKET_BOUNDS, Counter, Gauge, Histogram,
                       MetricsRegistry, aggregate, default_registry,
                       merge_snapshots, reset_all_metrics,
                       reset_default_registry)
from .trace import JsonlSink, capture, get_sink, set_sink, span
from .export import (format_summary, read_jsonl, summarize_events,
                     write_jsonl)

__all__ = [
    "BUCKET_BOUNDS", "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "aggregate", "default_registry", "merge_snapshots",
    "reset_all_metrics", "reset_default_registry",
    "JsonlSink", "capture", "get_sink", "set_sink", "span",
    "format_summary", "read_jsonl", "summarize_events", "write_jsonl",
]
