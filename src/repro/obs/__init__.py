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

Everything is numerics-neutral (no RNG, no float ops on model data —
enabling observability never changes a prediction) and collapses to
shared no-op singletons when ``REPRO_OBS=off``.
"""

from .registry import (BUCKET_BOUNDS, Counter, Gauge, Histogram,
                       MetricsRegistry, aggregate, configure,
                       default_registry, enabled, enabled_scope,
                       merge_snapshots, reset_all_metrics,
                       reset_default_registry)
from .trace import JsonlSink, capture, get_sink, set_sink, span
from .export import (format_summary, read_jsonl, summarize_events,
                     write_jsonl)

__all__ = [
    "BUCKET_BOUNDS", "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "aggregate", "configure", "default_registry", "enabled",
    "enabled_scope", "merge_snapshots", "reset_all_metrics",
    "reset_default_registry",
    "JsonlSink", "capture", "get_sink", "set_sink", "span",
    "format_summary", "read_jsonl", "summarize_events", "write_jsonl",
]
