"""Process-wide metrics: counters, gauges, deterministic histograms.

This module is the **metric naming registry** for the whole serving
stack.  Every metric name follows one scheme::

    <subsystem>.<object>.<metric>[.<unit>]

lower-case, dot-separated, no spaces.  Canonical names in use:

================================================ =========== ==========
name                                             kind        unit
================================================ =========== ==========
``serve.manager.sessions.opened``                counter     sessions
``serve.manager.sessions.closed``                counter     sessions
``serve.manager.sessions.live``                  gauge       sessions
``serve.manager.queue.depth``                    gauge       batches
``serve.manager.queue.wait.seconds``             histogram   seconds
``serve.manager.adapt.batches``                  counter     flushes
``serve.manager.adapt.total``                    counter     tasks
``serve.manager.adapt.build.seconds``            histogram   seconds
``serve.manager.adapt.train.seconds``            histogram   seconds
``serve.manager.adapt.install.seconds``          histogram   seconds
``serve.manager.flush.seconds``                  histogram   seconds
``serve.manager.errors.recorded``                counter     errors
``serve.manager.predict.encode.seconds``         histogram   seconds
``serve.manager.predict.forward.seconds``        histogram   seconds
``serve.manager.predict.refine.seconds``         histogram   seconds
``serve.manager.predict.seconds``                histogram   seconds
``serve.manager.predict.rows.settled``           counter     row·sessions
``serve.manager.predict.rows.scored``            counter     row·sessions
``serve.manager.predict.rows.skipped``           counter     row·sessions
``serve.manager.store_scan.chunk_evals``         counter     chunks
``serve.manager.store_scan.watermark_skipped``   counter     chunks
``serve.manager.store_scan.pruned_skipped``      counter     chunks
``serve.manager.store_scan.blocks``              counter     blocks
``serve.manager.store_scan.block_rows``          histogram   rows
``serve.cache.prediction.hits``                  counter     lookups
``serve.cache.prediction.misses``                counter     lookups
``serve.cache.prediction.entries``               gauge       entries
``shard.gateway.rpc.seconds``                    histogram   seconds
``shard.gateway.rpc.calls``                      counter     calls
``shard.gateway.workers.alive``                  gauge       workers
``shard.gateway.workers.crashed``                counter     workers
``shard.gateway.pending.depth``                  gauge       batches
``store.scan.plans``                             counter     scans
``store.scan.chunks.scanned``                    counter     chunks
``store.scan.chunks.pruned``                     counter     chunks
``store.scan.chunks.watermark_skipped``          counter     chunks
``store.ingest.append.seconds``                  histogram   seconds
``store.ingest.append.rows``                     counter     rows
``store.ingest.commits``                         counter     commits
``store.freshness.observe.seconds``              histogram   seconds
``store.freshness.drift_score``                  histogram   score
``geometry.hull.builds``                         counter     hulls
``geometry.pack_cache.hits``                     counter     lookups
``geometry.pack_cache.misses``                   counter     lookups
``geometry.raster.built``                        counter     rasters
``geometry.raster.rows.settled``                 counter     rows
``geometry.raster.rows.exact``                   counter     rows
``core.optimizer.memo.hits``                      counter     chunk·optimizers
``core.optimizer.memo.misses``                    counter     chunk·optimizers
``core.offline.prepare.seconds``                 histogram   seconds
``core.offline.generate.seconds``                histogram   seconds
``ml.kmeans.iterations``                         counter     iterations
``nn.fan_out.split``                             counter     fan-outs
``nn.fan_out.whole``                             counter     stacks
``nn.fan_out.wait.seconds``                      histogram   seconds
``train.offline.pretrain_epoch.seconds``         histogram   seconds
``train.offline.meta_epoch.seconds``             histogram   seconds
``train.offline.epochs.pretrain``                counter     epochs
``train.offline.epochs.meta``                    counter     epochs
================================================ =========== ==========

Design constraints (the no-interference guarantee):

* **numerics-neutral** — metrics never touch model data, never draw
  random numbers, never change the float op sequence of any
  instrumented path; enabling observability cannot change a prediction
  by a single bit (asserted by the parity suites under ``REPRO_OBS=on``
  in CI);
* **deterministic merges** — every histogram shares one fixed
  log-scale bucket-bound table (:data:`BUCKET_BOUNDS`), so merging two
  histograms is an element-wise integer add: associative, commutative,
  independent of merge order and of which process observed what;
* **near-zero when off** — with ``REPRO_OBS=off`` every registry hands
  out shared null metrics whose methods are no-ops, and the span tracer
  returns one shared no-op context manager (no per-call allocation).

Ownership model: components that expose per-instance ``stats()`` dicts
(the session manager, the prediction/plan caches, the moment pool)
each own a private :class:`MetricsRegistry`; the old dict methods are
compatibility shims reading those registries.  The compiled-hull pack
cache has no such dict: its counts are read from the registry it
counts into (its owner's, e.g. the serving manager's ``metrics``).
Registries auto-enlist in a process-wide weak set, so
:func:`aggregate` merges every live
registry — plus the :func:`default_registry` used by module-level sites
(store scans, appends, offline preparation, training epochs) — into
one process snapshot.  That snapshot is what a shard worker ships to
the gateway.
"""

from __future__ import annotations

import contextlib
import os
import threading
import weakref

__all__ = [
    "BUCKET_BOUNDS", "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "enabled", "configure", "enabled_scope", "default_registry",
    "aggregate", "merge_snapshots", "reset_default_registry",
    "reset_all_metrics",
]

#: Fixed log-scale histogram bucket upper bounds, shared by **every**
#: histogram in the process (and across processes): quarter-decade steps
#: from ~316 ns to 1000 (seconds for latency metrics, dimensionless for
#: scores).  One shared table is what makes cross-worker merges a plain
#: element-wise add — no bound negotiation, no order sensitivity.
BUCKET_BOUNDS = tuple(10.0 ** (k / 4.0) for k in range(-26, 13))

_ENABLED = [None]   # tri-state: None = resolve REPRO_OBS on first use
_LOCK = threading.Lock()


def enabled():
    """Whether observability is on (``REPRO_OBS``, default ``on``).

    Resolved lazily on first use; ``off`` / ``0`` / ``false`` / ``no``
    disable.  :func:`configure` / :func:`enabled_scope` override at
    runtime — new registries and spans see the change, metrics already
    handed out keep the mode they were created under.
    """
    value = _ENABLED[0]
    if value is None:
        raw = os.environ.get("REPRO_OBS", "on").strip().lower()
        value = raw not in ("off", "0", "false", "no", "disabled")
        _ENABLED[0] = value
    return value


def configure(on):
    """Force observability on or off for the process (``None`` =
    re-resolve ``REPRO_OBS`` on next use)."""
    _ENABLED[0] = None if on is None else bool(on)


@contextlib.contextmanager
def enabled_scope(on):
    """Temporarily force the enablement state (tests and benchmarks)."""
    previous = _ENABLED[0]
    configure(on)
    try:
        yield
    finally:
        _ENABLED[0] = previous


# ----------------------------------------------------------------------
# Metric primitives
# ----------------------------------------------------------------------
class Counter:
    """A monotonically increasing integer count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self):
        self.value = 0

    def inc(self, n=1):
        self.value += n

    def set(self, value):
        """Overwrite the count (checkpoint restore only)."""
        self.value = int(value)

    def snapshot(self):
        return {"kind": "counter", "value": int(self.value)}

    def merge(self, snap):
        self.value += int(snap["value"])


class Gauge:
    """A point-in-time numeric value (queue depth, live sessions)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self):
        self.value = 0

    def set(self, value):
        self.value = value

    def inc(self, n=1):
        self.value += n

    def dec(self, n=1):
        self.value -= n

    def snapshot(self):
        return {"kind": "gauge", "value": self.value}

    def merge(self, snap):
        # Gauges merge additively: the fleet's queue depth is the sum of
        # the workers' depths.  (Last-write merges would depend on merge
        # order, which the determinism contract forbids.)
        self.value += snap["value"]


class Histogram:
    """Fixed-bucket distribution with order-independent merges.

    Bucket *i* counts observations ``<= BUCKET_BOUNDS[i]``; the final
    overflow bucket counts the rest.  Because every histogram in every
    process shares :data:`BUCKET_BOUNDS`, merging is an element-wise
    integer add — deterministic regardless of merge order or process
    boundaries.  ``sum`` is kept for mean estimation only (telemetry,
    never model data).
    """

    __slots__ = ("counts", "count", "total", "vmin", "vmax")
    kind = "histogram"

    def __init__(self):
        self.counts = [0] * (len(BUCKET_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = None
        self.vmax = None

    def observe(self, value):
        value = float(value)
        lo, hi = 0, len(BUCKET_BOUNDS)
        # Binary search for the first bound >= value.
        while lo < hi:
            mid = (lo + hi) // 2
            if BUCKET_BOUNDS[mid] >= value:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1
        self.count += 1
        self.total += value
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value

    def percentile(self, q):
        """Deterministic bucket-bound estimate of the q-quantile.

        Returns the upper bound of the bucket where the cumulative count
        first reaches ``q * count`` (``vmax`` for the overflow bucket),
        or ``None`` for an empty histogram.  Exact to within one bucket
        width — and identical no matter how the histogram was merged.
        """
        if self.count == 0:
            return None
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= rank and n:
                if i < len(BUCKET_BOUNDS):
                    return BUCKET_BOUNDS[i]
                return self.vmax
        return self.vmax

    @property
    def mean(self):
        return self.total / self.count if self.count else None

    def snapshot(self):
        return {"kind": "histogram", "counts": list(self.counts),
                "count": int(self.count), "sum": float(self.total),
                "min": self.vmin, "max": self.vmax}

    def merge(self, snap):
        counts = snap["counts"]
        if len(counts) != len(self.counts):
            raise ValueError(
                "histogram snapshot has {} buckets, expected {} — it was "
                "recorded under different bucket bounds".format(
                    len(counts), len(self.counts)))
        for i, n in enumerate(counts):
            self.counts[i] += int(n)
        self.count += int(snap["count"])
        self.total += float(snap["sum"])
        if snap["min"] is not None and \
                (self.vmin is None or snap["min"] < self.vmin):
            self.vmin = snap["min"]
        if snap["max"] is not None and \
                (self.vmax is None or snap["max"] > self.vmax):
            self.vmax = snap["max"]


class _NullMetric:
    """Shared no-op stand-in handed out by disabled registries."""

    __slots__ = ()
    kind = "null"
    value = 0
    count = 0
    total = 0.0
    mean = None
    vmin = None
    vmax = None

    def inc(self, n=1):
        pass

    def dec(self, n=1):
        pass

    def set(self, value):
        pass

    def observe(self, value):
        pass

    def percentile(self, q):
        return None

    def snapshot(self):
        return None

    def merge(self, snap):
        pass


_NULL = _NullMetric()
_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

# Live enabled registries, for process-wide aggregation.  Weak: a
# registry lives exactly as long as its owning component.
_REGISTRIES = weakref.WeakSet()


def _check_name(name):
    if not name or any(c.isspace() for c in name) or name != name.lower() \
            or ".." in name or name[0] == "." or name[-1] == ".":
        raise ValueError(
            "metric name {!r} violates the <subsystem>.<object>.<metric> "
            "scheme (lower-case, dot-separated, no spaces)".format(name))
    return name


class MetricsRegistry:
    """A named collection of metrics owned by one component.

    ``enabled=None`` (the default) resolves :func:`enabled` at
    construction; a disabled registry hands out shared null metrics and
    snapshots to ``{}``, so instrumented code pays only a no-op method
    call.  Enabled registries enlist in the process-wide weak set that
    :func:`aggregate` merges.
    """

    def __init__(self, enabled=None):
        self.enabled = _module_enabled() if enabled is None else bool(enabled)
        self._metrics = {}
        if self.enabled:
            _REGISTRIES.add(self)

    def _get(self, name, kind):
        if not self.enabled:
            return _NULL
        metric = self._metrics.get(name)
        if metric is None:
            # setdefault: two threads creating one metric share one object.
            return self._metrics.setdefault(name, _KINDS[kind]())
        if metric.kind != kind:
            raise ValueError(
                "metric {!r} already registered as a {}, requested as a "
                "{}".format(name, metric.kind, kind))
        return metric

    def counter(self, name):
        return self._get(_check_name(name), "counter")

    def gauge(self, name):
        return self._get(_check_name(name), "gauge")

    def histogram(self, name):
        return self._get(_check_name(name), "histogram")

    def value(self, name, default=0):
        """The scalar value of a counter/gauge (0/default when absent) —
        what the legacy ``stats()`` compatibility shims read."""
        metric = self._metrics.get(name)
        return default if metric is None else metric.value

    def names(self):
        return sorted(self._metrics)

    def snapshot(self):
        """JSON-able ``{name: metric snapshot}`` of every metric."""
        return {name: metric.snapshot()
                for name, metric in sorted(self._metrics.items())}

    def merge(self, snap):
        """Merge a :meth:`snapshot` (possibly from another process) in.

        Deterministic: counters and histogram buckets add element-wise,
        gauges add, min/max combine — no merge-order dependence.
        """
        if not self.enabled or not snap:
            return self
        for name, entry in sorted(snap.items()):
            if entry is None:
                continue
            self._get(_check_name(name), entry["kind"]).merge(entry)
        return self

    def load(self, snap):
        """Restore a snapshot *exactly* (checkpoint restore): existing
        state is discarded, not merged into.  Metric objects are reset
        in place so references components cached at construction stay
        live."""
        if not self.enabled:
            return self
        for metric in self._metrics.values():
            metric.__init__()
        return self.merge(snap)


# enabled() is shadowed by the attribute name inside MetricsRegistry;
# keep a module-level alias for its constructor.
_module_enabled = enabled


# ----------------------------------------------------------------------
# Process-wide aggregation
# ----------------------------------------------------------------------
_DEFAULT = [None]


def default_registry():
    """The registry module-level call sites record into (store scans,
    append commits, training epochs) — components with per-instance
    ``stats()`` semantics own their own registries instead."""
    registry = _DEFAULT[0]
    if registry is None or (registry.enabled is not enabled()):
        registry = _DEFAULT[0] = MetricsRegistry()
    return registry


def reset_default_registry():
    """Drop the default registry's state (tests)."""
    _DEFAULT[0] = None


def reset_all_metrics():
    """Zero every metric of every live registry in this process.

    The ``fork`` start method copies the parent's registries — counts
    included — into the child, so a forked worker's :func:`aggregate`
    would otherwise re-report activity that happened before the fork.
    Workers call this once at startup; the parent's state is untouched
    (the copies diverged at fork).
    """
    for registry in list(_REGISTRIES):
        for metric in registry._metrics.values():
            metric.__init__()


def merge_snapshots(snapshots):
    """Merge snapshot dicts into one plain snapshot, deterministically.

    ``snapshots`` is iterated in the given order, but because every
    merge op is commutative and associative the result is independent
    of that order (property-tested in ``tests/obs``).
    """
    merged = MetricsRegistry(enabled=True)
    for snap in snapshots:
        merged.merge(snap)
    return merged.snapshot()


def aggregate():
    """One merged snapshot of every live registry in this process.

    This is the process-wide view a shard worker ships to the gateway:
    the default registry plus every component-owned registry (session
    manager, caches, pools) still alive.  Registries are merged in a
    deterministic order-insensitive way, so two aggregations over the
    same state are identical.
    """
    default_registry()   # materialize so module-level sites are covered
    return merge_snapshots([r.snapshot() for r in list(_REGISTRIES)])
