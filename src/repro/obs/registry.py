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
``shard.gateway.rpc.seconds``                    histogram   seconds
``shard.gateway.rpc.calls``                      counter     calls
``shard.gateway.workers.alive``                  gauge       workers
``shard.gateway.workers.crashed``                counter     workers
``shard.gateway.pending.depth``                  gauge       batches
``store.scan.plans``                             counter     scans
``store.scan.chunks.scanned``                    counter     chunks
``store.scan.chunks.pruned``                     counter     chunks
``store.scan.chunks.watermark_skipped``          counter     chunks
``store.scan.chunks.planned``                    counter     chunk·sessions
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
``nn.optim.adam.numpy_steps``                    counter     steps
``train.offline.pretrain_epoch.seconds``         histogram   seconds
``train.offline.meta_epoch.seconds``             histogram   seconds
``train.offline.epochs.pretrain``                counter     epochs
``train.offline.epochs.meta``                    counter     epochs
================================================ =========== ==========

Design constraints (the no-interference guarantee):

* **numerics-neutral** — metrics never touch model data, never draw
  random numbers, never change the float op sequence of any
  instrumented path; metrics cannot change a prediction by a single
  bit, and installing a span sink cannot either (asserted by
  ``tests/obs``, which serves with and without a sink);
* **deterministic merges** — every histogram shares one fixed
  log-scale bucket-bound table (:data:`BUCKET_BOUNDS`), so merging two
  histograms is an element-wise integer add: associative, commutative,
  independent of merge order and of which process observed what;
* **non-finite values apart** — a histogram counts NaN and ±inf
  observations in its ``nonfinite`` field, which its snapshot carries
  and merges add, and keeps them out of its buckets, ``count``,
  ``sum``, ``min`` and ``max``: a NaN shows as a count instead of
  turning every later mean and percentile into NaN;
* **always on, cheap** — there is no off switch: a counter increment,
  gauge set or histogram observation costs well under a microsecond,
  and a 30 s end-to-end run makes a few thousand of them.  Spans are
  the one opt-in part: with no sink installed the tracer returns one
  shared no-op context manager (no per-call allocation).

Ownership model: a component with per-instance counts (the session
manager) owns a private :class:`MetricsRegistry`, read as its
``metrics``; what it owns counts into that registry too (the
compiled-hull pack cache counts into the serving manager's).
Registries auto-enlist in a process-wide weak set, so
:func:`aggregate` merges every live
registry — plus the :func:`default_registry` used by module-level sites
(store scans, appends, offline preparation, training epochs) — into
one process snapshot.  That snapshot is what a shard worker ships to
the gateway.
"""

from __future__ import annotations

import bisect
import math
import weakref

__all__ = [
    "BUCKET_BOUNDS", "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "default_registry", "aggregate", "merge_snapshots",
    "reset_default_registry", "reset_all_metrics",
]

#: Fixed log-scale histogram bucket upper bounds, shared by **every**
#: histogram in the process (and across processes): quarter-decade steps
#: from ~316 ns to 1000 (seconds for latency metrics, dimensionless for
#: scores).  One shared table is what makes cross-worker merges a plain
#: element-wise add — no bound negotiation, no order sensitivity.
BUCKET_BOUNDS = tuple(10.0 ** (k / 4.0) for k in range(-26, 13))


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

    Bucket *i* counts finite observations ``<= BUCKET_BOUNDS[i]``; the
    final overflow bucket counts the finite rest.  Because every
    histogram in every process shares :data:`BUCKET_BOUNDS`, merging is
    an element-wise integer add — deterministic regardless of merge
    order or process boundaries.  ``sum`` is kept for mean estimation
    only (telemetry, never model data).  NaN and ±inf are counted in
    ``nonfinite`` and nowhere else, so one of them cannot turn ``sum``,
    ``min``, ``max``, the mean or a percentile into NaN for good.
    """

    __slots__ = ("counts", "count", "total", "vmin", "vmax", "nonfinite")
    kind = "histogram"

    def __init__(self):
        self.counts = [0] * (len(BUCKET_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = None
        self.vmax = None
        self.nonfinite = 0

    def observe(self, value):
        value = float(value)
        if not math.isfinite(value):
            self.nonfinite += 1
            return
        self.counts[bisect.bisect_left(BUCKET_BOUNDS, value)] += 1
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
                "min": self.vmin, "max": self.vmax,
                "nonfinite": int(self.nonfinite)}

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
        self.nonfinite += int(snap["nonfinite"])
        if snap["min"] is not None and \
                (self.vmin is None or snap["min"] < self.vmin):
            self.vmin = snap["min"]
        if snap["max"] is not None and \
                (self.vmax is None or snap["max"] > self.vmax):
            self.vmax = snap["max"]


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

# Live registries, for process-wide aggregation.  Weak: a
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

    Every registry enlists in the process-wide weak set that
    :func:`aggregate` merges.
    """

    def __init__(self):
        self._metrics = {}
        _REGISTRIES.add(self)

    def _get(self, name, kind):
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
        """The scalar value of a counter/gauge (0/default when absent)."""
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
        for name, entry in sorted(snap.items()):
            self._get(_check_name(name), entry["kind"]).merge(entry)
        return self

    def load(self, snap):
        """Restore a snapshot *exactly* (checkpoint restore): existing
        state is discarded, not merged into.  Metric objects are reset
        in place so references components cached at construction stay
        live."""
        for metric in self._metrics.values():
            metric.__init__()
        return self.merge(snap)


# ----------------------------------------------------------------------
# Process-wide aggregation
# ----------------------------------------------------------------------
_DEFAULT = [None]


def default_registry():
    """The registry module-level call sites record into (store scans,
    append commits, training epochs) — components with per-instance
    counts own their own registries instead."""
    registry = _DEFAULT[0]
    if registry is None:
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
    merged = MetricsRegistry()
    for snap in snapshots:
        merged.merge(snap)
    return merged.snapshot()


def aggregate():
    """One merged snapshot of every live registry in this process.

    This is the process-wide view a shard worker ships to the gateway:
    the default registry plus every component-owned registry (session
    manager, pack caches) still alive.  Registries are merged in a
    deterministic order-insensitive way, so two aggregations over the
    same state are identical.
    """
    default_registry()   # materialize so module-level sites are covered
    return merge_snapshots([r.snapshot() for r in list(_REGISTRIES)])
