"""Registry unit tests: primitives, merge determinism, exporters, CLI."""

import bisect
import json
import math
import random

import pytest

from repro import obs
from repro.obs.__main__ import main as obs_main

pytestmark = pytest.mark.obs


def _filled_registry(seed, n_obs=200):
    rng = random.Random(seed)
    registry = obs.MetricsRegistry()
    counter = registry.counter("geometry.pack_cache.hits")
    hist = registry.histogram("serve.manager.flush.seconds")
    gauge = registry.gauge("serve.manager.queue.depth")
    for _ in range(n_obs):
        counter.inc(rng.randrange(3))
        hist.observe(rng.uniform(1e-6, 10.0))
    gauge.set(rng.randrange(100))
    return registry


class TestPrimitives:
    def test_counter_gauge_histogram_roundtrip(self):
        registry = obs.MetricsRegistry()
        registry.counter("a.b.c").inc(5)
        registry.gauge("a.b.depth").set(3)
        hist = registry.histogram("a.b.seconds")
        for value in (0.001, 0.02, 0.5):
            hist.observe(value)
        snap = registry.snapshot()
        assert snap["a.b.c"] == {"kind": "counter", "value": 5}
        assert snap["a.b.depth"]["value"] == 3
        assert snap["a.b.seconds"]["count"] == 3
        assert snap["a.b.seconds"]["min"] == pytest.approx(0.001)
        assert snap["a.b.seconds"]["max"] == pytest.approx(0.5)
        restored = obs.MetricsRegistry()
        restored.load(snap)
        assert restored.snapshot() == snap

    def test_get_or_create_returns_same_object(self):
        registry = obs.MetricsRegistry()
        assert registry.counter("x.y.z") is registry.counter("x.y.z")

    def test_kind_conflict_rejected(self):
        registry = obs.MetricsRegistry()
        registry.counter("x.y.z")
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("x.y.z")

    def test_name_scheme_enforced(self):
        registry = obs.MetricsRegistry()
        for bad in ("", "Upper.case", "has space", ".leading", "trailing.",
                    "double..dot"):
            with pytest.raises(ValueError):
                registry.counter(bad)

    def test_histogram_percentile_is_bucket_bound(self):
        hist = obs.Histogram()
        for value in (0.001,) * 99 + (5.0,):
            hist.observe(value)
        p50 = hist.percentile(0.50)
        assert p50 in obs.BUCKET_BOUNDS and p50 >= 0.001
        assert hist.percentile(0.999) >= 5.0 or \
            hist.percentile(0.999) in obs.BUCKET_BOUNDS

    def test_histogram_bucket_indices(self):
        def bucket(value):
            hist = obs.Histogram()
            hist.observe(value)
            return hist.counts.index(1)

        for i, bound in enumerate(obs.BUCKET_BOUNDS):
            assert bucket(bound) == i
            assert bucket(math.nextafter(bound, math.inf)) == i + 1
        for value in (0.0, -0.0, -1.0, -1e300):
            assert bucket(value) == 0, value
        assert bucket(1e300) == len(obs.BUCKET_BOUNDS)
        for value in (math.inf, -math.inf, math.nan):
            hist = obs.Histogram()
            hist.observe(value)
            assert hist.counts == [0] * len(hist.counts), value
            assert (hist.count, hist.nonfinite) == (0, 1), value

    def test_histogram_keeps_nonfinite_values_apart(self):
        hist = obs.Histogram()
        for value in (math.nan, 0.5, 2.0):
            hist.observe(value)
        assert (hist.vmin, hist.vmax, hist.mean) == (0.5, 2.0, 1.25)
        assert (hist.count, hist.nonfinite) == (2, 1)
        assert hist.percentile(1.0) == obs.BUCKET_BOUNDS[
            bisect.bisect_left(obs.BUCKET_BOUNDS, 2.0)]
        for value in (math.inf, -math.inf):
            hist.observe(value)
        snap = hist.snapshot()
        assert (snap["min"], snap["max"], snap["sum"]) == (0.5, 2.0, 2.5)
        assert snap["nonfinite"] == 3
        merged = obs.Histogram()
        merged.merge(snap)
        merged.merge(snap)
        assert merged.snapshot() == dict(
            snap, counts=[2 * n for n in snap["counts"]], count=4,
            sum=5.0, nonfinite=6)


def _assert_same_merge(left, right):
    """Merged snapshots must agree exactly on every integer field
    (bucket counts, counter values, min/max); histogram ``sum`` is a
    float accumulator kept for mean estimation only, so it may differ
    in the last ulp across merge orders."""
    assert sorted(left) == sorted(right)
    for name, entry in left.items():
        other = dict(right[name])
        entry = dict(entry)
        if entry["kind"] == "histogram":
            assert entry.pop("sum") == pytest.approx(other.pop("sum"))
        assert entry == other, name


class TestMergeDeterminism:
    def test_merge_is_order_independent(self):
        snaps = [_filled_registry(seed).snapshot() for seed in range(6)]
        forward = obs.merge_snapshots(snaps)
        _assert_same_merge(obs.merge_snapshots(list(reversed(snaps))),
                           forward)
        shuffled = list(snaps)
        for round_seed in range(5):
            random.Random(round_seed).shuffle(shuffled)
            _assert_same_merge(obs.merge_snapshots(shuffled), forward)

    def test_merge_equals_single_stream(self):
        """Splitting one observation stream across registries and
        merging yields the same histogram as observing it in one."""
        rng = random.Random(7)
        values = [rng.uniform(1e-6, 100.0) for _ in range(500)]
        whole = obs.MetricsRegistry()
        for value in values:
            whole.histogram("a.b.seconds").observe(value)
        parts = [obs.MetricsRegistry() for _ in range(4)]
        for i, value in enumerate(values):
            parts[i % 4].histogram("a.b.seconds").observe(value)
        merged = obs.merge_snapshots([p.snapshot() for p in parts])
        expected = whole.snapshot()["a.b.seconds"]
        got = merged["a.b.seconds"]
        assert got["counts"] == expected["counts"]
        assert got["count"] == expected["count"]
        assert got["min"] == expected["min"]
        assert got["max"] == expected["max"]

    def test_merged_percentiles_deterministic(self):
        snaps = [_filled_registry(seed).snapshot() for seed in range(4)]
        merged_a = obs.merge_snapshots(snaps)
        merged_b = obs.merge_snapshots(snaps[2:] + snaps[:2])
        hist_a, hist_b = obs.Histogram(), obs.Histogram()
        hist_a.merge(merged_a["serve.manager.flush.seconds"])
        hist_b.merge(merged_b["serve.manager.flush.seconds"])
        for q in (0.5, 0.9, 0.99):
            assert hist_a.percentile(q) == hist_b.percentile(q)

    def test_bucket_bound_mismatch_rejected(self):
        hist = obs.Histogram()
        snap = obs.Histogram().snapshot()
        snap["counts"] = snap["counts"][:-3]
        with pytest.raises(ValueError, match="bucket"):
            hist.merge(snap)


class TestExporters:
    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        records = [{"type": "span", "name": "a.b", "seconds": 0.5},
                   {"type": "span", "name": "a.b", "seconds": 0.25}]
        obs.write_jsonl(path, records)
        assert obs.read_jsonl(path) == records

    def test_summarize_tables(self):
        events = [{"type": "span", "name": "serve.flush", "seconds": s}
                  for s in (0.01, 0.02, 0.03)]
        snap = {"geometry.pack_cache.hits":
                {"kind": "counter", "value": 9},
                "geometry.pack_cache.misses":
                {"kind": "counter", "value": 1}}
        summary = obs.summarize_events(events, snap)
        assert summary["spans"][0]["name"] == "serve.flush"
        assert summary["spans"][0]["count"] == 3
        assert summary["ratios"] == [{"name": "geometry.pack_cache",
                                      "hits": 9, "misses": 1,
                                      "ratio": 0.9}]
        text = obs.format_summary(summary)
        assert "serve.flush" in text and "90.0%" in text

    def test_cli_summarize(self, tmp_path, capsys):
        events_path = tmp_path / "capture.jsonl"
        obs.write_jsonl(events_path, [
            {"type": "span", "name": "stage.one", "seconds": 0.1},
            {"name": "geometry.pack_cache.hits", "kind": "counter",
             "value": 4},
            {"name": "geometry.pack_cache.misses", "kind": "counter",
             "value": 4},
        ])
        assert obs_main(["summarize", str(events_path)]) == 0
        out = capsys.readouterr().out
        assert "stage.one" in out and "50.0%" in out

    def test_snapshot_is_json_safe(self):
        json.dumps(_filled_registry(5).snapshot())


class TestAggregate:
    def test_aggregate_merges_live_registries(self):
        a = obs.MetricsRegistry()
        b = obs.MetricsRegistry()
        a.counter("x.y.z").inc(2)
        b.counter("x.y.z").inc(3)
        obs.default_registry().counter("x.y.z").inc(1)
        merged = obs.aggregate()
        assert merged["x.y.z"]["value"] >= 6
