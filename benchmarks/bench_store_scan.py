"""Store scan throughput: zone-map chunk pruning vs full-table scans.

Region prediction over a large exploratory table is the hot loop the
chunk store exists for: a user's interest region occupies a small slice
of the attribute space, so most chunks of a table with any write
locality (time-ordered appends, segment loads, clustered ingest) can be
skipped on their zone maps alone.  This bench builds an on-disk CAR-like
table ordered by its first attribute (the classic append pattern),
draws UIS-style interest regions (unions of convex hulls over a narrow
band of the sort attribute), and times the same membership query two
ways:

* **full scan** — every chunk is read and run through the exact packed
  membership kernel (pruning disabled);
* **pruned scan** — :class:`~repro.store.ChunkScan` drops chunks whose
  zone maps cannot intersect the region's conservative bboxes, then
  runs the identical kernel on the survivors.

Masks must agree bit for bit at every size (the planner's contract);
the pruned scan must beat the full scan by ``REPRO_STORE_MIN_SPEEDUP``
(default 5x) at the largest size, where peak traced allocations must
also stay bounded by chunks, not the table.

Set ``REPRO_STORE_BASELINE=/path/to.json`` to record the series (see
``benchmarks/BENCH_store.json`` for the committed baseline).
"""

import json
import os
import time
import tracemalloc

import numpy as np
import pytest

from repro.bench import print_series
from repro.geometry import Hull, UnionRegion
from repro.store import ChunkScan, ChunkStore

CHUNK_ROWS = 16_384
#: Rows per size; the largest carries the acceptance bar.
SIZES = (100_000, 300_000, 1_000_000)
# 5x is the acceptance bar on dedicated hardware; shared CI runners set
# REPRO_STORE_MIN_SPEEDUP lower so timing noise cannot block merges.
MIN_SPEEDUP = float(os.environ.get("REPRO_STORE_MIN_SPEEDUP", "5.0"))
BASELINE = os.environ.get("REPRO_STORE_BASELINE")


def build_store(n_rows, directory, seed=0):
    """On-disk table with append locality: blocks ordered by column 0."""
    rng = np.random.default_rng(seed)
    block = 50_000
    edges = np.linspace(0.0, 100.0, -(-n_rows // block) + 1)

    def blocks():
        remaining = n_rows
        for i in range(len(edges) - 1):
            rows = min(block, remaining)
            remaining -= rows
            lead = rng.uniform(edges[i], edges[i + 1], size=rows)
            rest = np.column_stack([
                rng.normal(lead * 0.5, 4.0),
                rng.gamma(2.0, 10.0, size=rows),
                rng.uniform(-50, 50, size=rows),
            ])
            yield np.column_stack([np.sort(lead), rest])

    return ChunkStore.from_blocks(
        "scan-bench", ["t", "a", "b", "c"], blocks(),
        chunk_rows=CHUNK_ROWS, directory=directory)


def interest_region(store, seed=1):
    """UIS-style union of hulls over a narrow band of the sort column."""
    rng = np.random.default_rng(seed)
    lo, hi = store.column_bounds()
    center = rng.uniform(lo[0] + 10, hi[0] - 10)
    hulls = []
    for _ in range(4):
        t0 = center + rng.uniform(-2.0, 2.0)
        pts = np.column_stack([
            rng.uniform(t0, t0 + 1.0, size=12),
            rng.normal(t0 * 0.5, 3.0, size=12),
            rng.uniform(5, 40, size=12),
            rng.uniform(-30, 30, size=12),
        ])
        hulls.append(Hull(pts))
    return UnionRegion(hulls)


def full_scan(store, region):
    """Pruning disabled: every chunk through the exact kernel."""
    out = np.zeros(store.n_rows, dtype=bool)
    for start, block in store.iter_chunks():
        out[start:start + len(block)] = region.contains(block)
    return out


def _best_of(fn, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.mark.store
@pytest.mark.benchmark(group="store")
def test_store_scan_speedup(benchmark, capsys, tmp_path):
    sizes = SIZES

    def run():
        series = {"full_ms": [], "pruned_ms": [], "speedup": [],
                  "chunks": [], "chunks_scanned": [], "peak_mib": []}
        parity = True
        for n_rows in sizes:
            store = build_store(n_rows, str(tmp_path / str(n_rows)))
            region = interest_region(store)
            region.compiled()   # compile outside the timed section
            scan = ChunkScan(store, region)
            full_s, full_mask = _best_of(lambda: full_scan(store, region))
            pruned_s, pruned_mask = _best_of(
                lambda: ChunkScan(store, region).row_mask())
            parity &= np.array_equal(full_mask, pruned_mask)
            tracemalloc.start()
            ChunkScan(store, region).row_mask()
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            series["full_ms"].append(full_s * 1e3)
            series["pruned_ms"].append(pruned_s * 1e3)
            series["speedup"].append(full_s / pruned_s)
            series["chunks"].append(store.n_chunks)
            series["chunks_scanned"].append(int(scan.chunk_mask().sum()))
            series["peak_mib"].append(peak / 2 ** 20)
        return series, parity

    (series, parity), = [benchmark.pedantic(run, rounds=1, iterations=1)]
    labels = ["{}k".format(n // 1000) for n in sizes]
    with capsys.disabled():
        print_series(
            "Store region scan ({}-row chunks, on disk): ms".format(
                CHUNK_ROWS), "rows", labels,
            {"full": series["full_ms"], "pruned": series["pruned_ms"],
             "speedup": series["speedup"]})
        print_series(
            "  chunks touched + peak traced MiB", "rows", labels,
            {"chunks": series["chunks"],
             "scanned": series["chunks_scanned"],
             "peak_mib": series["peak_mib"]})

    if BASELINE:
        with open(BASELINE, "w") as fh:
            json.dump({"chunk_rows": CHUNK_ROWS,
                       "sizes": list(sizes), "series": series},
                      fh, indent=2, sort_keys=True)

    # The planner's contract: exact masks, never "close enough".
    assert parity
    # Acceptance bar: pruned >= MIN_SPEEDUP x full at the largest size.
    assert series["speedup"][-1] >= MIN_SPEEDUP, \
        "pruned scan at {} rows was only {:.2f}x the full scan " \
        "(min {})".format(sizes[-1], series["speedup"][-1], MIN_SPEEDUP)
    # Pruning must never lose to the full scan at any measured size.
    assert min(series["speedup"]) >= 1.0
    # Peak memory is bounded by chunks, not table size: the largest
    # size's traced peak stays within a few chunks' worth of float64.
    chunk_mib = CHUNK_ROWS * 4 * 8 / 2 ** 20
    assert series["peak_mib"][-1] < 16 * chunk_mib, \
        "peak {}MiB exceeds the chunk-bounded budget".format(
            series["peak_mib"][-1])
