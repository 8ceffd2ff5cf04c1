"""Streaming-ingest freshness: label-to-fresh-prediction latency and
incremental vs full rescan speedup over an appendable chunk store.

The serving-side promise of ``append_blocks``: sessions that already
answered at store version N re-scan only the chunks their freshness
watermark has not covered — the closed prefix is served from the
per-session mark, bit-identically to a full rescan.  This bench drives
the real loop: an on-disk CAR store grows through several appends while
a pool of adapted Meta* sessions keeps predicting over it.

Measured per append:

* **label-to-fresh** — wall time from ``append_blocks`` returning to
  fresh predictions for every live session (the freshness SLA of the
  ingest path);
* **incremental vs full** — the watermarked ``predict_many_store``
  against the same call with the marks dropped (a restored manager's
  cold rescan), both on a cold prediction cache;
* **accounting** — ``SessionManager.last_store_scan`` must show at most
  ``sessions x new_chunks`` chunk evaluations on the incremental path.

The run ends with a drift-swap smoke: an out-of-range append trips the
:class:`~repro.store.FreshnessMonitor`, the flagged subspace is
refreshed + re-pretrained, and the live sessions' predictions still
match a full rescan bit for bit.

The incremental path must beat the full rescan by
``REPRO_INGEST_MIN_SPEEDUP`` (default 2.5x) on the last (largest)
append; set ``REPRO_INGEST_BASELINE=/path/to.json`` to record the
series (``benchmarks/BENCH_ingest.json`` holds the committed baseline).
"""

import copy
import json
import os
import time

import numpy as np
import pytest

from repro.bench import print_series
from repro.bench.workloads import convex_oracles
from repro.core import LTE, LTEConfig
from repro.core.meta_training import MetaHyperParams
from repro.data import build_dataset_store, make_car
from repro.serve import SessionManager

CHUNK_ROWS = 16_384
N_SESSIONS = 4
N_APPENDS = 3
#: (base rows, rows per append)
QUICK_SIZE = (150_000, 25_000)
FULL_SIZE = (600_000, 100_000)
# 2.5x is the acceptance bar on dedicated hardware; shared CI runners
# set REPRO_INGEST_MIN_SPEEDUP lower so timing noise cannot block
# merges.
MIN_SPEEDUP = float(os.environ.get("REPRO_INGEST_MIN_SPEEDUP", "2.5"))
BASELINE = os.environ.get("REPRO_INGEST_BASELINE")


def build_system(n_rows, directory):
    store = build_dataset_store("car", n_rows, seed=7,
                                chunk_rows=CHUNK_ROWS, directory=directory)
    lte = LTE(LTEConfig(budget=20, ku=20, kq=25, n_tasks=5,
                        meta=MetaHyperParams(epochs=1, local_steps=2,
                                             batch_size=3,
                                             pretrain_epochs=1),
                        basic_steps=10, online_steps=3,
                        store_sample_rows=2000))
    lte.fit_offline(store, subspaces=None)
    return store, lte


def cold_caches(manager, marks=None):
    """Reset the store-scan watermarks to a copy of ``marks`` (none by
    default: the next scan is a full one), leaving the sessions' adapted
    models untouched."""
    manager._store_marks = copy.deepcopy(marks) if marks else {}


def _best_of(fn, repeats=2):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.mark.ingest
@pytest.mark.benchmark(group="ingest")
def test_ingest_freshness(benchmark, scale, report, tmp_path):
    base_rows, append_rows = QUICK_SIZE if scale.name == "quick" \
        else FULL_SIZE

    def run():
        store, lte = build_system(base_rows, str(tmp_path / "car"))
        subspaces = list(lte.states)[:2]
        oracles = convex_oracles(lte, subspaces, N_SESSIONS,
                                 psi_choices=(12, 10), seed=5)
        manager = SessionManager(lte)
        sids = []
        for oracle in oracles:
            sid = manager.open_session(variant="meta_star",
                                       subspaces=subspaces)
            for subspace, tuples in manager.initial_tuples(sid).items():
                manager.submit_labels(
                    sid, subspace, oracle.label_subspace(subspace, tuples))
            sids.append(sid)
        manager.flush()
        manager.predict_many_store(sids, store)    # set the watermarks

        series = {"rows": [], "label_to_fresh_ms": [], "incremental_ms": [],
                  "full_ms": [], "speedup": [], "new_chunks": [],
                  "chunk_evals": [], "chunk_evals_possible": []}
        parity = True
        accounted = True
        for b in range(N_APPENDS):
            fresh_rows = make_car(append_rows, seed=100 + b).data
            closed_before = store.closed_chunks
            marks = copy.deepcopy(manager._store_marks)

            start = time.perf_counter()
            store.append_blocks([fresh_rows])
            incremental = manager.predict_many_store(sids, store)
            label_to_fresh = time.perf_counter() - start

            scan = dict(manager.last_store_scan)
            new_chunks = store.n_chunks - closed_before
            # The freshness contract: the incremental path evaluates at
            # most the chunks past each session's watermark.
            accounted &= scan["chunk_evals"] <= len(sids) * new_chunks

            def incremental_run():
                cold_caches(manager, marks)
                return manager.predict_many_store(sids, store)

            def full_run():
                cold_caches(manager)
                return manager.predict_many_store(sids, store)

            incr_s, incr_result = _best_of(incremental_run)
            full_s, full_result = _best_of(full_run)
            for sid in sids:
                parity &= np.array_equal(incr_result[sid], full_result[sid])
                parity &= np.array_equal(incremental[sid], full_result[sid])
            series["rows"].append(store.n_rows)
            series["label_to_fresh_ms"].append(label_to_fresh * 1e3)
            series["incremental_ms"].append(incr_s * 1e3)
            series["full_ms"].append(full_s * 1e3)
            series["speedup"].append(full_s / incr_s)
            series["new_chunks"].append(new_chunks)
            series["chunk_evals"].append(scan["chunk_evals"])
            series["chunk_evals_possible"].append(
                scan["chunk_evals_possible"])

        # Drift-swap smoke: an out-of-range append trips the monitor,
        # the flagged subspace is refreshed + re-pretrained, and live
        # sessions keep serving full-rescan-identical predictions.
        monitor = lte.freshness_monitor(threshold=0.2)
        monitor.observe(store)
        target = subspaces[0]
        drifting = make_car(append_rows, seed=999).data
        cols = list(target.columns)
        drifting[:, cols] = drifting[:, cols] * 4.0 + 100.0
        start = time.perf_counter()
        store.append_blocks([drifting])
        monitor.observe(store)
        drifted = monitor.drifted()
        lte.refresh_drifted(store, monitor, train=True)
        swap_s = time.perf_counter() - start
        post = manager.predict_many_store(sids, store)
        cold_caches(manager)
        full_post = manager.predict_many_store(sids, store)
        drift_ok = drifted == [target] and monitor.drifted() == [] and \
            all(np.array_equal(post[sid], full_post[sid]) for sid in sids)
        series["drift_swap_ms"] = swap_s * 1e3
        return series, parity, accounted, drift_ok

    (series, parity, accounted, drift_ok), = \
        [benchmark.pedantic(run, rounds=1, iterations=1)]
    labels = ["{}k".format(n // 1000) for n in series["rows"]]
    with report():
        print_series(
            "Streaming ingest ({} sessions, {}-row appends): ms".format(
                N_SESSIONS, append_rows), "rows", labels,
            {"label_to_fresh": series["label_to_fresh_ms"],
             "incremental": series["incremental_ms"],
             "full": series["full_ms"], "speedup": series["speedup"]})
        print_series(
            "  chunk accounting (drift swap {:.0f} ms)".format(
                series["drift_swap_ms"]), "rows", labels,
            {"new_chunks": series["new_chunks"],
             "evals": series["chunk_evals"],
             "possible": series["chunk_evals_possible"]})

    if BASELINE:
        with open(BASELINE, "w") as fh:
            json.dump({"chunk_rows": CHUNK_ROWS, "sessions": N_SESSIONS,
                       "append_rows": append_rows, "series": series},
                      fh, indent=2, sort_keys=True)

    # Bit-identical to a full rescan, always.
    assert parity
    # The incremental path scans only chunks past the watermarks.
    assert accounted
    # Drift detection fired for exactly the perturbed subspace and the
    # refresh rolled through live sessions.
    assert drift_ok
    # Acceptance bar: incremental >= MIN_SPEEDUP x full on the largest
    # store, and never slower at any append.
    assert series["speedup"][-1] >= MIN_SPEEDUP, \
        "incremental scan at {} rows was only {:.2f}x the full rescan " \
        "(min {})".format(series["rows"][-1], series["speedup"][-1],
                          MIN_SPEEDUP)
    assert min(series["speedup"]) >= 1.0
