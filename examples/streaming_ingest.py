"""Streaming ingest: grow a store under live sessions, catch drift.

Demonstrates the appendable chunk store and the freshness machinery
(``ChunkStore.append_blocks``, session watermarks,
``FreshnessMonitor``):

1. an on-disk CAR store is built and an LTE system fitted over it; a
   serving engine opens Meta* sessions that label and predict;
2. new rows are *appended* to the live store — closed chunks keep their
   bytes and digests, the manifest commit is a single atomic rename;
3. the sessions predict again: each one re-scans only the chunks past
   its freshness watermark and the merged answer is bit-identical to a
   full rescan (asserted);
4. a batch of out-of-distribution rows lands: the
   ``FreshnessMonitor`` — which reads *zone maps only*, no row data —
   flags the subspaces whose fitted scaler range was escaped;
5. ``refresh_drifted`` rebuilds those subspaces' offline artifacts and
   re-pretrains them; already-open sessions keep their adapted state
   (replace, never mutate), new sessions pick up the fresh fit;
6. observability (``repro.obs``): the whole run executes inside a span
   capture, and the end of the run prints a per-stage latency
   breakdown — client-side stage spans plus the manager's own latency
   histograms, append commit timings and cache hit ratios.

For the multi-process tier the same story runs through
``ShardGateway.refresh_model(drifted)`` — every worker catches up on
the grown store and installs the refreshed artifacts without dropping
a session (see ``examples/sharded_serving.py`` for the gateway setup).

Run:  python examples/streaming_ingest.py
"""

import os
import tempfile
import time

import numpy as np

from repro import obs
from repro.bench.workloads import convex_oracles
from repro.core import LTE, LTEConfig
from repro.core.meta_training import MetaHyperParams
from repro.data import build_dataset_store, make_car
from repro.serve import SessionManager

BASE_ROWS = 120_000
APPEND_ROWS = 20_000
CHUNK_ROWS = 8_192


def main():
    workdir = tempfile.mkdtemp(prefix="repro-streaming-")

    print("Building a {:,}-row on-disk CAR store...".format(BASE_ROWS))
    store = build_dataset_store("car", BASE_ROWS, seed=7,
                                chunk_rows=CHUNK_ROWS,
                                directory=os.path.join(workdir, "car"))
    print("  {} chunks, store version {} (digest {})".format(
        store.n_chunks, store.store_version, store.digest))

    lte = LTE(LTEConfig(budget=20, ku=20, kq=25, n_tasks=5,
                        meta=MetaHyperParams(epochs=1, local_steps=2,
                                             batch_size=3,
                                             pretrain_epochs=1),
                        basic_steps=10, online_steps=3,
                        store_sample_rows=2000))
    lte.fit_offline(store, subspaces=None)
    subspaces = list(lte.states)[:2]
    monitor = lte.freshness_monitor(threshold=0.2)
    monitor.observe(store)

    manager = SessionManager(lte)
    oracles = convex_oracles(lte, subspaces, 3, psi_choices=(12, 10),
                             seed=5)
    # Capture spans for the rest of the run: client-side stage spans
    # below plus the manager's own (serve.manager.adapt / store_scan).
    capture = obs.capture()
    events = capture.__enter__()
    sids = []
    with obs.span("example.adapt_wave", sessions=3):
        for oracle in oracles:
            sid = manager.open_session(variant="meta_star",
                                       subspaces=subspaces)
            for subspace, tuples in manager.initial_tuples(sid).items():
                manager.submit_labels(
                    sid, subspace,
                    oracle.label_subspace(subspace, tuples))
            sids.append(sid)
        manager.flush()
        manager.predict_many_store(sids, store)
    print("  {} sessions adapted and watermarked at version {}".format(
        len(sids), store.store_version))

    print("\nAppending {:,} rows to the live store...".format(APPEND_ROWS))
    start = time.perf_counter()
    with obs.span("example.append", rows=APPEND_ROWS):
        store.append_blocks([make_car(APPEND_ROWS, seed=11).data])
    with obs.span("example.fresh_predict"):
        fresh = manager.predict_many_store(sids, store)
    elapsed = time.perf_counter() - start
    scan = dict(manager.last_store_scan)
    print("  label-to-fresh-prediction in {:.0f} ms: {} of {} possible "
          "chunk evaluations ({} skipped by watermarks, {} by zone "
          "maps)".format(elapsed * 1e3, scan["chunk_evals"],
                         scan["chunk_evals_possible"],
                         scan["watermark_skipped"],
                         scan["pruned_skipped"]))

    for sid in sids:                 # drop the watermarks: a full rescan
        manager.session(sid)._store_marks.clear()
    full = manager.predict_many_store(sids, store)
    assert all(np.array_equal(fresh[sid], full[sid]) for sid in sids)
    print("  incremental answers are bit-identical to a full rescan")
    assert monitor.observe(store) and monitor.drifted() == []
    print("  in-distribution append: no drift flagged")

    print("\nAppending {:,} out-of-distribution rows...".format(
        APPEND_ROWS))
    drifting = make_car(APPEND_ROWS, seed=13).data
    cols = list(subspaces[0].columns)
    drifting[:, cols] = drifting[:, cols] * 4.0 + 100.0
    with obs.span("example.append", rows=APPEND_ROWS, distribution="ood"):
        store.append_blocks([drifting])
    monitor.observe(store)
    drifted = monitor.drifted()
    print("  monitor (zone maps only) flags: {}".format(
        [tuple(s.names) for s in drifted]))

    start = time.perf_counter()
    with obs.span("example.drift_refresh"):
        lte.refresh_drifted(store, monitor, train=True)
    print("  refreshed + re-pretrained in {:.1f}s; live sessions kept "
          "their adapted state".format(time.perf_counter() - start))

    post = manager.predict_many_store(sids, store)
    for sid in sids:
        manager.session(sid)._store_marks.clear()
    again = manager.predict_many_store(sids, store)
    assert all(np.array_equal(post[sid], again[sid]) for sid in sids)
    fresh_sid = manager.open_session(variant="meta_star",
                                     subspaces=subspaces)
    for subspace, tuples in manager.initial_tuples(fresh_sid).items():
        manager.submit_labels(fresh_sid, subspace,
                              oracles[0].label_subspace(subspace, tuples))
    manager.flush()
    manager.predict_store(fresh_sid, store)
    print("  old sessions serve unchanged; new session adapted under "
          "the refreshed artifacts (store version {})".format(
              store.store_version))

    capture.__exit__(None, None, None)
    # The manager owns its registry; append/freshness metrics live in
    # the process default registry — aggregate() merges every live one.
    print("\nPer-stage latency breakdown (client spans + process "
          "metrics):")
    print(obs.format_summary(obs.summarize_events(events,
                                                  obs.aggregate())))


if __name__ == "__main__":
    main()
