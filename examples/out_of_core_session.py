"""Out-of-core exploration: a full explore session over an on-disk
2M-row table in bounded memory.

Demonstrates the chunked columnar store (``repro.store``):

1. a 2,000,000-row synthetic CAR table is *generated chunk by chunk*
   straight onto disk (``build_dataset_store``) — the full table is
   never materialized, peak memory stays O(chunk);
2. the store is re-clustered by registration year
   (``ChunkStore.cluster_by``, a single-pass streaming CLUSTER BY with
   per-band disk spills), giving every chunk a tight zone range — the
   locality zone maps need;
3. the offline phase fits on the store: scalers come off the zone maps
   (exact global bounds, no data pass) and clustering/preprocessing run
   on a bounded stratified chunk sample;
4. a Meta* session labels its initial tuples and predicts over all 2M
   rows chunk-wise — the zone-map planner skips the chunks the user's
   interest region cannot overlap, bit-identically to a dense pass;
5. ``tracemalloc`` proves the online scan allocates chunk-scale
   megabytes, not the ~1 GiB a whole-table encode would cost.

The stores live in a temporary directory (``$TMPDIR``), removed when
the run ends.

Run:  python examples/out_of_core_session.py
"""

import os
import tempfile
import time
import tracemalloc

import numpy as np

from repro.bench import subspace_region
from repro.core import LTE, LTEConfig, UISMode
from repro.core.meta_training import MetaHyperParams
from repro.data import build_dataset_store
from repro.explore import ConjunctiveOracle, f1_score
from repro.store.scan import session_chunk_keep

N_ROWS = 2_000_000
CHUNK_ROWS = 16_384


def main():
    """Run the walk-through in a temporary directory, removed when it
    ends (also on an error)."""
    with tempfile.TemporaryDirectory(prefix="repro-out-of-core-") as workdir:
        explore(workdir)
        print("Removing the store directory {}.".format(workdir))


def explore(workdir):
    """Steps 1-5 above, with every store under ``workdir``."""
    print("Generating a {:,}-row CAR table chunk-by-chunk onto disk..."
          .format(N_ROWS))
    start = time.perf_counter()
    raw = build_dataset_store("car", N_ROWS, seed=7, chunk_rows=CHUNK_ROWS,
                              directory=os.path.join(workdir, "car-raw"))
    print("  {} chunks written in {:.1f}s (digest {})".format(
        raw.n_chunks, time.perf_counter() - start, raw.digest))

    print("Re-clustering by 'year' so zone maps get pruning leverage...")
    start = time.perf_counter()
    store = raw.cluster_by("year",
                           directory=os.path.join(workdir, "car-2m"))
    on_disk = sum(os.path.getsize(os.path.join(store.directory, f))
                  for f in os.listdir(store.directory))
    print("  {} chunks, {:.0f} MiB on disk, clustered in {:.1f}s".format(
        store.n_chunks, on_disk / 2 ** 20, time.perf_counter() - start))

    config = LTEConfig(budget=30, ku=40, kq=60, n_tasks=40,
                       embed_size=32, hidden_size=32,
                       meta=MetaHyperParams(epochs=1, local_steps=6),
                       online_steps=30, store_sample_rows=20_000)
    lte = LTE(config)
    print("Offline phase on the store (bounded stratified chunk samples, "
          "scalers from zone maps)...")
    start = time.perf_counter()
    lte.fit_offline(store, subspaces=None)
    subspaces = list(lte.states)[:2]
    print("  {} subspaces meta-trained in {:.1f}s; per-subspace working "
          "set: {} rows (table: {:,})".format(
              len(lte.states), time.perf_counter() - start,
              len(next(iter(lte.states.values())).data), store.n_rows))

    # A simulated user with a ground-truth interest region.
    oracle = ConjunctiveOracle({
        s: subspace_region(lte.states[s], UISMode(alpha=2, psi=8), seed=19)
        for s in subspaces})

    session = lte.start_session(variant="meta_star", subspaces=subspaces)
    print("Online phase: labelling {} initial tuples per subspace..."
          .format(config.budget))
    for subspace, tuples in session.initial_tuples().items():
        session.submit_labels(subspace,
                              oracle.label_subspace(subspace, tuples))

    keep = session_chunk_keep(store, session._subsessions)
    print("Predicting UIR membership over all {:,} rows: the planner "
          "prunes {}/{} chunks outright...".format(
              store.n_rows, int((~keep).sum()), store.n_chunks))
    tracemalloc.start()
    start = time.perf_counter()
    predictions = session.predict_store(store)
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    encode_gib = store.n_rows * (
        sum(s.preprocessor.width for s in lte.states.values())) * 8 / 2 ** 30
    print("  scan: {:.2f}s, peak traced allocations {:.1f} MiB "
          "(a whole-table encode would allocate ~{:.1f} GiB)".format(
              elapsed, peak / 2 ** 20, encode_gib))

    print("Scoring against the ground truth (chunk-pruned oracle scan)...")
    truth = oracle.ground_truth(store)
    print("  F1 = {:.3f} over {:,} rows; {:,} predicted interesting"
          .format(f1_score(truth, predictions), store.n_rows,
                  int(predictions.sum())))

    retrieved = session.retrieve(limit=5)
    print("First retrieved tuples:\n{}".format(np.round(retrieved, 1)))


if __name__ == "__main__":
    main()
