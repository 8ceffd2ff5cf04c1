"""Sampling utilities for offline scalability.

Both meta-task clustering (Section V, footnote: "clustering is run on a
randomly sampled (1%) subset") and tabular preprocessing (Section VII-A:
"limit the sampling ratio under 1%") operate on samples rather than the
full exploratory database.

Every helper takes ``seed`` as anything ``np.random.default_rng``
accepts — ``None``, an int, a ``SeedSequence``, or an existing
``Generator`` (passed through unchanged, so repeated calls continue one
stream) — so callers can thread one RNG through a pipeline instead of
minting ad-hoc integer seeds at each hop.  ``stratified_chunk_sample``
is the out-of-core variant used by :mod:`repro.store`: it allocates the
sample across chunks proportionally to their row counts and draws
within each chunk, so memory stays bounded by the chunk size.
"""

from __future__ import annotations

import numpy as np

__all__ = ["random_indices", "random_sample", "ratio_size", "ratio_sample",
           "stratified_indices", "stratified_chunk_sample"]


def random_indices(n_total, n, seed=None):
    """``n`` distinct row indices out of ``n_total`` (capped, unsorted).

    The single source of uniform row sampling: ``random_sample``,
    ``Table.sample_rows``, ``ChunkStore.sample_rows`` and the framework's
    internal statistic samples all draw through this helper, so any two
    of them given the same ``(n_total, n, seed)`` pick identical rows.
    """
    n = min(int(n), int(n_total))
    rng = np.random.default_rng(seed)
    return rng.choice(int(n_total), size=n, replace=False)


def random_sample(data, n, seed=None):
    """Uniform sample of ``n`` rows without replacement (capped)."""
    data = np.asarray(data)
    return data[random_indices(len(data), n, seed=seed)]


def ratio_size(n_total, ratio, min_rows=100):
    """Rows :func:`ratio_sample` draws out of ``n_total``."""
    if not 0.0 < ratio <= 1.0:
        raise ValueError("ratio must be in (0, 1], got {}".format(ratio))
    return max(min(n_total, min_rows), int(round(n_total * ratio)))


def ratio_sample(data, ratio, seed=None, min_rows=100):
    """Sample a fraction of rows (default floor keeps tiny tables usable)."""
    data = np.asarray(data)
    return random_sample(data, ratio_size(len(data), ratio, min_rows),
                         seed=seed)


def stratified_indices(labels, per_class, seed=None):
    """Pick up to ``per_class`` indices of each distinct label value."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    chosen = []
    for value in np.unique(labels):
        pool = np.flatnonzero(labels == value)
        take = min(per_class, len(pool))
        chosen.append(rng.choice(pool, size=take, replace=False))
    return np.sort(np.concatenate(chosen)) if chosen \
        else np.zeros(0, dtype=np.int64)


def stratified_chunk_sample(store, n, columns=None, seed=None):
    """Sample ``n`` rows from a chunk store, stratified by chunk.

    The sample is allocated across chunks proportionally to their row
    counts (largest-remainder rounding, so exactly ``min(n, n_rows)``
    rows come back) and drawn uniformly without replacement inside each
    chunk.  Only the sampled chunks' bytes are touched and at most one
    chunk is resident at a time, so peak memory is O(chunk + sample) —
    the out-of-core counterpart of :func:`random_sample` that the store-
    backed offline phase (clustering, preprocessing fits) rides.

    Parameters
    ----------
    store:
        A :class:`~repro.store.ChunkStore` (anything with ``zone_maps``,
        ``chunk`` and ``offsets``).
    n:
        Target sample size (capped at the store's row count).
    columns:
        Optional column projection applied while gathering.
    seed:
        Int seed or ``numpy.random.Generator``.

    Returns the ``(n, d)`` sampled rows (float64).
    """
    counts = store.zone_maps.counts
    total = int(counts.sum())
    n = min(int(n), total)
    width = store.n_attributes if columns is None else len(list(columns))
    if n <= 0 or total == 0:
        return np.zeros((0, width), dtype=np.float64)
    rng = np.random.default_rng(seed)
    # Largest-remainder proportional allocation, capped per chunk.
    exact = n * counts / total
    alloc = np.minimum(np.floor(exact).astype(np.int64), counts)
    remainder = exact - alloc
    short = n - int(alloc.sum())
    if short > 0:
        order = np.argsort(-remainder, kind="stable")
        for ci in order:
            if short == 0:
                break
            if alloc[ci] < counts[ci]:
                alloc[ci] += 1
                short -= 1
        if short > 0:   # remainders exhausted; fill wherever room is left
            for ci in np.flatnonzero(alloc < counts):
                take = min(short, int(counts[ci] - alloc[ci]))
                alloc[ci] += take
                short -= take
                if short == 0:
                    break
    cols = None if columns is None else list(columns)
    parts = []
    for ci in np.flatnonzero(alloc):
        block = store.chunk(ci)
        rows = block[np.sort(rng.choice(int(counts[ci]),
                                        size=int(alloc[ci]),
                                        replace=False))]
        parts.append(np.asarray(rows if cols is None else rows[:, cols],
                                dtype=np.float64))
    return np.vstack(parts) if parts \
        else np.zeros((0, width), dtype=np.float64)
