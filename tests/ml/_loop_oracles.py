"""The per-cluster Python loops ``repro.ml`` ran before its array kernels.

Kept verbatim (function bodies untouched) as the oracles the kernels of
``repro.ml.kmeans`` and ``repro.ml.jenks`` must match bit for bit:
``loop_pairwise_distances``, ``LoopKMeans`` (``_init_centers`` + ``_loop_fit``, the old ``fit``)
and ``loop_jenks_breaks``.
"""

import numpy as np

from repro.ml import KMeans
from repro.ml.kmeans import DistanceRows


def loop_pairwise_distances(a, b):
    """Euclidean distance matrix between rows of ``a`` and rows of ``b``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    sq = (np.sum(a ** 2, axis=1)[:, None]
          + np.sum(b ** 2, axis=1)[None, :]
          - 2.0 * a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq)


class LoopKMeans(KMeans):
    """:class:`~repro.ml.KMeans` with the loop bodies of seeding and fit."""

    # ------------------------------------------------------------------
    def _init_centers(self, data, rng):
        """k-means++ seeding (Arthur & Vassilvitskii, 2007)."""
        n = data.shape[0]
        centers = np.empty((self.n_clusters, data.shape[1]))
        centers[0] = data[rng.integers(n)]
        closest_sq = np.sum((data - centers[0]) ** 2, axis=1)
        for i in range(1, self.n_clusters):
            total = closest_sq.sum()
            if total <= 0:
                # All remaining points coincide with chosen centers.
                centers[i:] = data[rng.integers(n, size=self.n_clusters - i)]
                break
            probs = closest_sq / total
            idx = rng.choice(n, p=probs)
            centers[i] = data[idx]
            dist_sq = np.sum((data - centers[i]) ** 2, axis=1)
            np.minimum(closest_sq, dist_sq, out=closest_sq)
        return centers

    def fit(self, data):
        # build_cluster_summary hands the kernels a prepared sample.
        return self._loop_fit(data.data if isinstance(data, DistanceRows)
                              else data)

    def _loop_fit(self, data):
        """Cluster ``data`` (n x d). Returns self."""
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError("expected 2-D data, got shape {}".format(data.shape))
        n = data.shape[0]
        if n < self.n_clusters:
            raise ValueError(
                "need at least n_clusters={} points, got {}".format(
                    self.n_clusters, n))
        rng = np.random.default_rng(self.seed)
        centers = self._init_centers(data, rng)

        labels = np.zeros(n, dtype=np.int64)
        for iteration in range(self.max_iter):
            dist = loop_pairwise_distances(data, centers)
            labels = dist.argmin(axis=1)
            new_centers = centers.copy()
            for j in range(self.n_clusters):
                members = data[labels == j]
                if len(members):
                    new_centers[j] = members.mean(axis=0)
                else:
                    # Re-seed empty cluster at the farthest point.
                    farthest = dist.min(axis=1).argmax()
                    new_centers[j] = data[farthest]
            shift = np.linalg.norm(new_centers - centers)
            centers = new_centers
            self.n_iter_ = iteration + 1
            if shift <= self.tol:
                break

        dist = loop_pairwise_distances(data, centers)
        self.labels_ = dist.argmin(axis=1)
        self.centers_ = centers
        self.inertia_ = float(np.sum(dist[np.arange(n), self.labels_] ** 2))
        return self


def loop_jenks_breaks(values, n_classes):
    """Compute Jenks natural-break boundaries.

    Returns an ascending array of ``n_classes + 1`` boundaries
    ``[min, b1, ..., b_{k-1}, max]``; interval ``i`` is
    ``[boundaries[i], boundaries[i+1]]`` (right-closed on the last).

    The exact O(k * n^2) Fisher-Jenks dynamic program is run on sorted,
    de-duplicated values; preprocessing subsamples its input, keeping the
    cost bounded.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("cannot compute breaks of empty data")
    sorted_vals = np.sort(values)
    unique_vals = np.unique(sorted_vals)
    if n_classes < 1:
        raise ValueError("n_classes must be >= 1")
    if unique_vals.size <= n_classes:
        # Degenerate: every distinct value gets its own interval.
        bounds = np.concatenate([unique_vals, [unique_vals[-1]]])
        return bounds

    data = sorted_vals
    n = data.size

    # Prefix sums for O(1) within-class sum of squared deviations.
    prefix = np.concatenate([[0.0], np.cumsum(data)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(data ** 2)])

    def ssd(i, j):
        """Sum of squared deviations of data[i:j] (j exclusive)."""
        count = j - i
        total = prefix[j] - prefix[i]
        total_sq = prefix_sq[j] - prefix_sq[i]
        return total_sq - total * total / count

    # cost[c][j]: minimal SSD partitioning data[:j] into c classes.
    inf = np.inf
    cost = np.full((n_classes + 1, n + 1), inf)
    split = np.zeros((n_classes + 1, n + 1), dtype=np.int64)
    cost[0][0] = 0.0
    for c in range(1, n_classes + 1):
        for j in range(c, n + 1):
            best, best_i = inf, c - 1
            for i in range(c - 1, j):
                prev = cost[c - 1][i]
                if prev == inf:
                    continue
                candidate = prev + ssd(i, j)
                if candidate < best:
                    best, best_i = candidate, i
            cost[c][j] = best
            split[c][j] = best_i

    # Backtrack boundaries.
    bounds = np.empty(n_classes + 1)
    bounds[-1] = data[-1]
    bounds[0] = data[0]
    j = n
    for c in range(n_classes, 1, -1):
        i = split[c][j]
        bounds[c - 1] = data[i]
        j = i
    return bounds
