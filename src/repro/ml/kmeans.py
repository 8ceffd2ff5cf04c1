"""Lloyd's k-means with k-means++ seeding, as array kernels.

Clustering is the workhorse of LTE's meta-task generation (Section V-B):
three independent rounds with k = ku, ks, kq summarize each meta-subspace
into cluster-center sets C_u, C_s, C_q, and the proximity matrices P_u, P_s
drive UIS construction and feature-vector expansion.  It is also most of
the cost of a warm start, a refresh and a set-up fit, so nothing here
loops over clusters in Python.

Bit-exactness contract: every kernel returns the bits of the per-cluster
Python loop it stands for (the oracles of
``tests/ml/test_oracle_parity.py``), so no centre, label, meta-task,
trained weight or prediction depends on which of the two ran.

* **Lloyd update** — a centre is the sum of its member rows *in row
  order* over the member count.  ``data[labels == j].mean(axis=0)`` sums
  that way for d >= 2 (numpy reduces a 2-D block over axis 0 row by row),
  and so does ``np.bincount(labels, weights=column)``.  For d == 1 numpy
  sees one contiguous run and sums it *pairwise*, ``0 + pairwise(members)``,
  which ``bincount`` does not reproduce (and ``random_decomposition`` does
  emit a 1-D trailing subspace on odd attribute counts): there the stably
  label-sorted column gets one leading zero per cluster and goes through
  ``np.add.reduceat``, whose ``first + pairwise(rest)`` per segment is
  then the same expression.
* **Assignment** — ``sqrt(max(|a|^2 + |b|^2 - (2a).b, 0))``, evaluated in
  that order by :meth:`DistanceRows.distances`, the package's one distance
  formula.  The ``sqrt`` stays under the ``argmin``: two distinct squared
  distances can round to one root, and the tie goes to the lower index.
* **k-means++ draw** — ``Generator.choice(n, p=p)`` computes
  ``cdf = p.cumsum(); cdf /= cdf[-1]`` and returns
  ``cdf.searchsorted(self.random(), side="right")``.  The seeding does
  exactly that without ``choice``'s per-call validation of ``p``, so the
  generator stream is the same; :meth:`KMeans.fit` rejects non-finite
  data itself, which that validation otherwise caught only by accident.
"""

from __future__ import annotations

import numpy as np

from ..obs import default_registry

__all__ = ["KMeans", "DistanceRows", "pairwise_distances"]


class DistanceRows:
    """The left operand of the distance kernel, prepared once: the float64
    rows, ``2 * rows`` and the squared row norms, which Lloyd's loop and
    the three rounds ``build_cluster_summary`` runs on one sample reuse."""

    __slots__ = ("data", "twice", "sq_norms")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ValueError(
                "expected 2-D data, got shape {}".format(self.data.shape))
        self.twice = 2.0 * self.data
        self.sq_norms = np.sum(self.data ** 2, axis=1)[:, None]

    def distances(self, b, out=None, work=None):
        """Euclidean distances from every row to every row of ``b``.

        ``out`` and ``work`` are optional C-contiguous float64
        ``(len(rows), len(b))`` buffers; the result is written into (and
        returned as) ``out`` with no other full-size temporary.
        """
        b = np.asarray(b, dtype=np.float64)
        shape = (len(self.data), len(b))
        out = np.empty(shape) if out is None else out
        work = np.empty(shape) if work is None else work
        np.matmul(self.twice, b.T, out=work)
        np.add(self.sq_norms, np.sum(b ** 2, axis=1)[None, :], out=out)
        np.subtract(out, work, out=out)
        np.maximum(out, 0.0, out=out)
        return np.sqrt(out, out=out)


def pairwise_distances(a, b):
    """Euclidean distance matrix between rows of ``a`` and rows of ``b``."""
    return DistanceRows(a).distances(b)


def _member_sums(columns, labels, counts):
    """``(k, d)`` per-cluster sums of member rows, each with the bits of
    ``data[labels == j].sum(axis=0)`` (see the module docstring).

    ``columns`` is the C-contiguous ``(d, n)`` transpose of the data,
    ``counts`` the member count of each of the k clusters.
    """
    k = len(counts)
    if len(columns) > 1:
        return np.stack([np.bincount(labels, weights=column, minlength=k)
                         for column in columns], axis=1)
    order = np.argsort(labels, kind="stable")
    padded = np.zeros(len(labels) + k)
    padded[np.arange(1, len(labels) + 1) + labels[order]] = columns[0][order]
    starts = np.cumsum(counts) - counts + np.arange(k)
    return np.add.reduceat(padded, starts)[:, None]


class KMeans:
    """Batch k-means (Lloyd's algorithm).

    Parameters
    ----------
    n_clusters:
        Number of cluster centers ``k``.
    max_iter:
        Iteration cap for Lloyd's loop.
    tol:
        Convergence threshold on center movement (Frobenius norm).
    seed:
        Seed for the k-means++ initialization.
    """

    def __init__(self, n_clusters, max_iter=100, tol=1e-6, seed=None):
        if n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        self.n_clusters = n_clusters
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed
        self.centers_ = None
        self.labels_ = None
        self.inertia_ = None
        self.n_iter_ = 0

    # ------------------------------------------------------------------
    def _init_centers(self, data, rng):
        """k-means++ seeding (Arthur & Vassilvitskii, 2007)."""
        n = data.shape[0]
        centers = np.empty((self.n_clusters, data.shape[1]))
        centers[0] = data[rng.integers(n)]
        closest_sq = np.sum((data - centers[0]) ** 2, axis=1)
        diff = np.empty_like(data)
        dist_sq = np.empty(n)
        cdf = np.empty(n)
        for i in range(1, self.n_clusters):
            total = closest_sq.sum()
            if total <= 0:
                # All remaining points coincide with chosen centers.
                centers[i:] = data[rng.integers(n, size=self.n_clusters - i)]
                break
            # rng.choice(n, p=closest_sq / total), without its validation.
            np.divide(closest_sq, total, out=cdf)
            np.cumsum(cdf, out=cdf)
            cdf /= cdf[-1]
            centers[i] = data[cdf.searchsorted(rng.random(), side="right")]
            np.subtract(data, centers[i], out=diff)
            np.square(diff, out=diff)
            np.sum(diff, axis=1, out=dist_sq)
            np.minimum(closest_sq, dist_sq, out=closest_sq)
        return centers

    def fit(self, data):
        """Cluster ``data`` — an (n x d) array, or a :class:`DistanceRows`
        when several fits share one sample.  Returns self."""
        rows = data if isinstance(data, DistanceRows) else DistanceRows(data)
        data = rows.data
        n = data.shape[0]
        if n < self.n_clusters:
            raise ValueError(
                "need at least n_clusters={} points, got {}".format(
                    self.n_clusters, n))
        if not np.isfinite(data).all():
            raise ValueError("cannot cluster non-finite data (NaN or inf)")
        rng = np.random.default_rng(self.seed)
        centers = self._init_centers(data, rng)

        columns = np.ascontiguousarray(data.T)
        dist = np.empty((n, self.n_clusters))
        work = np.empty_like(dist)
        for iteration in range(self.max_iter):
            rows.distances(centers, out=dist, work=work)
            labels = dist.argmin(axis=1)
            counts = np.bincount(labels, minlength=self.n_clusters)
            new_centers = (_member_sums(columns, labels, counts)
                           / np.maximum(counts, 1)[:, None])
            empty = counts == 0
            if empty.any():
                # Re-seed empty clusters at the farthest point.
                new_centers[empty] = data[dist.min(axis=1).argmax()]
            shift = np.linalg.norm(new_centers - centers)
            centers = new_centers
            self.n_iter_ = iteration + 1
            if shift <= self.tol:
                break
        default_registry().counter("ml.kmeans.iterations").inc(self.n_iter_)

        rows.distances(centers, out=dist, work=work)
        self.labels_ = dist.argmin(axis=1)
        self.centers_ = centers
        self.inertia_ = float(np.sum(dist[np.arange(n), self.labels_] ** 2))
        return self

    def predict(self, data):
        """Assign each row of ``data`` to its nearest learned center."""
        if self.centers_ is None:
            raise RuntimeError("KMeans.predict called before fit")
        return pairwise_distances(data, self.centers_).argmin(axis=1)
