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
  Lloyd's loop reads only each row's label and least distance
  (:meth:`DistanceRows.nearest`), so it never forms the roots: the row's
  label is the first centre whose squared distance has the least one's
  root (``sqrt`` is monotone and correctly rounded).
* **k-means++ draw** — ``Generator.choice(n, p=p)`` computes
  ``cdf = p.cumsum(); cdf /= cdf[-1]`` and returns
  ``cdf.searchsorted(self.random(), side="right")``.  The seeding does
  exactly that without ``choice``'s per-call validation of ``p``, so the
  generator stream is the same; :meth:`KMeans.fit` rejects non-finite
  data itself, which that validation otherwise caught only by accident.

**Compiled loops.**  The assignment and the k-means++ step run as the C
functions of ``_kmeans.c`` (built once per process by
:mod:`repro.native`, as Adam's update is, and checked against the
numpy kernels below before first use): numpy keeps the dense product,
the norms, ``closest_sq.sum()`` and ``rng.random()``; one C pass per
call does the rest, in the numpy kernels' order.  ``ctypes`` releases
the GIL, so the two halves of a preparation cluster on two cores.  With
no compiler the numpy kernels run, with the same bits, and every such
fit counts in ``ml.kmeans.numpy_fits``.
"""

from __future__ import annotations

import collections
import ctypes
import os

import numpy as np

from ..native import Kernel
from ..obs import default_registry

__all__ = ["KMeans", "DistanceRows", "pairwise_distances"]


class DistanceRows:
    """The left operand of the distance kernel, prepared once: the float64
    rows (C-contiguous), ``2 * rows`` and the squared row norms, which
    Lloyd's loop and the three rounds ``build_cluster_summary`` runs on
    one sample reuse."""

    __slots__ = ("data", "twice", "sq_norms")

    def __init__(self, data):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ValueError(
                "expected 2-D data, got shape {}".format(self.data.shape))
        self.twice = 2.0 * self.data
        self.sq_norms = np.sum(self.data ** 2, axis=1)[:, None]

    def _products(self, b):
        """``2 rows @ b.T`` and the squared norms of ``b``'s rows."""
        b = np.asarray(b, dtype=np.float64)
        return np.matmul(self.twice, b.T), np.sum(b ** 2, axis=1)

    def distances(self, b):
        """Euclidean distances from every row to every row of ``b``."""
        work, b_sq = self._products(b)
        return _roots(work, self.sq_norms, b_sq)

    def nearest(self, centers):
        """``(labels, roots)``: each row's nearest row of ``centers`` and
        its distance, the bits of ``argmin`` and ``min`` over the rows of
        :meth:`distances`."""
        work, center_sq = self._products(centers)
        return _assign(_kmeans_kernel(), work, self.sq_norms, center_sq)


def pairwise_distances(a, b):
    """Euclidean distance matrix between rows of ``a`` and rows of ``b``."""
    return DistanceRows(a).distances(b)


def _roots(work, row_sq, center_sq):
    """``sqrt(max((row_sq + center_sq) - work, 0))``, row by centre."""
    out = np.add(row_sq.reshape(-1, 1), center_sq[None, :])
    np.subtract(out, work, out=out)
    np.maximum(out, 0.0, out=out)
    return np.sqrt(out, out=out)


def _assign(kernel, work, row_sq, center_sq):
    """``(labels, roots)`` of the rows of squared distances
    ``max((row_sq + center_sq) - work, 0)``: each row's ``argmin`` over
    their roots and the least root, through ``kernel`` (None: numpy)."""
    if kernel is None:
        dist = _roots(work, row_sq, center_sq)
        labels = dist.argmin(axis=1)
        return labels, dist[np.arange(len(dist)), labels]
    n, k = work.shape
    labels, roots, scratch = np.empty(n, np.int64), np.empty(n), np.empty(k)
    kernel.nearest(work.ctypes.data, row_sq.ctypes.data,
                   center_sq.ctypes.data, n, k, scratch.ctypes.data,
                   labels.ctypes.data, roots.ctypes.data)
    return labels, roots


def _numpy_closer(data, index, closest):
    """``closest = minimum(closest, |data - data[index]|^2)`` by rows."""
    np.minimum(closest, np.sum((data - data[index]) ** 2, axis=1),
               out=closest)


def _numpy_seed_step(data, closest, total, u, cdf):
    """The numpy kernel of one k-means++ step: draw as
    ``Generator.choice(n, p=closest / total)`` does with the uniform
    ``u``, then bring the drawn row into ``closest``; the drawn index."""
    np.divide(closest, total, out=cdf)
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    index = int(cdf.searchsorted(u, side="right"))
    if index < len(data):
        _numpy_closer(data, index, closest)
    return index


class _Seeding:
    """The k-means++ state of one fit: ``closest`` (each row's squared
    distance to its nearest centre so far) and the two steps that update
    it, compiled or numpy."""

    def __init__(self, data, kernel):
        n, d = data.shape
        self.closest = closest = np.full(n, np.inf)
        cdf, row = np.empty(n), np.empty(d)
        if kernel is None:
            self.add = lambda index: _numpy_closer(data, index, closest)
            self.draw = lambda total, u: _numpy_seed_step(
                data, closest, total, u, cdf)
            return
        # Addresses are read once (an ``ndarray.ctypes`` read costs
        # ~2 us); the arrays live as long as this object.
        self._arrays = (data, cdf, row)
        rows = (data.ctypes.data, n, d)
        closest_at, cdf_at, row_at = (array.ctypes.data
                                      for array in (closest, cdf, row))
        self.add = lambda index: kernel.closer(*rows, index, closest_at,
                                               row_at)
        self.draw = lambda total, u: kernel.step(*rows, closest_at, total,
                                                 u, cdf_at, row_at)


_Functions = collections.namedtuple("_Functions", "nearest closer step")


def _bind(library):
    address, size, real = ctypes.c_void_p, ctypes.c_size_t, ctypes.c_double
    functions = _Functions(library.repro_kmeans_nearest,
                           library.repro_kmeans_closer,
                           library.repro_kmeanspp_step)
    functions.nearest.argtypes = [address] * 3 + [size] * 2 + [address] * 3
    functions.closer.argtypes = [address] + [size] * 3 + [address] * 2
    functions.step.argtypes = [address, size, size, address, real, real,
                               address, address]
    functions.nearest.restype = functions.closer.restype = None
    functions.step.restype = ctypes.c_int64
    return functions


def _agrees_with_numpy(functions):
    """Whether ``functions`` give the numpy kernels' bits on squared
    distances tied under one root, clamped or all zero, and on seeding
    steps at d = 1 … 10."""
    results = []
    for kernel in (functions, None):
        rng = np.random.default_rng(0)
        # Zero norms make each squared distance exactly -work: 2.0 and
        # its successor share a root, ahead of the least value in row 0.
        work = -np.abs(rng.normal(size=(6, 9)))
        work[0] = -4.0
        work[0, :3] = [-np.nextafter(2.0, 3.0), -3.0, -2.0]
        work[1, 2:5] = 0.5
        work[2] = 0.0
        taken = list(_assign(kernel, work, np.zeros(6), np.zeros(9)))
        for d in range(1, 11):
            data = rng.normal(size=(30, d)) * 10.0 ** rng.integers(-3, 4)
            seeding = _Seeding(data, kernel)
            seeding.add(0)      # cdf[0] == 0.0: u = 0.0 draws past row 0
            for u in (0.0, 0.3, 0.999):
                taken.append([seeding.draw(seeding.closest.sum(), u)])
            taken.append(seeding.closest.copy())
        results.append(np.concatenate([np.asarray(a, np.float64).ravel()
                                       for a in taken]))
    return results[0].tobytes() == results[1].tobytes()


_KMEANS = Kernel(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "_kmeans.c"), _bind, _agrees_with_numpy)


def _kmeans_kernel():
    """The compiled k-means loops of this process, built on first call;
    None when only the numpy kernels can run."""
    return _KMEANS.get()


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
    def _init_centers(self, data, rng, kernel):
        """k-means++ seeding (Arthur & Vassilvitskii, 2007)."""
        n = data.shape[0]
        centers = np.empty((self.n_clusters, data.shape[1]))
        first = int(rng.integers(n))
        centers[0] = data[first]
        seeding = _Seeding(data, kernel)
        seeding.add(first)
        for i in range(1, self.n_clusters):
            total = seeding.closest.sum()
            if total <= 0:
                # All remaining points coincide with chosen centers.
                centers[i:] = data[rng.integers(n, size=self.n_clusters - i)]
                break
            # rng.choice(n, p=closest / total), without its validation.
            centers[i] = data[seeding.draw(total, rng.random())]
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
        kernel = _kmeans_kernel()
        if kernel is None:
            default_registry().counter("ml.kmeans.numpy_fits").inc()
        centers = self._init_centers(data, rng, kernel)

        columns = np.ascontiguousarray(data.T)
        for iteration in range(self.max_iter):
            labels, roots = rows.nearest(centers)
            counts = np.bincount(labels, minlength=self.n_clusters)
            new_centers = (_member_sums(columns, labels, counts)
                           / np.maximum(counts, 1)[:, None])
            empty = counts == 0
            if empty.any():
                # Re-seed empty clusters at the farthest point.
                new_centers[empty] = data[roots.argmax()]
            shift = np.linalg.norm(new_centers - centers)
            centers = new_centers
            self.n_iter_ = iteration + 1
            if shift <= self.tol:
                break
        default_registry().counter("ml.kmeans.iterations").inc(self.n_iter_)

        self.labels_, roots = rows.nearest(centers)
        self.centers_ = centers
        self.inertia_ = float(np.sum(roots ** 2))
        return self
