"""Convex hulls with fast point-containment tests.

Convex hulls are the basic building block of simulated user-interest
subregions (Section V-C): a UIS is a union of alpha hulls, each
circumscribing the psi nearest cluster centers of a random seed center.
The paper only ever needs the membership predicate "is tuple tau inside
hull H", so this module exposes exactly that, robust to the degenerate
inputs random sampling produces (collinear points, 1-D subspaces).

Every hull — full-dimensional, 1-D interval, or degenerate affine-span —
is lowered at construction time to one **canonical halfspace system**

    A x + b <= eps * tol_scale + tol_fixed     (row-wise)

so containment is a single matmul-plus-compare, and so hulls can be
stacked facet-for-facet into the packed engine
(:mod:`repro.geometry.engine`) which tests all points against all hulls
in one BLAS call.  The lowering rules:

* **1-D interval** ``[lo, hi]`` -> rows ``(+1, -hi)`` and ``(-1, +lo)``;
* **full-dimensional** -> Qhull's facet equations verbatim;
* **degenerate affine span** (rank r < d) -> two opposing rows per
  orthonormal complement direction (an on-the-span band of fixed width
  ``1e-6 * scale``) plus the recursively lowered sub-hull of the points
  projected onto the span, mapped back through the affine embedding
  (facets compose linearly: ``a . (B (x - o)) + b`` is again one row).
  Note the band is per-direction (L-inf over the complement) — an L2
  residual ball is not polyhedral — so compared to a residual-norm
  test, membership differs only at the band's corners, within
  ``sqrt(codim) * 1e-6 * scale`` of the span.

Facet tolerances are *relative to the equation offsets*
(``tol_scale = max(1, |b|)``), so boundary points of large-magnitude
data are classified as robustly as unit-cube data; span rows carry a
fixed tolerance and ignore ``eps``, matching the historical residual
test.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np
# A hard dependency: without Qhull every full-dimensional hull would have
# to be something else — a missing scipy fails here, at ``import repro``.
from scipy.spatial import ConvexHull as _SciPyHull
from scipy.spatial import QhullError

from ..obs import default_registry

__all__ = ["Hull", "HalfspaceSystem", "as_query_array",
           "convex_hull_vertices_2d"]

_EPS = 1e-9
_SPAN_EPS = 1e-6


class HalfspaceSystem(namedtuple("HalfspaceSystem",
                                 ["A", "b", "tol_scale", "tol_fixed"])):
    """A hull lowered to uniform facet form ``A x + b <= tol(eps)``.

    ``A`` is ``(n_facets, dim)``, the other fields ``(n_facets,)``.  The
    effective per-row tolerance is ``eps * tol_scale + tol_fixed``:
    regular facets scale with the caller's ``eps`` (``tol_fixed = 0``),
    affine-span band rows are fixed-width (``tol_scale = 0``).
    """

    __slots__ = ()

    @property
    def n_facets(self):
        return len(self.b)

    @property
    def dim(self):
        return self.A.shape[1]

    def tol(self, eps=_EPS):
        """Resolved per-row tolerance vector for a given ``eps``."""
        return eps * self.tol_scale + self.tol_fixed


def as_query_array(points, dim):
    """Normalize query input to a float64 ``(n, dim)`` array.

    Empty inputs — ``[]``, ``(0,)``, ``(0, dim)`` — become ``(0, dim)``
    so every containment predicate returns an empty mask instead of
    crashing or misreading a single zero-width point; a width mismatch
    (including ``(n, 0)`` with ``n > 0``) raises ``ValueError``.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.size == 0 and (points.ndim < 2 or points.shape[0] == 0):
        return np.zeros((0, dim), dtype=np.float64)
    points = np.atleast_2d(points)
    if points.shape[1] != dim:
        raise ValueError("query dimension {} != expected dimension {}"
                         .format(points.shape[1], dim))
    return points


def convex_hull_vertices_2d(points):
    """Andrew's monotone chain: CCW hull vertices of 2-D points.

    A dependency-free 2-D hull used for cross-checking the scipy-based
    implementation in tests and as a fallback; returns the vertices in
    counter-clockwise order without repetition.
    """
    pts = np.unique(np.asarray(points, dtype=np.float64), axis=0)
    if len(pts) <= 2:
        return pts
    # Sort lexicographically.
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.asarray(lower[:-1] + upper[:-1])


class Hull:
    """Convex hull of a point set supporting vectorized containment.

    Handles three regimes:

    * 1-D point sets -> an interval [min, max];
    * full-dimensional sets -> Qhull half-space representation
      ``A x + b <= 0``;
    * degenerate sets (points lying in an affine subspace, e.g. collinear
      2-D samples) -> hull of the points projected onto their affine span,
      plus a per-direction "on-the-span" band check (see the module
      docstring for the band's exact semantics).

    All three are lowered once, at construction, to a canonical
    :class:`HalfspaceSystem` (see the module docstring), which both
    :meth:`contains` and the packed engine evaluate.
    """

    def __init__(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.size == 0:
            raise ValueError("cannot build hull of no points")
        self.points = points
        self.dim = points.shape[1]
        self._interval = None
        self._equations = None
        self._span = None  # (origin, basis, sub_hull) for degenerate sets
        self._complement = None  # orthonormal complement of the span
        self._bbox_fallback = False  # Qhull failed twice; equations = bbox
        self._build()
        self._lower()

    # ------------------------------------------------------------------
    def _build(self):
        pts = self.points
        if self.dim == 1:
            self._interval = (float(pts.min()), float(pts.max()))
            self.vertices = np.array([[self._interval[0]],
                                      [self._interval[1]]])
            return
        # Determine the affine rank.  The economy SVD already yields a
        # complete row space when n >= d; only the few-points-high-dim
        # case needs full matrices for the complement rows (and there U
        # is small, so the extra cost is nil).
        origin = pts.mean(axis=0)
        centered = pts - origin
        u, s, vt = np.linalg.svd(centered,
                                 full_matrices=len(pts) < self.dim)
        scale = max(1.0, float(np.abs(s).max()) if s.size else 1.0)
        rank = int(np.sum(s > 1e-9 * scale))
        if rank >= self.dim and len(pts) > self.dim:
            default_registry().counter("geometry.hull.builds").inc()
            try:
                hull = _SciPyHull(pts)
                self._equations = hull.equations
                self.vertices = pts[hull.vertices]
                return
            except QhullError:
                try:  # joggle inputs to break precision degeneracies
                    hull = _SciPyHull(pts, qhull_options="QJ")
                    self._equations = hull.equations
                    self.vertices = pts[hull.vertices]
                    return
                except QhullError:
                    pass  # fall through to the degenerate path
        if rank == 0:
            # All points coincide: a zero-width band in every direction.
            self._span = (origin, np.zeros((0, self.dim)), None)
            self._complement = np.eye(self.dim)
            self.vertices = pts[:1]
            return
        if rank >= self.dim:
            # Full-rank input on which Qhull failed twice: conservative
            # bounding-box fallback (guards against unbounded recursion).
            self._span = None
            lo, hi = pts.min(axis=0), pts.max(axis=0)
            eye = np.eye(self.dim)
            self._equations = np.vstack([
                np.hstack([eye, -hi[:, None]]),
                np.hstack([-eye, lo[:, None]]),
            ])
            self._bbox_fallback = True
            self.vertices = pts
            return
        basis = vt[:rank]
        projected = centered @ basis.T
        sub_hull = Hull(projected) if rank >= 1 else None
        self._span = (origin, basis, sub_hull)
        self._complement = vt[rank:]
        self.vertices = pts

    # ------------------------------------------------------------------
    def _lower(self):
        """Compute the canonical halfspace system for this hull.

        Every lowering *starts with the ``2 d`` bounding-box rows*
        (rows ``0..d-1``: ``x <= hi``; rows ``d..2d-1``: ``-x <= -lo``
        — an invariant the packed engine's candidate gate reads back).
        The bbox rows make the gate exact: a point rejected by the
        (padded) gate provably fails the system.  For 1-D hulls the
        bbox rows *are* the interval test, so there are no core rows.
        On the degenerate-span path the bbox rows additionally carry
        the span band's fixed tolerance, so a zero-width dimension
        keeps the historical ``1e-6 * scale`` on-the-span slack instead
        of being pinched to the facet tolerance.
        """
        lo, hi = self.points.min(axis=0), self.points.max(axis=0)
        eye = np.eye(self.dim)
        rows_A = [eye, -eye]
        rows_b = [-hi, lo]
        box_b = np.concatenate(rows_b)
        box_band = 0.0 if self._span is None \
            else _SPAN_EPS * max(1.0, float(np.abs(self.points).max()))
        tol_scale = [np.maximum(1.0, np.abs(box_b))]
        tol_fixed = [np.full(2 * self.dim, box_band)]
        if self._equations is not None and not self._bbox_fallback:
            # (On the Qhull-double-failure fallback the equations *are*
            # the bbox rows already emitted above — don't stack twice.)
            A = np.ascontiguousarray(self._equations[:, :-1])
            b = np.ascontiguousarray(self._equations[:, -1])
            rows_A.append(A)
            rows_b.append(b)
            tol_scale.append(np.maximum(1.0, np.abs(b)))
            tol_fixed.append(np.zeros(len(b)))
        elif self._span is not None:
            # Degenerate affine span: a fixed-width band around the span
            # (two opposing rows per orthonormal complement direction)
            # intersected with the sub-hull mapped back to full space.
            origin, basis, sub_hull = self._span
            complement = self._complement
            span_tol = _SPAN_EPS * max(1.0, float(np.abs(self.points).max()))
            rows_A.extend([complement, -complement])
            rows_b.extend([-complement @ origin, complement @ origin])
            tol_scale.append(np.zeros(2 * len(complement)))
            tol_fixed.append(np.full(2 * len(complement), span_tol))
            if sub_hull is not None:
                sub = sub_hull.halfspaces()
                mapped_A = sub.A @ basis
                rows_A.append(mapped_A)
                rows_b.append(sub.b - mapped_A @ origin)
                tol_scale.append(sub.tol_scale)
                tol_fixed.append(sub.tol_fixed)
        self._install_system(HalfspaceSystem(
            np.vstack(rows_A), np.concatenate(rows_b),
            np.concatenate(tol_scale), np.concatenate(tol_fixed)))

    def _install_system(self, system):
        self._system = system
        self._tol_default = system.tol(_EPS)

    def halfspaces(self):
        """The hull's canonical :class:`HalfspaceSystem` lowering.

        Layout invariant: the first ``2 dim`` rows are the bounding-box
        rows (``+e_j`` with offset ``-hi_j`` for ``j < dim``, then
        ``-e_j`` with offset ``lo_j``); core rows follow.
        """
        return self._system

    @classmethod
    def from_halfspaces(cls, points, system):
        """Rebuild a hull from its point set and serialized lowering.

        Skips the SVD / Qhull construction entirely — the restored hull
        answers :meth:`contains` through the exact facet rows it was
        saved with, bit-identically and without recompilation.  Used by
        :class:`~repro.core.optimizer.HullRegistry` restores.
        """
        hull = cls.__new__(cls)
        hull.points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        hull.dim = hull.points.shape[1]
        hull._interval = None
        hull._equations = None
        hull._span = None
        hull._complement = None
        hull._bbox_fallback = False
        hull.vertices = hull.points
        A = np.atleast_2d(np.asarray(system.A, dtype=np.float64))
        if A.shape[1] != hull.dim:
            raise ValueError("halfspace width {} != point dimension {}"
                             .format(A.shape[1], hull.dim))
        hull._install_system(HalfspaceSystem(
            A, np.asarray(system.b, dtype=np.float64).ravel(),
            np.asarray(system.tol_scale, dtype=np.float64).ravel(),
            np.asarray(system.tol_fixed, dtype=np.float64).ravel()))
        return hull

    # ------------------------------------------------------------------
    def contains(self, queries, eps=_EPS):
        """Boolean mask: which query points lie inside (or on) the hull."""
        queries = as_query_array(queries, self.dim)
        if len(queries) == 0:
            return np.zeros(0, dtype=bool)
        system = self._system
        values = queries @ system.A.T + system.b
        tol = self._tol_default if eps == _EPS else system.tol(eps)
        return (values <= tol).all(axis=1)

    def contains_point(self, point, eps=_EPS):
        """Containment test for a single point."""
        return bool(self.contains(np.asarray(point)[None, :], eps=eps)[0])

    # ------------------------------------------------------------------
    @property
    def bounding_box(self):
        """(lo, hi) arrays of the axis-aligned bounding box."""
        return self.points.min(axis=0), self.points.max(axis=0)

    def __repr__(self):
        return "Hull(dim={}, n_points={})".format(self.dim, len(self.points))
