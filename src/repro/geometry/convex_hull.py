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
* **full-dimensional 2-D** -> one row per edge of the monotone chain
  (:func:`convex_hull_vertices_2d`): the unit outward normal ``n`` and
  offset ``-n . v``, the layout of Qhull's facet equations;
* **full-dimensional, 3-D and up** -> Qhull's facet equations verbatim
  (scipy is imported on the first such hull, never at ``import repro``);
* **degenerate affine span** (rank r < d) -> two opposing rows per
  orthonormal complement direction (an on-the-span band of fixed width
  ``1e-6 * scale``) plus the recursively lowered sub-hull of the points
  projected onto the span, mapped back through the affine embedding
  (facets compose linearly: ``a . (B (x - o)) + b`` is again one row).
  Note the band is per-direction (L-inf over the complement) — an L2
  residual ball is not polyhedral — so compared to a residual-norm
  test, membership differs only at the band's corners, within
  ``sqrt(codim) * 1e-6 * scale`` of the span.

Facet tolerances are *relative to the terms a row sums*
(``tol_scale = max(1, |n|·|x|)``: the row's absolute normal against the
hull points' largest absolute coordinates, a bound on every ``|n_j x_j|``
the dot product ``n·x`` adds up), so boundary points of data far from
the origin are classified as robustly as unit-cube data, even on a row
whose offset is small next to its terms; span rows carry a fixed
tolerance and ignore ``eps``, matching the historical residual test.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

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


# Directions 0°, 45°, ..., 315° as columns: the points extreme along
# them are hull points in counter-clockwise order (Akl–Toussaint).
_OCTANTS = np.array([[1.0, 1.0, 0.0, -1.0, -1.0, -1.0, 0.0, 1.0],
                     [0.0, 1.0, 1.0, 1.0, 0.0, -1.0, -1.0, -1.0]])
# From this many points on, the prefilter costs less than the chain saves.
_PREFILTER_MIN_POINTS = 32


def _outside_octagon(pts):
    """Drop the points strictly inside the octagon of extreme points.

    Such a point is no hull vertex, so the chain need never see it.
    "Strictly" means by more than ``4e-12 * reach**2`` in cross product,
    ``reach`` bounding every coordinate (so ``2 * reach`` every normal
    component): over a hundred times the rounding of the products, so
    no point on or near an edge is dropped.  Edges between coinciding
    corners constrain nothing.
    """
    corners = pts[(pts @ _OCTANTS).argmax(axis=0)].tolist()
    reach = max(max(abs(x), abs(y)) for x, y in corners)
    rows = []   # per edge c -> d: its inward normal, then n . c
    for (cx, cy), (dx, dy) in zip(corners, corners[1:] + corners[:1]):
        if cx != dx or cy != dy:
            nx, ny = cy - dy, dx - cx
            rows += (nx, ny, nx * cx + ny * cy)
    if not rows:
        return pts
    rows = np.array(rows).reshape(-1, 3)
    depth = rows[:, :2] @ pts.T
    margin = 4e-12 * reach * reach
    return pts[(depth <= rows[:, 2:] + margin).any(axis=0)]


def _half_chain(rows):
    """One monotone half-chain over lexicographically ordered points:
    every point that does not make a strict left turn is popped."""
    chain = []
    for p in rows:
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) > 0:
                break
            chain.pop()
        chain.append(p)
    return chain


def _chain_2d(points):
    """:func:`convex_hull_vertices_2d` as a list of ``(x, y)`` tuples."""
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) >= _PREFILTER_MIN_POINTS:
        pts = _outside_octagon(pts)
    rows = sorted(set(map(tuple, pts.tolist())))
    if len(rows) <= 2:
        return rows
    return _half_chain(rows)[:-1] + _half_chain(rows[::-1])[:-1]


def convex_hull_vertices_2d(points):
    """Andrew's monotone chain: CCW hull vertices of 2-D points.

    The builder of every full-dimensional 2-D :class:`Hull`.  Returns
    the distinct vertices in counter-clockwise order from the
    lexicographically smallest, without repetition; points on an edge
    are not vertices, so a collinear set returns its two ends, and
    fewer than three distinct points come back sorted.  Sets of 32
    points or more first drop the points strictly inside their
    extreme-point octagon, which holds no vertex.
    """
    return np.array(_chain_2d(points), dtype=np.float64).reshape(-1, 2)


def _facets_2d(points):
    """``[A | b]`` facet rows of a 2-D set's hull, and its vertices.

    One row per counter-clockwise edge ``v -> w``: the unit outward
    normal ``n = (w_y - v_y, v_x - w_x) / |w - v|`` and the offset
    ``-n . v``, so ``A x + b <= 0`` inside, as in Qhull's equations.
    ``None`` when the chain finds fewer than three vertices (a sliver
    whose crosses all round to zero).
    """
    vertices = _chain_2d(points)
    if len(vertices) < 3:
        return None
    rows = []
    for (vx, vy), (wx, wy) in zip(vertices, vertices[1:] + vertices[:1]):
        nx, ny = wy - vy, vx - wx
        norm = math.sqrt(nx * nx + ny * ny)
        nx, ny = nx / norm, ny / norm
        rows.append((nx, ny, -(nx * vx + ny * vy)))
    return np.array(rows), np.array(vertices)


def _qhull(points, options=None):
    """Qhull's ``(equations, vertex indices)`` for a 3-D-or-more set.

    ``None`` if Qhull rejects the set (a ``QhullError``).  scipy is
    imported here, on the first such hull, never at ``import repro``;
    without it this raises ``ImportError`` naming scipy.
    """
    try:
        from scipy.spatial import ConvexHull, QhullError
    except ImportError as exc:
        raise ImportError(
            "a convex hull of {}-D points needs scipy (Qhull); 2-D hulls "
            "do not".format(np.shape(points)[1])) from exc
    try:
        hull = ConvexHull(points, qhull_options=options)
    except QhullError:
        return None
    return hull.equations, hull.vertices


class Hull:
    """Convex hull of a point set supporting vectorized containment.

    Handles three regimes:

    * 1-D point sets -> an interval [min, max];
    * full-dimensional sets -> half-space representation ``A x + b <= 0``:
      in 2-D one row per edge of the monotone chain
      (:func:`convex_hull_vertices_2d`), from 3-D up Qhull's facets
      (which need scipy, imported on the first such hull; without it
      the hull raises ``ImportError``);
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
            if self.dim == 2:
                facets = _facets_2d(pts)
                if facets is not None:
                    self._equations, self.vertices = facets
                    return
                rank = 1  # a sliver the chain calls collinear: a span
            else:
                # A rejected set is retried with joggled inputs ("QJ")
                # to break precision degeneracies; a second rejection
                # falls through to the bounding box below.
                for options in (None, "QJ"):
                    found = _qhull(pts, options)
                    if found is not None:
                        self._equations = found[0]
                        self.vertices = pts[found[1]]
                        return
        if rank == 0:
            # All points coincide: a zero-width band in every direction.
            self._span = (origin, np.zeros((0, self.dim)), None)
            self._complement = np.eye(self.dim)
            self.vertices = pts[:1]
            return
        if rank >= self.dim:
            # Full-rank 3-D-or-more input on which Qhull failed twice:
            # conservative bounding-box fallback (guards against
            # unbounded recursion).
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
            # ``n·x`` rounds relative to its terms, not to ``b``: a row
            # with mixed-sign normal has a small ``b`` beside large terms.
            tol_scale.append(np.maximum(
                1.0, np.abs(A) @ np.abs(self.points).max(axis=0)))
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
