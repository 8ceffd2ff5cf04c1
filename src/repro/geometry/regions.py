"""Regions over one (sub)space: unions of convex parts, boxes, and
regions queried through a scaler.

``UnionRegion`` realizes the paper's general UIS form (Section V-C):
"the composition of any set of convex parts on a meta-subspace", which by
convex decomposition covers concave and even disconnected interest regions.
The full-space UIR is the conjunction of per-subspace regions (Section
III-A); it is evaluated where it is served —
``repro.core.framework.predict_conjunctions`` for sessions,
``ConjunctiveOracle.ground_truth`` / ``ground_truth_store`` for ground
truth.

A ``UnionRegion`` compiles itself lazily to a packed halfspace program
(:mod:`repro.geometry.engine`): the first ``contains`` call stacks every
hull's facet rows into one matrix, and every later call is a single
matmul plus segment reductions instead of a Python loop over hulls.
The pack is cached on the region and never invalidated — hulls are
immutable once built, and a region's hull list is fixed at construction.
"""

from __future__ import annotations

import numpy as np

from .convex_hull import Hull, as_query_array
from .engine import PackedHulls

__all__ = ["Region", "UnionRegion", "BoxRegion", "ScaledRegion"]


class Region:
    """Interface: a membership predicate over a (sub)space."""

    dim = None

    def contains(self, points):
        """Boolean mask of membership for an (n x dim) array."""
        raise NotImplementedError

    def label(self, points):
        """0/1 int labels; convenience over :meth:`contains`."""
        return self.contains(points).astype(np.int64)


class UnionRegion(Region):
    """Union of convex hulls: the general UIS representation.

    Parameters
    ----------
    hulls:
        Iterable of :class:`~repro.geometry.convex_hull.Hull` (or point
        arrays, which are wrapped).
    """

    def __init__(self, hulls):
        hulls = [h if isinstance(h, Hull) else Hull(h) for h in hulls]
        if not hulls:
            raise ValueError("UnionRegion needs at least one hull")
        dims = {h.dim for h in hulls}
        if len(dims) != 1:
            raise ValueError("hulls of mixed dimensionality: {}".format(dims))
        self.hulls = hulls
        self.dim = dims.pop()
        self._packed = None

    def compiled(self):
        """The region's cached :class:`~repro.geometry.engine.PackedHulls`."""
        if self._packed is None:
            self._packed = PackedHulls(self.hulls)
        return self._packed

    def contains(self, points):
        return self.compiled().contains_any(points)

    @property
    def n_parts(self):
        return len(self.hulls)

    def __repr__(self):
        return "UnionRegion(dim={}, parts={})".format(self.dim, self.n_parts)


class BoxRegion(Region):
    """Axis-aligned box; used in tests and as a simple workload shape."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=np.float64)
        self.hi = np.asarray(hi, dtype=np.float64)
        if self.lo.shape != self.hi.shape:
            raise ValueError("lo/hi shape mismatch")
        if np.any(self.lo > self.hi):
            raise ValueError("lo must be <= hi")
        self.dim = self.lo.size

    def contains(self, points):
        points = as_query_array(points, self.dim)
        return ((points >= self.lo) & (points <= self.hi)).all(axis=1)


class ScaledRegion(Region):
    """A region defined in a scaler's normalized space, queried in raw
    coordinates.

    LTE normalizes every subspace internally (clustering and hull geometry
    are meaningless across attributes of wildly different scales); regions
    built over normalized cluster centers are wrapped so the rest of the
    system keeps talking raw attribute values.
    """

    def __init__(self, region, scaler):
        self.region = region
        self.scaler = scaler
        self.dim = region.dim

    def contains(self, points):
        points = as_query_array(points, self.dim)
        return self.region.contains(self.scaler.transform(points))

    @property
    def n_parts(self):
        return getattr(self.region, "n_parts", 1)
