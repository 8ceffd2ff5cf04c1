"""Computational-geometry substrate: hulls, regions, DSM polytopes, and
the packed halfspace engine that evaluates them in bulk."""

from .convex_hull import (HalfspaceSystem, Hull, as_query_array,
                          convex_hull_vertices_2d)
from .engine import HullPackCache, PackedHulls, union_masks
from .polytope import (PolytopeModel, THREE_SET_NEGATIVE, THREE_SET_POSITIVE,
                       THREE_SET_UNCERTAIN)
from .regions import BoxRegion, Region, UnionRegion

__all__ = [
    "Hull", "HalfspaceSystem", "as_query_array", "convex_hull_vertices_2d",
    "PackedHulls", "HullPackCache", "union_masks",
    "Region", "UnionRegion", "BoxRegion",
    "PolytopeModel",
    "THREE_SET_POSITIVE", "THREE_SET_NEGATIVE", "THREE_SET_UNCERTAIN",
]
