"""Labelling oracles standing in for the human user.

The paper evaluates against synthetically generated ground-truth interest
regions, so the "user" is a membership oracle over those regions.  Oracles
count the labels they hand out, which is how benches account for budgets.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RegionOracle", "ConjunctiveOracle"]


def _as_rows(rows):
    """``rows`` as a 2-D float64 array: an empty query given flat
    (``[]``, ``np.zeros(0)``) is zero rows, not one row of width 0."""
    rows = np.asarray(rows, dtype=np.float64)
    return rows.reshape(0, 0) if rows.ndim == 1 and rows.size == 0 \
        else np.atleast_2d(rows)


class RegionOracle:
    """Oracle for a single region over one (sub)space."""

    def __init__(self, region):
        self.region = region
        self.labels_given = 0

    def label(self, points):
        """0/1 interestingness labels; increments the label counter."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        self.labels_given += len(points)
        return self.region.label(points)

    def reset_counter(self):
        self.labels_given = 0


class ConjunctiveOracle:
    """Oracle for a conjunctive UIR with known per-subspace ground truth.

    Parameters
    ----------
    subspace_regions:
        Mapping ``{Subspace: Region}``; the full-space UIR is their
        conjunction (Section III-A).
    """

    def __init__(self, subspace_regions):
        if not subspace_regions:
            raise ValueError("need at least one subspace region")
        self.subspace_regions = dict(subspace_regions)
        self.labels_given = 0

    # ------------------------------------------------------------------
    def label_subspace(self, subspace, points):
        """Label points given in ``subspace`` coordinates."""
        region = self.subspace_regions[subspace]
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        self.labels_given += len(points)
        return region.label(points)

    def label(self, rows):
        """Label full-space rows against the conjunctive UIR."""
        if hasattr(rows, "iter_chunks"):
            self.labels_given += rows.n_rows
            return self.ground_truth_store(rows)
        rows = _as_rows(rows)
        self.labels_given += len(rows)
        return self.ground_truth(rows)

    def ground_truth(self, rows):
        """Conjunctive membership *without* counting labels (evaluation).

        ``rows`` may be a :class:`~repro.store.ChunkStore`; the
        evaluation then runs chunk-wise with zone-map pruning
        (:meth:`ground_truth_store`) — same bits, bounded memory.
        """
        if hasattr(rows, "iter_chunks"):
            return self.ground_truth_store(rows)
        rows = _as_rows(rows)
        result = np.ones(len(rows), dtype=np.int64)
        if not len(rows):
            return result
        for subspace, region in self.subspace_regions.items():
            result &= region.label(subspace.project(rows))
        return result

    def ground_truth_store(self, store):
        """Conjunctive membership over a chunk store, zone-map pruned.

        Each subspace region scans the store through a
        :class:`~repro.store.ChunkScan`: chunks whose zone maps cannot
        intersect the region's conservative bounding boxes are skipped
        outright, the survivors run the exact packed membership test —
        bit-identical to :meth:`ground_truth` over the materialized rows.
        """
        from ..store.scan import scan_region

        result = np.ones(store.n_rows, dtype=np.int64)
        for subspace, region in self.subspace_regions.items():
            if not result.any():
                break
            result &= scan_region(store, region,
                                  columns=subspace.columns).astype(np.int64)
        return result

    def ground_truth_subspace(self, subspace, points):
        """Subspace membership without counting labels."""
        return self.subspace_regions[subspace].label(points)

    def reset_counter(self):
        self.labels_given = 0
