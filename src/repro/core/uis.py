"""Simulated user-interest-subregion (UIS) formulation (Section V-C).

A UIS is generated as the union of ``alpha`` convex hulls; each hull
circumscribes the ``psi`` nearest cluster-center neighbours of a randomly
chosen seed center from C_u.  By convex decomposition, unions of convex
parts cover concave and disconnected regions, so meta-tasks (and the test
workloads built from the same machinery) span arbitrary UIS shapes.
Existing works' shapes are special cases — e.g. DSM's single connected
convex region is ``alpha = 1``.

**A hull is a function of the summary.**  With ``psi`` fixed, the hull
around a seed center depends on nothing but ``(centers, proximity)``,
so :class:`UISGenerator` sorts P_u once and keeps one
:class:`~repro.geometry.convex_hull.Hull` per seed center it has drawn:
however many regions a generator hands out, it builds at most ku
hulls, and regions that drew the same seed share the hull *object*
(hulls are immutable; the packed engine and ``HullRegistry`` dedup by
identity).  The memo lives and dies with its generator.  The per-draw
construction it replaced is the oracle of
``tests/core/_task_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry.convex_hull import Hull
from ..geometry.engine import union_masks
from ..geometry.regions import UnionRegion

__all__ = ["UISMode", "PAPER_MODES", "UISGenerator"]


@dataclass(frozen=True)
class UISMode:
    """A UIS complexity mode: number of parts and part size (Table III)."""

    alpha: int
    psi: int

    def __post_init__(self):
        if self.alpha < 1:
            raise ValueError("alpha must be >= 1")
        if self.psi < 2:
            raise ValueError("psi must be >= 2")


#: The seven test-benchmark modes of Table III.
PAPER_MODES = {
    "M1": UISMode(alpha=4, psi=20),
    "M2": UISMode(alpha=4, psi=15),
    "M3": UISMode(alpha=4, psi=10),
    "M4": UISMode(alpha=4, psi=5),
    "M5": UISMode(alpha=1, psi=20),
    "M6": UISMode(alpha=2, psi=20),
    "M7": UISMode(alpha=3, psi=20),
}


class UISGenerator:
    """Draws random simulated UISs over a fixed cluster-center summary.

    Parameters
    ----------
    centers:
        C_u, the (ku x d) cluster centers summarizing the meta-subspace.
    proximity:
        P_u, the (ku x ku) center-to-center distance matrix (precomputed in
        the clustering step for O(ku) neighbour retrieval).
    mode:
        The :class:`UISMode` (alpha, psi) controlling region complexity.
    seed:
        RNG seed for reproducible workload generation.
    """

    def __init__(self, centers, proximity, mode, seed=None):
        self.centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
        self.proximity = np.asarray(proximity, dtype=np.float64)
        ku = len(self.centers)
        if self.proximity.shape != (ku, ku):
            raise ValueError("proximity must be ku x ku")
        if mode.psi > ku:
            raise ValueError("psi={} exceeds number of centers {}".format(
                mode.psi, ku))
        self.mode = mode
        self.rng = np.random.default_rng(seed)
        # psi nearest neighbours of every center (including itself), and
        # the hull over them for each seed center drawn so far.
        self._neighbours = np.argsort(self.proximity, axis=1)[:, :mode.psi]
        self._hulls = {}

    # ------------------------------------------------------------------
    def _seed_hull(self, seed_idx):
        """The hull around one seed center, built on its first draw
        (``setdefault``: racing threads agree on one object)."""
        hull = self._hulls.get(seed_idx)
        if hull is None:
            hull = self._hulls.setdefault(
                seed_idx, Hull(self.centers[self._neighbours[seed_idx]]))
        return hull

    def draw_region(self):
        """Draw one UIS region (advances the RNG; no membership test).

        A seed drawn twice names the same hull twice — the union is the
        same set either way.
        """
        return UnionRegion([
            self._seed_hull(int(self.rng.integers(len(self.centers))))
            for _ in range(self.mode.alpha)])

    def generate(self):
        """One simulated UIS: a :class:`UnionRegion` of alpha convex hulls.

        Returns ``(region, member_mask)`` where ``member_mask`` is the
        boolean ku-vector of which C_u centers fall inside the region
        (used to seed UIS feature vectors without re-testing containment).
        """
        region = self.draw_region()
        member_mask = region.contains(self.centers)
        return region, member_mask

    def generate_batch(self, count):
        """Generate ``count`` independent UISs.

        Draws exactly the random stream :meth:`generate` would, then
        computes every region's center-membership mask with **one**
        packed-engine call over their distinct hulls
        (:func:`~repro.geometry.engine.union_masks`) instead of one
        region at a time.
        """
        regions = [self.draw_region() for _ in range(count)]
        masks = union_masks([r.hulls for r in regions], self.centers)
        return list(zip(regions, masks))
