"""Meta-task generation (paper Section V, Algorithm 1).

A meta-task ``t = (R_t, S_sp, S_qs)`` simulates one exploration episode:
``R_t`` is a synthetic UIS, the support set plays the role of the tuples a
user would label, the query set evaluates the locally adapted learner.
Generation is fully unsupervised:

1. *Clustering step* — three independent k-means rounds (k = ku, ks, kq) on
   a ~1% sample give center sets C_u, C_s, C_q and proximity matrices
   P_u (ku x ku, for UIS construction) and P_s (ks x ku, for feature-vector
   expansion and the FP/FN optimizer).
2. *Task generation step* — a UIS is a random union of convex hulls over
   C_u (``uis.UISGenerator``); the support set is the C_s centers plus
   ``delta`` random tuples, labelled by region membership; the query set is
   built likewise from C_q.

The C_s centers double as the *initial tuples* shown to a real user at the
start of online exploration, so offline simulation and online adaptation
see identically constructed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data.sampling import random_sample, ratio_sample
from ..ml.kmeans import DistanceRows, KMeans, pairwise_distances
from .uis import UISGenerator, UISMode

__all__ = ["ClusterSummary", "MetaTask", "MetaTaskGenerator",
           "build_cluster_summary", "uis_feature_vector", "expand_bits"]


@dataclass
class ClusterSummary:
    """Clustering-step output for one meta-subspace (Section V-B)."""

    centers_u: np.ndarray          # (ku, d)
    centers_s: np.ndarray          # (ks, d)
    centers_q: np.ndarray          # (kq, d)
    proximity_u: np.ndarray        # (ku, ku) distances within C_u
    proximity_s: np.ndarray        # (ks, ku) distances C_s -> C_u

    @property
    def ku(self):
        return len(self.centers_u)

    @property
    def ks(self):
        return len(self.centers_s)

    @property
    def kq(self):
        return len(self.centers_q)


def build_cluster_summary(data, ku, ks, kq, sample_ratio=0.01, seed=None):
    """Run the clustering step on a sampled subset of ``data``.

    ``data`` is the (n x d) projection of the database onto one
    meta-subspace; sampling keeps the three k-means rounds cheap.
    """
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    sample = ratio_sample(data, sample_ratio, seed=seed,
                          min_rows=max(10 * max(ku, ks, kq), 100)) \
        if len(data) > 100 else data
    base = seed if seed is not None else 0
    # One sample, three rounds: its norms and doubled rows are built once.
    rows = DistanceRows(sample)
    centers_u = KMeans(min(ku, len(sample)), seed=base).fit(rows).centers_
    centers_s = KMeans(min(ks, len(sample)), seed=base + 1).fit(rows).centers_
    centers_q = KMeans(min(kq, len(sample)), seed=base + 2).fit(rows).centers_
    return ClusterSummary(
        centers_u=centers_u,
        centers_s=centers_s,
        centers_q=centers_q,
        proximity_u=pairwise_distances(centers_u, centers_u),
        proximity_s=pairwise_distances(centers_s, centers_u),
    )


def expand_bits(bits_s, proximity_s, ku, expansion):
    """Heuristically expand a ks-bit vector over C_s to a ku-bit vector.

    For every set bit (an "interesting" C_s center) the ``expansion``
    nearest C_u centers (by the precomputed P_s row) are switched on in the
    output (Section VI-A).  The result is the dense UIS feature vector
    ``v_R`` consumed by the UIS-feature embedding block.
    """
    bits_s = np.asarray(bits_s).astype(bool).ravel()
    if proximity_s.shape != (bits_s.size, ku):
        raise ValueError("proximity_s shape {} inconsistent with ks={} ku={}"
                         .format(proximity_s.shape, bits_s.size, ku))
    expansion = max(1, min(int(expansion), ku))
    vector = np.zeros(ku)
    for s_idx in np.flatnonzero(bits_s):
        neighbours = np.argsort(proximity_s[s_idx])[:expansion]
        vector[neighbours] = 1.0
    return vector


def uis_feature_vector(support_labels_on_centers, summary, expansion=None):
    """Build v_R from the labels of the C_s centers.

    ``expansion`` defaults to the paper's l = 0.1 * ku.
    """
    if expansion is None:
        expansion = max(1, int(round(0.1 * summary.ku)))
    return expand_bits(support_labels_on_centers, summary.proximity_s,
                       summary.ku, expansion)


@dataclass
class MetaTask:
    """One generated meta-task (Definition 2)."""

    region: object                      # the simulated UIS (UnionRegion)
    support_x: np.ndarray               # (ks + delta, d) raw tuples
    support_y: np.ndarray               # 0/1 labels
    query_x: np.ndarray                 # (kq + delta, d)
    query_y: np.ndarray
    feature_vector: np.ndarray          # v_R, length ku
    center_member_mask: np.ndarray = field(default=None)

    @property
    def positive_rate(self):
        """Fraction of interesting tuples in the support set."""
        return float(self.support_y.mean()) if self.support_y.size else 0.0


class MetaTaskGenerator:
    """Algorithm 1: generate a meta-task set for one meta-subspace.

    Parameters
    ----------
    data:
        (n x d) database projection onto the meta-subspace.
    ku, ks, kq:
        Cluster counts of the three rounds.  ``ks + delta`` equals the
        exploration label budget B the trained meta-learner targets.
    mode:
        The (alpha, psi) :class:`~repro.core.uis.UISMode` used for
        simulated UISs.
    delta:
        Number of extra random tuples added to each support/query set.
    """

    def __init__(self, data, ku=100, ks=25, kq=200, mode=None, delta=5,
                 sample_ratio=0.01, seed=None):
        self.data = np.atleast_2d(np.asarray(data, dtype=np.float64))
        self.mode = mode or UISMode(alpha=4, psi=20)
        self.delta = int(delta)
        self.seed = seed
        self.summary = build_cluster_summary(
            self.data, ku=ku, ks=ks, kq=kq, sample_ratio=sample_ratio,
            seed=seed)
        self._uis_generator = UISGenerator(
            self.summary.centers_u, self.summary.proximity_u, self.mode,
            seed=seed)
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def _labelled_set(self, centers, region):
        """Centers + delta random tuples, labelled by region membership."""
        extras = random_sample(self.data, self.delta,
                               seed=int(self._rng.integers(2 ** 31)))
        tuples = np.vstack([centers, extras]) if self.delta else centers
        labels = region.label(tuples)
        return tuples, labels

    def generate_task(self):
        """Generate a single :class:`MetaTask`."""
        region, member_mask = self._uis_generator.generate()
        return self._task_for(region, member_mask)

    def _task_for(self, region, member_mask):
        support_x, support_y = self._labelled_set(self.summary.centers_s,
                                                  region)
        query_x, query_y = self._labelled_set(self.summary.centers_q, region)
        # v_R derives from the labels on the C_s centers only (the bits a
        # user's initial labelling would produce).
        bits_s = support_y[:self.summary.ks].astype(bool)
        feature = uis_feature_vector(bits_s, self.summary)
        return MetaTask(region=region,
                        support_x=support_x, support_y=support_y,
                        query_x=query_x, query_y=query_y,
                        feature_vector=feature,
                        center_member_mask=member_mask)

    def generate(self, n_tasks):
        """Generate the meta-task set T^M (collect ``n_tasks`` tasks).

        UIS regions are drawn up front and their center-membership masks
        computed through one packed-engine call
        (:meth:`~repro.core.uis.UISGenerator.generate_batch`); the
        simulated-UIS and extra-tuple random streams are independent
        generators, so the tasks are bit-identical to sequential
        :meth:`generate_task` calls.
        """
        if n_tasks < 1:
            raise ValueError("n_tasks must be >= 1")
        return [self._task_for(region, member_mask)
                for region, member_mask
                in self._uis_generator.generate_batch(n_tasks)]
