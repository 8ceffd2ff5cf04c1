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

**Everything geometric is a function of the summary.**  P_u and P_s are
precomputed so that a hull costs a row look-up, and C_s / C_q are the
same rows in every task — so nothing here is built per task.  A
simulated UIS names memoised hulls (:mod:`repro.core.uis`, at most ku a
generator); :meth:`MetaTaskGenerator.generate` labels *all* its tasks
from one membership table — rows ``[C_u; C_s; C_q; every extra
tuple]``, one column per distinct hull, a task's labels the OR of its
region's columns; and :class:`ClusterSummary` itself holds, for as long
as it lives, the sorted P_s rows and the anchor hulls the few-shot
optimizer reads (:mod:`repro.core.optimizer`, at most 2 ks).  A memo
dies with its summary — ``refresh_subspace`` builds a new one.  The
per-task construction (one ``Hull`` per draw, one compiled region and
two ``contains`` calls per task) is the oracle of
``tests/core/_task_oracle.py``, which every field of every task must
equal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..data.sampling import random_sample, ratio_sample
from ..geometry.engine import PackedHulls
from ..ml.kmeans import DistanceRows, KMeans, pairwise_distances
from ..obs import default_registry
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
    #: ``(anchor, n) -> Hull`` over C_s center ``anchor`` and its ``n``
    #: nearest C_u centers: a function of the arrays above, filled by
    #: :class:`~repro.core.optimizer.FewShotOptimizer` (``setdefault``),
    #: at most two sizes an anchor.  Not state: never passed in,
    #: compared or printed.
    anchor_hulls: dict = field(default_factory=dict, init=False,
                               repr=False, compare=False)

    @cached_property
    def neighbours_s(self):
        """``(ks, ku)`` C_u indices of every C_s center, nearest first:
        P_s sorted once, on first use."""
        return np.argsort(self.proximity_s, axis=1)

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


def _switch_on(bits_s, neighbours_s, expansion):
    """v_R: the ``expansion`` first columns of ``neighbours_s`` (``(ks,
    ku)`` C_u indices, nearest first) switched on for every set bit."""
    bits_s = np.asarray(bits_s).astype(bool).ravel()
    ks, ku = neighbours_s.shape
    if bits_s.size != ks:
        raise ValueError("{} center bits, but proximity_s has ks={} rows"
                         .format(bits_s.size, ks))
    expansion = max(1, min(int(expansion), ku))
    vector = np.zeros(ku)
    vector[neighbours_s[bits_s, :expansion]] = 1.0
    return vector


def expand_bits(bits_s, proximity_s, ku, expansion):
    """Heuristically expand a ks-bit vector over C_s to a ku-bit vector.

    For every set bit (an "interesting" C_s center) the ``expansion``
    nearest C_u centers (by the precomputed P_s row) are switched on in the
    output (Section VI-A).  The result is the dense UIS feature vector
    ``v_R`` consumed by the UIS-feature embedding block.
    """
    proximity_s = np.asarray(proximity_s)
    if proximity_s.ndim != 2 or proximity_s.shape[1] != ku:
        raise ValueError("proximity_s shape {} inconsistent with ku={}"
                         .format(proximity_s.shape, ku))
    return _switch_on(bits_s, np.argsort(proximity_s, axis=1), expansion)


def uis_feature_vector(support_labels_on_centers, summary, expansion=None):
    """Build v_R from the labels of the C_s centers.

    ``expansion`` defaults to the paper's l = 0.1 * ku.  Reads the
    summary's sorted P_s rows (:attr:`ClusterSummary.neighbours_s`) —
    no sort per call.
    """
    if expansion is None:
        expansion = max(1, int(round(0.1 * summary.ku)))
    return _switch_on(support_labels_on_centers, summary.neighbours_s,
                      expansion)


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
    def generate_task(self):
        """Generate a single :class:`MetaTask`."""
        return self.generate(1)[0]

    def generate(self, n_tasks):
        """Generate the meta-task set T^M (collect ``n_tasks`` tasks).

        The ``n_tasks`` regions and then the ``2 n_tasks`` extra-tuple
        samples (support, query, support, ...) are drawn from their two
        independent generators in the order sequential
        :meth:`generate_task` calls would draw them, so tasks are
        bit-identical however they are batched.  Labels come from
        **one** membership table: rows ``[C_u; C_s; C_q; every extra
        tuple]``, one column per distinct hull of the drawn regions (a
        region names memoised hulls, so at most ku columns); a task's
        center mask, support and query labels are the OR of its
        region's columns over its own rows.  The table is ``(ku + ks +
        kq + 2 delta n_tasks) x min(alpha n_tasks, ku)`` bytes — 5 MB
        for the paper's 5 000 tasks at the default sizes.
        """
        if n_tasks < 1:
            raise ValueError("n_tasks must be >= 1")
        start = time.perf_counter()
        summary = self.summary
        regions = [self._uis_generator.draw_region()
                   for _ in range(n_tasks)]
        extras = [random_sample(self.data, self.delta,
                                seed=int(self._rng.integers(2 ** 31)))
                  for _ in range(2 * n_tasks)]
        column, distinct = {}, []
        for region in regions:
            for hull in region.hulls:
                if id(hull) not in column:
                    column[id(hull)] = len(distinct)
                    distinct.append(hull)
        member = PackedHulls(distinct).membership(np.vstack(
            [summary.centers_u, summary.centers_s, summary.centers_q]
            + extras))
        n_centers = summary.ku + summary.ks + summary.kq
        tasks, row = [], n_centers
        for region, support, query in zip(regions, extras[::2],
                                          extras[1::2]):
            columns = [column[id(hull)] for hull in region.hulls]
            end = row + len(support) + len(query)
            inside = np.concatenate([member[:n_centers, columns],
                                     member[row:end, columns]]).any(axis=1)
            in_u, in_s, in_q, in_support, in_query = np.split(
                inside, np.cumsum([summary.ku, summary.ks, summary.kq,
                                   len(support)]))
            row = end
            # v_R derives from the labels on the C_s centers only (the
            # bits a user's initial labelling would produce).
            tasks.append(MetaTask(
                region=region,
                support_x=np.vstack([summary.centers_s, support])
                if self.delta else summary.centers_s,
                support_y=np.concatenate([in_s, in_support])
                .astype(np.int64),
                query_x=np.vstack([summary.centers_q, query])
                if self.delta else summary.centers_q,
                query_y=np.concatenate([in_q, in_query]).astype(np.int64),
                feature_vector=uis_feature_vector(in_s, summary),
                center_member_mask=in_u))
        default_registry().histogram("core.offline.generate.seconds") \
            .observe(time.perf_counter() - start)
        return tasks
