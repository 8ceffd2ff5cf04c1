"""Per-task meta-task generation, as the oracle.

Until PR 24 every simulated UIS built its own hulls (one Qhull run a
draw, whatever seed came up), every task compiled its region into a pack
of its own and asked it twice — once for the support set, once for the
query set — and ``FewShotOptimizer.fit`` rebuilt its anchor hulls on
every call.  ``src/`` now builds each hull once and labels every task of
a ``generate`` from one membership table; the bodies it replaced are
below, moved verbatim but for imports (methods of ``UISGenerator`` and
``MetaTaskGenerator`` became methods of one class that borrows a
generator's data, summary, mode and seed), and every field of every task
must equal theirs (``tests/core/test_task_table.py``).  Nothing in
``src/`` imports this module.
"""

import numpy as np

from repro.core.meta_task import MetaTask
from repro.data.sampling import random_sample
from repro.geometry.convex_hull import Hull
from repro.geometry.engine import union_masks
from repro.geometry.regions import UnionRegion


class PerTaskGenerator:
    """The parent commit's ``MetaTaskGenerator.generate`` /
    ``generate_task`` over the artifacts of ``generator`` — same data,
    summary, mode and delta, and fresh random streams from the same
    seed, so it replays what ``generator`` draws from construction on."""

    def __init__(self, generator):
        self.data = generator.data
        self.summary = generator.summary
        self.mode = generator.mode
        self.delta = generator.delta
        self.centers = self.summary.centers_u
        self.proximity = self.summary.proximity_u
        self.rng = np.random.default_rng(generator.seed)
        self._rng = np.random.default_rng(generator.seed)

    # -- UISGenerator ---------------------------------------------------
    def _draw_region(self):
        """Draw one UIS region (advances the RNG; no membership test)."""
        hulls = []
        for _ in range(self.mode.alpha):
            seed_idx = int(self.rng.integers(len(self.centers)))
            # psi nearest neighbours of the seed center (including itself),
            # via the precomputed proximity row.
            order = np.argsort(self.proximity[seed_idx])
            neighbour_idx = order[:self.mode.psi]
            hulls.append(Hull(self.centers[neighbour_idx]))
        return UnionRegion(hulls)

    def generate_region(self):
        region = self._draw_region()
        member_mask = region.contains(self.centers)
        return region, member_mask

    def generate_batch(self, count):
        regions = [self._draw_region() for _ in range(count)]
        masks = union_masks([r.hulls for r in regions], self.centers)
        return list(zip(regions, masks))

    # -- MetaTaskGenerator ----------------------------------------------
    def _labelled_set(self, centers, region):
        """Centers + delta random tuples, labelled by region membership."""
        extras = random_sample(self.data, self.delta,
                               seed=int(self._rng.integers(2 ** 31)))
        tuples = np.vstack([centers, extras]) if self.delta else centers
        labels = region.label(tuples)
        return tuples, labels

    def generate_task(self):
        """Generate a single :class:`MetaTask`."""
        region, member_mask = self.generate_region()
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
        if n_tasks < 1:
            raise ValueError("n_tasks must be >= 1")
        return [self._task_for(region, member_mask)
                for region, member_mask
                in self.generate_batch(n_tasks)]


def expand_bits_by_loop(bits_s, proximity_s, ku, expansion):
    """The parent's ``expand_bits``: one ``argsort`` a set bit."""
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
    """The parent's ``uis_feature_vector``, over the loop above."""
    if expansion is None:
        expansion = max(1, int(round(0.1 * summary.ku)))
    return expand_bits_by_loop(support_labels_on_centers,
                               summary.proximity_s, summary.ku, expansion)


def fit_per_call(optimizer, support_labels_on_centers):
    """The parent's ``FewShotOptimizer.fit`` with neither keyword: one
    ``argsort`` and one fresh ``Hull`` an anchor and expansion."""
    summary = optimizer.summary

    def expanded_region(positive_center_indices, n_neighbours):
        hulls = []
        for s_idx in positive_center_indices:
            order = np.argsort(summary.proximity_s[s_idx])
            members = summary.centers_u[order[:n_neighbours]]
            # Include the anchor itself so the hull always covers it.
            pts = np.vstack([summary.centers_s[s_idx][None, :], members])
            hulls.append(Hull(pts))
        return UnionRegion(hulls) if hulls else None

    labels = np.asarray(support_labels_on_centers).ravel()
    if labels.size != summary.ks:
        raise ValueError("expected {} center labels, got {}".format(
            summary.ks, labels.size))
    anchors = np.flatnonzero(labels == 1)
    optimizer.outer_region = expanded_region(anchors, optimizer.n_sup)
    optimizer.inner_region = expanded_region(anchors, optimizer.n_sub)
    return optimizer
