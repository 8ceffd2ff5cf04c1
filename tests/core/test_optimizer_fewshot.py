"""Tests for the few-shot FP/FN optimizer (Section VII-B)."""

import os
import sys

import numpy as np
import pytest

from repro.core.meta_task import build_cluster_summary
from repro.core.optimizer import FewShotOptimizer

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "serve"))
from _refine_oracle import refine  # noqa: E402


def grid_summary(seed=0):
    rng = np.random.default_rng(seed)
    data = rng.uniform(0, 10, size=(800, 2))
    return build_cluster_summary(data, ku=25, ks=8, kq=10, seed=seed)


class TestFit:
    def test_regions_built_from_positive_anchors(self):
        summary = grid_summary()
        labels = np.zeros(8)
        labels[0] = 1
        opt = FewShotOptimizer(summary).fit(labels)
        assert opt.outer_region is not None
        assert opt.inner_region is not None
        assert opt.outer_region.n_parts == 1

    def test_no_positive_anchors_gives_no_regions(self):
        summary = grid_summary()
        opt = FewShotOptimizer(summary).fit(np.zeros(8))
        assert opt.outer_region is None
        assert opt.inner_region is None

    def test_label_count_checked(self):
        opt = FewShotOptimizer(grid_summary())
        with pytest.raises(ValueError):
            opt.fit(np.ones(3))

    def test_ratio_validation(self):
        summary = grid_summary()
        with pytest.raises(ValueError):
            FewShotOptimizer(summary, n_sup_ratio=0.1, n_sub_ratio=0.5)
        with pytest.raises(ValueError):
            FewShotOptimizer(summary, n_sup_ratio=0.2, n_sub_ratio=0.0)

    def test_inner_smaller_than_outer(self):
        summary = grid_summary()
        labels = np.zeros(8)
        labels[2] = 1
        opt = FewShotOptimizer(summary, n_sup_ratio=0.4, n_sub_ratio=0.08)
        opt.fit(labels)
        rng = np.random.default_rng(1)
        probe = rng.uniform(0, 10, size=(500, 2))
        outer_cover = opt.outer_region.contains(probe).sum()
        inner_cover = opt.inner_region.contains(probe).sum()
        assert inner_cover <= outer_cover


class TestRefine:
    def setup_method(self):
        self.summary = grid_summary(seed=3)
        labels = np.zeros(8)
        labels[1] = 1
        self.opt = FewShotOptimizer(self.summary, n_sup_ratio=0.3,
                                    n_sub_ratio=0.1).fit(labels)
        rng = np.random.default_rng(4)
        self.points = rng.uniform(0, 10, size=(200, 2))

    def test_fp_demotion_outside_outer(self):
        preds = np.ones(len(self.points), dtype=int)
        refined = refine(self.opt, self.points, preds)
        outside = ~self.opt.outer_region.contains(self.points)
        assert (refined[outside] == 0).all()

    def test_fn_promotion_inside_inner(self):
        preds = np.zeros(len(self.points), dtype=int)
        refined = refine(self.opt, self.points, preds)
        inside = self.opt.inner_region.contains(self.points)
        assert (refined[inside] == 1).all()

    def test_refine_with_no_regions_is_identity(self):
        opt = FewShotOptimizer(self.summary).fit(np.zeros(8))
        preds = np.random.default_rng(5).integers(0, 2, len(self.points))
        assert np.array_equal(refine(opt, self.points, preds), preds)

    def test_refine_does_not_mutate_input(self):
        preds = np.ones(len(self.points), dtype=int)
        copy = preds.copy()
        refine(self.opt, self.points, preds)
        assert np.array_equal(preds, copy)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            refine(self.opt, self.points, np.ones(3))

    def test_middle_zone_follows_classifier(self):
        # Points inside outer but outside inner keep their prediction.
        preds = np.zeros(len(self.points), dtype=int)
        refined = refine(self.opt, self.points, preds)
        middle = (self.opt.outer_region.contains(self.points)
                  & ~self.opt.inner_region.contains(self.points))
        assert np.array_equal(refined[middle], preds[middle])
