"""Tests for bench workload builders (uses tiny scales)."""

import numpy as np
import pytest

from repro.bench.config import BenchScale
from repro.bench.workloads import (build_lte, clear_caches, convex_oracles,
                                   eval_rows_for, get_table, make_config,
                                   mode_oracles)
from repro.core.uis import UISMode

TINY = BenchScale(name="quick", dataset_rows=2500, n_tasks=4, epochs=1,
                  local_steps=2, n_test_uirs=2, eval_rows=300, pool_size=100,
                  basic_steps=5)


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestTableCache:
    def test_same_object_returned(self):
        a = get_table("sdss", TINY)
        b = get_table("sdss", TINY)
        assert a is b

    def test_row_count_follows_scale(self):
        assert get_table("car", TINY).n_rows == 2500


class TestBuildLte:
    def test_caching_by_configuration(self):
        a = build_lte("sdss", budget=20, scale=TINY, train=False)
        b = build_lte("sdss", budget=20, scale=TINY, train=False)
        c = build_lte("sdss", budget=25, scale=TINY, train=False)
        assert a is b
        assert a is not c

    def test_untrained_build(self):
        lte = build_lte("sdss", budget=20, scale=TINY, train=False)
        assert all(s.trainer is None for s in lte.states.values())

    def test_build_lte_variants_cached_separately(self):
        """Ablation builds must not collide in the workload cache."""
        a = build_lte("sdss", budget=30, scale=TINY, use_memories=True,
                      train=False)
        b = build_lte("sdss", budget=30, scale=TINY, use_memories=False,
                      train=False)
        assert a is not b

    def test_config_scale_mapping(self):
        cfg = make_config(budget=20, scale=TINY)
        assert cfg.n_tasks == 4
        assert cfg.meta.epochs == 1
        assert cfg.basic_steps == 5


class TestOracles:
    def test_convex_oracle_structure(self):
        lte = build_lte("sdss", budget=20, scale=TINY, train=False)
        subs = list(lte.states)[:2]
        oracles = convex_oracles(lte, subs, n_uirs=3, seed=0)
        assert len(oracles) == 3
        for oracle in oracles:
            assert set(oracle.subspace_regions) == set(subs)
            for region in oracle.subspace_regions.values():
                assert region.n_parts == 1  # convex: alpha = 1

    def test_mode_oracle_alpha(self):
        lte = build_lte("sdss", budget=20, scale=TINY, train=False)
        subs = list(lte.states)[:1]
        oracles = mode_oracles(lte, subs, UISMode(3, 6), n_uirs=2, seed=0)
        for oracle in oracles:
            for region in oracle.subspace_regions.values():
                assert region.n_parts == 3

    def test_oracles_deterministic_per_seed(self):
        lte = build_lte("sdss", budget=20, scale=TINY, train=False)
        subs = list(lte.states)[:1]
        rows = lte.table.sample_rows(200, seed=0)
        a = convex_oracles(lte, subs, n_uirs=1, seed=5)[0]
        b = convex_oracles(lte, subs, n_uirs=1, seed=5)[0]
        assert np.array_equal(a.ground_truth(rows), b.ground_truth(rows))

    def test_eval_rows_shape(self):
        lte = build_lte("sdss", budget=20, scale=TINY, train=False)
        rows = eval_rows_for(lte, TINY)
        assert rows.shape == (300, 8)
