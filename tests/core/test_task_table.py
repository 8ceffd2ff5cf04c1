"""Every hull is built once, every task labelled from one table — and
nothing about a task, a fitted optimizer or an answer changes.

``MetaTaskGenerator.generate`` draws its regions from memoised hulls and
reads every label off one ``PackedHulls.membership`` table;
``FewShotOptimizer.fit`` reads its anchor hulls from the summary it was
built over.  The per-task, per-call construction they replaced lives on
verbatim in ``_task_oracle.py``: tasks must equal its tasks field by
field (values *and* dtypes), hull point sets included.  The mechanism is
pinned by counting ``Hull.__init__`` and ``PackedHulls.membership``
calls (the ``hull_calls`` fixture of ``tests/conftest.py``).  Example
counts come from the hypothesis profile, so CI's
``train`` lane raises them ten-fold with ``--hypothesis-profile=x10``
(registered in ``tests/conftest.py``).
"""

import copy
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _task_oracle import (PerTaskGenerator, expand_bits_by_loop,
                          fit_per_call)
from repro.core import LTE, LTEConfig
from repro.core.meta_task import (MetaTaskGenerator, build_cluster_summary,
                                  expand_bits, uis_feature_vector)
from repro.core.meta_training import MetaHyperParams
from repro.core.optimizer import FewShotOptimizer, HullRegistry
from repro.core.uis import UISGenerator, UISMode
from repro.data import make_car
from repro.geometry.engine import HullPackCache, union_masks
from repro.geometry.regions import UnionRegion

pytestmark = pytest.mark.train

KU = 40
FIELDS = ("support_x", "support_y", "query_x", "query_y", "feature_vector",
          "center_member_mask")


def make_generator(d, delta, mode, seed=5, data=None):
    if data is None:
        data = np.random.default_rng(seed).random((3000, d))
    return MetaTaskGenerator(data, ku=KU, ks=15, kq=60, mode=mode,
                             delta=delta, seed=seed)


def assert_same_tasks(new, old):
    assert len(new) == len(old)
    for task, reference in zip(new, old):
        for name in FIELDS:
            ours, theirs = getattr(task, name), getattr(reference, name)
            assert ours.dtype == theirs.dtype, name
            assert np.array_equal(ours, theirs), name
        assert len(task.region.hulls) == len(reference.region.hulls)
        for hull, other in zip(task.region.hulls, reference.region.hulls):
            assert np.array_equal(hull.points, other.points)


# ----------------------------------------------------------------------
# Tasks: the table against the per-task oracle
# ----------------------------------------------------------------------
class TestTasksEqualThePerTaskOracle:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("delta", [0, 5])
    @pytest.mark.parametrize("n", [1, 7, 200])
    def test_every_field_two_calls_in_a_row(self, n, delta, d):
        generator = make_generator(d, delta, UISMode(alpha=3, psi=8))
        oracle = PerTaskGenerator(generator)
        assert_same_tasks(generator.generate(n), oracle.generate(n))
        # The second call finds the memo filled and the streams advanced.
        assert_same_tasks(generator.generate(n), oracle.generate(n))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("psi", [2, KU])
    def test_one_part_regions_at_the_extreme_sizes(self, psi, d):
        """psi = 2 hulls are segments (the degenerate affine-span path
        from 2-D up), psi = ku is one hull whatever the seed's order."""
        generator = make_generator(d, 5, UISMode(alpha=1, psi=psi))
        assert_same_tasks(generator.generate(30),
                          PerTaskGenerator(generator).generate(30))

    @pytest.mark.parametrize("kind", ["unit", "grid"])
    def test_table_of_repeated_rows(self, kind):
        """40 distinct rows, 50 times each.  On a 5 x 5 grid k-means
        returns coinciding centres, so P_u and P_s are full of exact
        ties — which the one sort of all rows must break as the per-row
        sorts did — and hulls hold fewer distinct points than their
        dimension needs."""
        rng = np.random.default_rng(3)
        distinct = rng.random((40, 2)) if kind == "unit" \
            else rng.integers(0, 5, size=(40, 2)).astype(np.float64)
        data = np.tile(distinct, (50, 1))
        for mode in (UISMode(alpha=4, psi=8), UISMode(alpha=1, psi=2)):
            generator = make_generator(2, 5, mode, data=data)
            oracle = PerTaskGenerator(generator)
            assert_same_tasks(generator.generate(25), oracle.generate(25))
        summary = generator.summary
        tied = sum(len(row) - len(np.unique(row))
                   for row in summary.proximity_s)
        assert (tied > 100) == (kind == "grid")
        for s_idx in range(summary.ks):
            assert np.array_equal(summary.neighbours_s[s_idx],
                                  np.argsort(summary.proximity_s[s_idx]))

    def test_batch_equals_single_tasks(self):
        mode = UISMode(alpha=2, psi=8)
        batch = make_generator(2, 5, mode).generate(4)
        single = make_generator(2, 5, mode)
        assert_same_tasks(batch, [single.generate_task() for _ in range(4)])
        oracle = PerTaskGenerator(single)
        for _ in range(4):      # catch its streams up, then go on in step
            oracle.generate_task()
        assert_same_tasks([single.generate_task()], [oracle.generate_task()])

    @settings(deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3),
           st.integers(0, 6), st.integers(1, 5), st.integers(2, 20),
           st.integers(1, 12), st.sampled_from(["unit", "grid"]))
    def test_fuzz(self, seed, d, delta, alpha, psi, n, kind):
        rng = np.random.default_rng(seed)
        data = rng.random((600, d)) if kind == "unit" \
            else rng.integers(0, 4, size=(600, d)).astype(np.float64)
        generator = MetaTaskGenerator(
            data, ku=20, ks=6, kq=9, mode=UISMode(alpha=alpha, psi=psi),
            delta=delta, seed=seed % 1000)
        oracle = PerTaskGenerator(generator)
        assert_same_tasks(generator.generate(n), oracle.generate(n))
        assert_same_tasks([generator.generate_task()],
                          [oracle.generate_task()])

    @settings(deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3),
           st.integers(1, 25), st.sampled_from(["unit", "grid"]))
    def test_feature_vector_reads_the_one_sort(self, seed, d, expansion,
                                               kind):
        rng = np.random.default_rng(seed)
        data = rng.random((400, d)) if kind == "unit" \
            else rng.integers(0, 3, size=(400, d)).astype(np.float64)
        summary = build_cluster_summary(data, ku=20, ks=6, kq=8,
                                        seed=seed % 1000)
        bits = rng.integers(0, 2, size=summary.ks)
        reference = expand_bits_by_loop(bits, summary.proximity_s,
                                        summary.ku, expansion)
        assert np.array_equal(
            uis_feature_vector(bits, summary, expansion), reference)
        assert np.array_equal(
            expand_bits(bits, summary.proximity_s, summary.ku, expansion),
            reference)


# ----------------------------------------------------------------------
# Mechanism: what is built, and how often
# ----------------------------------------------------------------------
class TestHullsAreBuiltOnce:
    @pytest.mark.parametrize("n", [1, 6, 200])
    def test_generate_builds_each_seed_once_and_asks_one_table(
            self, n, hull_calls):
        alpha = 4
        generator = make_generator(2, 5, UISMode(alpha=alpha, psi=8))
        hull_calls.update(hulls=0, membership=0)
        tasks = generator.generate(n)
        distinct = {id(hull) for task in tasks
                    for hull in task.region.hulls}
        assert hull_calls["hulls"] == len(distinct) <= min(n * alpha, KU)
        assert hull_calls["membership"] == 1
        again = generator.generate(n)
        assert hull_calls["membership"] == 2
        distinct |= {id(hull) for task in again
                     for hull in task.region.hulls}
        # Only seeds the first call had not drawn were built.
        assert hull_calls["hulls"] == len(distinct) <= KU

    def test_a_seed_drawn_again_is_the_same_object(self):
        generator = make_generator(2, 0, UISMode(alpha=4, psi=8))
        hulls = [hull for task in generator.generate(200)
                 for hull in task.region.hulls]
        by_points = {}
        for hull in hulls:
            assert by_points.setdefault(hull.points.tobytes(), hull) is hull
        assert len(by_points) <= KU < len(hulls)

    def test_second_fit_batch_builds_nothing_and_equals_the_first(
            self, hull_calls):
        summary = make_generator(2, 5, UISMode(alpha=1, psi=8)).summary
        rng = np.random.default_rng(0)
        items = [(summary, rng.integers(0, 2, size=summary.ks), 0.3, 0.1)
                 for _ in range(6)]
        hull_calls.update(hulls=0)
        first = FewShotOptimizer.fit_batch(items)
        anchors = set().union(*(np.flatnonzero(bits) for _, bits, _, _
                                in items))
        assert hull_calls["hulls"] == 2 * len(anchors) \
            == len(summary.anchor_hulls)
        second = FewShotOptimizer.fit_batch(items)
        assert hull_calls["hulls"] == 2 * len(anchors)
        for (_, bits, _, _), a, b in zip(items, first, second):
            reference = fit_per_call(FewShotOptimizer(summary, 0.3, 0.1),
                                     bits)
            for name in ("outer_region", "inner_region"):
                ours, again = getattr(a, name), getattr(b, name)
                theirs = getattr(reference, name)
                if theirs is None:
                    assert ours is None and again is None
                    continue
                assert all(x is y for x, y in zip(ours.hulls, again.hulls))
                assert len(ours.hulls) == len(theirs.hulls)
                for hull, other in zip(ours.hulls, theirs.hulls):
                    assert np.array_equal(hull.points, other.points)
                    assert np.array_equal(hull.halfspaces().A,
                                          other.halfspaces().A)
                    assert np.array_equal(hull.halfspaces().b,
                                          other.halfspaces().b)

    def test_racing_threads_agree_on_one_object_per_key(self):
        summary = make_generator(2, 5, UISMode(alpha=1, psi=8)).summary
        bits = np.ones(summary.ks, dtype=int)
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        fitted, failures = [None] * n_threads, []

        def fit(slot):
            try:
                barrier.wait(timeout=30)
                fitted[slot] = FewShotOptimizer(summary).fit(bits)
            except Exception as error:      # reported below, not lost
                failures.append(error)

        threads = [threading.Thread(target=fit, args=(slot,))
                   for slot in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not failures and not any(t.is_alive() for t in threads)
        assert len(summary.anchor_hulls) == 2 * summary.ks
        for optimizer in fitted:
            for region, n in ((optimizer.outer_region, optimizer.n_sup),
                              (optimizer.inner_region, optimizer.n_sub)):
                assert all(hull is summary.anchor_hulls[(s_idx, n)]
                           for s_idx, hull in enumerate(region.hulls))


# ----------------------------------------------------------------------
# Shared hull objects downstream: unions, packs, checkpoints, lifetimes
# ----------------------------------------------------------------------
class TestAUnionNamingOneHullTwice:
    @pytest.fixture(scope="class")
    def repeated(self):
        """Regions whose draws hit one seed twice — about 1 in 7 at ku 40
        and alpha 4 — out of one generator's first 60."""
        centers = np.random.default_rng(2).random((KU, 2))
        proximity = np.linalg.norm(centers[:, None] - centers[None], axis=-1)
        generator = UISGenerator(centers, proximity, UISMode(alpha=4, psi=6),
                                 seed=1)
        regions = [generator.draw_region() for _ in range(60)]
        repeated = [r for r in regions if len(set(map(id, r.hulls))) < 4]
        assert 2 <= len(repeated) <= 20
        return repeated

    def test_answers_like_the_or_of_its_parts(self, repeated):
        points = np.random.default_rng(4).random((500, 2))
        reference = [np.logical_or.reduce(
            [hull.contains(points) for hull in region.hulls])
            for region in repeated]
        for region, mask in zip(repeated, reference):
            assert mask.any() and not mask.all()
            assert np.array_equal(region.contains(points), mask)
        hull_lists = [region.hulls for region in repeated]
        for got in (union_masks(hull_lists, points),
                    union_masks(hull_lists, points,
                                pack_cache=HullPackCache())):
            assert all(np.array_equal(a, b) for a, b in zip(got, reference))
        cache = HullPackCache()         # ... and from a pack with a raster
        many = np.random.default_rng(5).random((5000, 2))
        union_masks(hull_lists, many, pack_cache=cache)
        assert all(np.array_equal(a, b) for a, b in zip(
            union_masks(hull_lists, points, pack_cache=cache), reference))
        assert cache.metrics.value("geometry.raster.built") == 1

    def test_survives_a_registry_round_trip(self, repeated):
        registry = HullRegistry()
        indices = [[registry.add(hull) for hull in region.hulls]
                   for region in repeated]
        assert all(len(set(row)) < len(row) for row in indices)
        assert len(registry.hulls) == len(
            {id(hull) for region in repeated for hull in region.hulls})
        restored = HullRegistry.restore(registry.state()).hulls
        points = np.random.default_rng(6).random((400, 2))
        for region, row in zip(repeated, indices):
            again = UnionRegion([restored[i] for i in row])
            assert np.array_equal(again.contains(points),
                                  region.contains(points))


@pytest.fixture(scope="module")
def small_lte():
    config = LTEConfig(budget=15, ku=20, kq=25, n_tasks=6,
                       meta=MetaHyperParams(epochs=1, local_steps=2,
                                            batch_size=3, pretrain_epochs=1),
                       basic_steps=10, online_steps=3)
    return LTE(config).fit_offline(make_car(n_rows=2500, seed=81))


def answers(lte, rows):
    """One Meta* session over every subspace, labelled by a fixed rule."""
    session = lte.start_session(variant="meta_star", seed=7)
    for subspace, tuples in session.initial_tuples().items():
        session.submit_labels(
            subspace, (tuples[:, 0] > np.median(tuples[:, 0])).astype(int))
    return session.predict(rows)


class TestMemoLifetime:
    def test_refresh_starts_an_empty_memo(self, small_lte):
        lte = copy.deepcopy(small_lte)
        subspace = next(s for s in lte.states if s.dim == 2)
        before = lte.states[subspace]
        answers(lte, lte.table.data[:50])
        drawn = dict(before.task_generator._uis_generator._hulls)
        anchored = dict(before.summary.anchor_hulls)
        assert drawn and anchored
        after = lte.refresh_subspace(lte.table, subspace, train=False)
        assert after.summary is not before.summary
        assert after.summary.anchor_hulls == {}
        assert after.task_generator._uis_generator._hulls == {}
        assert "neighbours_s" not in vars(after.summary)
        # The retired state keeps what sessions opened under it share.
        assert before.summary.anchor_hulls == anchored
        assert before.task_generator._uis_generator._hulls == drawn

    def test_copies_and_pickles_keep_serving_equal_answers(self, small_lte):
        rows = small_lte.table.data[:400]
        reference = answers(small_lte, rows)
        assert 0 < reference.sum() < len(rows)
        assert any(state.summary.anchor_hulls
                   for state in small_lte.states.values())
        for clone in (copy.deepcopy(small_lte),
                      pickle.loads(pickle.dumps(small_lte))):
            for subspace, state in clone.states.items():
                original = small_lte.states[subspace].summary
                assert state.summary is not original
                assert state.summary.anchor_hulls.keys() == \
                    original.anchor_hulls.keys()
                assert not set(map(id, state.summary.anchor_hulls.values())) \
                    & set(map(id, original.anchor_hulls.values()))
            assert np.array_equal(answers(clone, rows), reference)
        assert np.array_equal(answers(small_lte, rows), reference)
