"""The array kernels of ``repro.ml.kmeans`` / ``repro.ml.jenks`` return the
bits of the Python loops they replaced (``_loop_oracles.py``).

Every comparison is on raw bytes, generator state included: the clustering
step feeds meta-task generation, so one flipped ``argmin`` tie or one
extra draw would change every centre, meta-task and trained weight after
it.  Example counts come from the hypothesis profile, so CI's ``train``
lane can raise them ten-fold with ``--hypothesis-profile=x10`` (registered
in ``tests/conftest.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _loop_oracles import (LoopKMeans, loop_jenks_breaks,
                           loop_pairwise_distances)
from repro.core import LTE, LTEConfig
from repro.data import make_car, make_sdss
from repro.ml import KMeans, jenks_breaks, pairwise_distances

seeds = st.integers(0, 2 ** 32 - 1)
dims = st.integers(1, 4)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def assert_same_fit(data, k, seed, **params):
    """Fit the kernels and the loops from twin generators; compare
    everything ``fit`` leaves behind.  Returns the kernel model."""
    new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    new = KMeans(k, seed=new_rng, **params).fit(data)
    old = LoopKMeans(k, seed=old_rng, **params).fit(data)
    assert same_bits(new.centers_, old.centers_)
    assert same_bits(new.labels_, old.labels_)
    assert new.inertia_ == old.inertia_
    assert new.n_iter_ == old.n_iter_
    assert new_rng.bit_generator.state == old_rng.bit_generator.state
    return new


def rows(seed, n, d, kind):
    rng = np.random.default_rng(seed)
    if kind == "unit":          # what the framework clusters: scaled to [0, 1]
        return rng.random((n, d))
    if kind == "wide":
        return rng.normal(scale=1e3, size=(n, d))
    return rng.integers(0, 3, size=(n, d)).astype(np.float64)   # "grid"


class TestKMeansParity:
    @settings(deadline=None)
    @given(seeds, dims, st.integers(1, 80), st.integers(1, 12),
           st.sampled_from(["unit", "wide", "grid"]))
    def test_random_rows(self, seed, d, n, k, kind):
        assert_same_fit(rows(seed, n, d, kind), min(k, n), seed)

    @settings(deadline=None)
    @given(seeds, dims, st.integers(1, 30))
    def test_every_row_its_own_cluster(self, seed, d, n):
        assert_same_fit(rows(seed, n, d, "wide"), n, seed)

    @settings(deadline=None)
    @given(seeds, dims, st.integers(1, 400))
    def test_single_cluster(self, seed, d, n):
        assert_same_fit(rows(seed, n, d, "unit"), 1, seed)

    @settings(deadline=None)
    @given(seeds, dims, st.integers(1, 4), st.integers(1, 6),
           st.integers(10, 40))
    def test_fewer_distinct_rows_than_clusters(self, seed, d, distinct,
                                               surplus, n):
        """Coinciding centres leave clusters empty on every iteration, so
        the re-seed branch runs each time (and Lloyd's loop may never
        converge: ``n_iter_`` must agree, up to ``max_iter``)."""
        rng = np.random.default_rng(seed)
        data = rng.random((distinct, d))[rng.integers(distinct, size=n)]
        assert_same_fit(data, min(distinct + surplus, n), seed, max_iter=12)

    @settings(deadline=None)
    @given(seeds, dims, st.integers(2, 30), st.integers(2, 8))
    def test_all_rows_coincide(self, seed, d, n, k):
        """``total <= 0`` in the seeding: the rest is drawn in one call."""
        data = np.tile(np.random.default_rng(seed).random((1, d)), (n, 1))
        assert_same_fit(data, min(k, n), seed, max_iter=5)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 3, 12])
    def test_long_member_runs(self, d, k):
        """Clusters of hundreds of rows: numpy's pairwise summation of a
        1-D run changes shape at 8 and at 128 elements."""
        model = assert_same_fit(rows(5, 3000, d, "unit"), k, seed=k)
        assert np.bincount(model.labels_).max() > 128

    def test_shared_sample_equals_separate_fits(self):
        """``fit`` accepts the prepared rows ``build_cluster_summary``
        shares between its three rounds."""
        from repro.ml.kmeans import DistanceRows
        data = rows(9, 300, 2, "unit")
        shared = DistanceRows(data)
        for k in (5, 17):
            assert same_bits(KMeans(k, seed=k).fit(shared).centers_,
                             LoopKMeans(k, seed=k).fit(data).centers_)


class TestDistanceParity:
    @settings(deadline=None)
    @given(seeds, dims, st.integers(1, 60), st.integers(1, 60),
           st.sampled_from(["unit", "wide", "grid"]))
    def test_pairwise_distances(self, seed, d, n, m, kind):
        a, b = rows(seed, n, d, kind), rows(seed + 1, m, d, kind)
        assert same_bits(pairwise_distances(a, b),
                         loop_pairwise_distances(a, b))
        assert same_bits(pairwise_distances(a, a),
                         loop_pairwise_distances(a, a))


class TestJenksParity:
    @settings(deadline=None)
    @given(seeds, st.integers(1, 120), st.integers(1, 9),
           st.sampled_from(["normal", "rounded", "counts"]))
    def test_random_values(self, seed, n, n_classes, kind):
        rng = np.random.default_rng(seed)
        values = {"normal": lambda: rng.normal(size=n),
                  "rounded": lambda: np.round(rng.random(n), 1),
                  "counts": lambda: rng.integers(0, 12, n).astype(float)}[kind]()
        assert same_bits(jenks_breaks(values, n_classes),
                         loop_jenks_breaks(values, n_classes))

    @settings(deadline=None)
    @given(st.floats(-1e6, 1e6), st.integers(1, 50), st.integers(1, 9))
    def test_constant_input(self, value, n, n_classes):
        values = np.full(n, value)
        assert same_bits(jenks_breaks(values, n_classes),
                         loop_jenks_breaks(values, n_classes))

    def test_sample_of_the_preprocessing_size(self):
        """``JenksBreaks`` caps its input at 1 000 values; the scalar loop
        takes seconds there, so it is checked once."""
        values = np.random.default_rng(3).normal(size=1000)
        assert same_bits(jenks_breaks(values, 8), loop_jenks_breaks(values, 8))


# ----------------------------------------------------------------------
# End to end: the whole preparation, kernels against loops.
# ----------------------------------------------------------------------
def _prepared(table):
    """Every array the preparation of ``table`` produces, by name."""
    config = LTEConfig(budget=20, ku=25, kq=30, n_tasks=6,
                       preprocessing_mode="both")
    lte = LTE(config).fit_offline(table, train=False)
    arrays = {}
    for subspace, state in lte.states.items():
        key = "/".join(subspace.names)
        summary = state.summary
        for name in ("centers_u", "centers_s", "centers_q", "proximity_u",
                     "proximity_s"):
            arrays[key, name] = getattr(summary, name)
        for j, (gmm, jkc) in enumerate(state.preprocessor._encoders):
            arrays[key, "jenks", j] = jkc.model.bounds_
            arrays[key, "gmm", j] = gmm.model.means_
        arrays[key, "encoded"] = state.encode_scaled(state.data[:200])
        arrays[key, "baseline"] = state.quantization_baseline
    return arrays


@pytest.mark.parametrize("make_table", [make_car, make_sdss])
def test_preparation_is_bit_identical(make_table, monkeypatch):
    """car has an odd attribute count (a 1-D trailing subspace), SDSS is
    what the benchmark fits."""
    table = make_table(n_rows=2000, seed=17)
    new = _prepared(table)
    monkeypatch.setattr("repro.core.meta_task.KMeans", LoopKMeans)
    monkeypatch.setattr("repro.core.meta_task.pairwise_distances",
                        loop_pairwise_distances)
    monkeypatch.setattr("repro.ml.kmeans.pairwise_distances",
                        loop_pairwise_distances)
    monkeypatch.setattr("repro.ml.jenks.jenks_breaks", loop_jenks_breaks)
    old = _prepared(table)
    assert new.keys() == old.keys()
    assert any(name == "centers_u" and array.shape[1] == 1
               for (_, name, *_), array in new.items()) \
        == (make_table is make_car)
    for key in new:
        assert same_bits(new[key], old[key]), key
