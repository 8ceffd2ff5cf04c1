"""Tests for k-means clustering and pairwise distances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import KMeans, pairwise_distances


def three_blobs(n_per=50, seed=0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    return np.vstack([rng.normal(c, 0.5, size=(n_per, 2)) for c in centers])


class TestPairwiseDistances:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=(4, 3))
        dist = pairwise_distances(a, b)
        for i in range(5):
            for j in range(4):
                assert np.isclose(dist[i, j],
                                  np.linalg.norm(a[i] - b[j]))

    def test_self_diagonal_zero(self):
        a = np.random.default_rng(2).normal(size=(6, 2))
        dist = pairwise_distances(a, a)
        # The expanded-square form loses ~1e-8 to cancellation.
        assert np.allclose(np.diag(dist), 0.0, atol=1e-6)

    def test_no_negative_sqrt_artifacts(self):
        # Near-identical points can make the squared form slightly negative.
        a = np.ones((3, 2)) * 1e8
        dist = pairwise_distances(a, a)
        assert np.isfinite(dist).all()
        assert (dist >= 0).all()


class TestKMeans:
    def test_recovers_separated_blobs(self):
        data = three_blobs()
        km = KMeans(3, seed=0).fit(data)
        # Each true blob center must be close to some learned center.
        for true in [[0, 0], [10, 0], [0, 10]]:
            dist = np.linalg.norm(km.centers_ - np.asarray(true), axis=1)
            assert dist.min() < 1.0

    def test_labels_are_nearest_center(self):
        data = three_blobs(seed=3)
        km = KMeans(3, seed=0).fit(data)
        expected = pairwise_distances(data, km.centers_).argmin(axis=1)
        assert np.array_equal(km.labels_, expected)

    def test_inertia_decreases_with_more_clusters(self):
        data = three_blobs(seed=5)
        i2 = KMeans(2, seed=0).fit(data).inertia_
        i6 = KMeans(6, seed=0).fit(data).inertia_
        assert i6 < i2

    def test_k_equals_one(self):
        data = three_blobs(seed=6)
        km = KMeans(1, seed=0).fit(data)
        assert np.allclose(km.centers_[0], data.mean(axis=0), atol=1e-6)

    def test_k_equals_n(self):
        data = np.arange(8, dtype=float).reshape(4, 2)
        km = KMeans(4, seed=0).fit(data)
        assert km.inertia_ < 1e-12

    def test_duplicate_points_dont_crash(self):
        data = np.tile([[1.0, 2.0]], (20, 1))
        km = KMeans(3, seed=0).fit(data)
        assert km.centers_.shape == (3, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            KMeans(0)
        with pytest.raises(ValueError):
            KMeans(5).fit(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            KMeans(2).fit(np.zeros(5))

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("k", [1, 3])
    def test_non_finite_data_rejected_before_seeding(self, poison, k):
        """NaN used to be stopped only by ``rng.choice`` validating its
        probabilities (so not at k == 1, and never by design)."""
        data = three_blobs(seed=8)
        data[4, 1] = poison
        model = KMeans(k, seed=np.random.default_rng(0))
        with pytest.raises(ValueError, match="non-finite"):
            model.fit(data)
        assert model.centers_ is None
        untouched = np.random.default_rng(0).bit_generator.state
        assert model.seed.bit_generator.state == untouched

    def test_deterministic_given_seed(self):
        data = three_blobs(seed=7)
        a = KMeans(3, seed=9).fit(data).centers_
        b = KMeans(3, seed=9).fit(data).centers_
        assert np.array_equal(a, b)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 5), st.integers(30, 60), st.integers(0, 100))
def test_property_centers_are_member_means(k, n, seed):
    """Lloyd fixed point: every non-empty cluster center == member mean."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, 2))
    km = KMeans(k, seed=seed, max_iter=300).fit(data)
    for j in range(k):
        members = data[km.labels_ == j]
        if len(members):
            assert np.allclose(km.centers_[j], members.mean(axis=0),
                               atol=1e-6)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 6), st.integers(0, 50))
def test_property_every_point_gets_valid_label(k, seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(40, 3))
    km = KMeans(k, seed=seed).fit(data)
    assert km.labels_.shape == (40,)
    assert km.labels_.min() >= 0 and km.labels_.max() < k
