"""k-means' compiled loops against their numpy kernels, on raw bytes.

``_kmeans.c`` must return the numpy kernels' bits (``_assign``'s numpy
branch, ``_numpy_closer``, ``_numpy_seed_step``) on every input: ties
under one root, clamped and NaN distances, coinciding rows, any width.
A host where the loops cannot be built, or where the library fails the
load-time check, runs the numpy kernels and counts each fit.
"""

import numpy as np
import pytest

from repro import native
from repro.ml import KMeans, kmeans
from repro.obs import default_registry

needs_compiler = pytest.mark.skipif(native.compiler() is None,
                                    reason="no C compiler on this host")


@pytest.fixture
def compiled():
    functions = kmeans._kmeans_kernel()
    assert functions is not None, "a C compiler is found, yet the loops failed"
    return functions


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def assigned(kernel, squared):
    """``_assign`` over the given squared distances: with zero norms the
    kernel's squared distance is exactly ``-work``."""
    squared = np.asarray(squared, dtype=np.float64)
    n, k = squared.shape
    return kmeans._assign(kernel, np.ascontiguousarray(-squared),
                          np.zeros(n), np.zeros(k))


def both_assign(compiled, squared):
    (labels, roots), (want_labels, want_roots) = (
        assigned(compiled, squared), assigned(None, squared))
    assert same_bits(labels, want_labels)
    assert same_bits(roots, want_roots)
    return labels, roots


@needs_compiler
def test_a_value_sharing_the_least_root_wins_from_before_it(compiled):
    rng = np.random.default_rng(0)
    shared = []
    for v in rng.random(400) * 10.0 ** rng.integers(-300, 300, size=400):
        after = np.nextafter(v, np.inf)
        if np.sqrt(after) == np.sqrt(v):
            shared.append((v, after))
    assert len(shared) > 50
    for v, after in shared:
        row = [v * 4, after, v * 3, v, after, v * 2]
        labels, roots = both_assign(compiled, [row])
        assert labels[0] == 1 and roots[0] == np.sqrt(v)
    # A distinct root just above the least one stays unpicked.
    v = shared[0][0]
    above = v
    while np.sqrt(above) == np.sqrt(v):
        above = np.nextafter(above, np.inf)
    labels, _ = both_assign(compiled, [[above, v]])
    assert labels[0] == 1


@needs_compiler
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 8, 9, 200])
def test_negative_squared_distances_clamp_to_zero(compiled, k):
    rng = np.random.default_rng(k)
    squared = rng.normal(size=(40, k)) * 1e-12
    squared[::3] = -np.abs(squared[::3])
    labels, roots = both_assign(compiled, squared)
    negative = (squared < 0).any(axis=1)
    assert (roots[negative] == 0.0).all()
    assert not np.signbit(roots).any()
    first = np.argmax(squared <= 0, axis=1)
    assert np.array_equal(labels[negative], first[negative])


@needs_compiler
@pytest.mark.parametrize("k", [1, 3, 4, 6, 11])
def test_nan_and_infinite_distances_follow_argmin(compiled, k):
    squared = np.random.default_rng(k).random((12, k))
    squared[1, -1] = np.nan
    squared[2, :] = np.inf
    squared[3, 0] = np.inf
    squared[4, k // 2:] = np.nan
    with np.errstate(invalid="ignore"):
        labels, roots = assigned(compiled, squared)
        want_labels, want_roots = assigned(None, squared)
    assert same_bits(labels, want_labels)
    assert np.array_equal(np.isnan(roots), np.isnan(want_roots))
    finite = ~np.isnan(want_roots)
    assert same_bits(roots[finite], want_roots[finite])


@needs_compiler
def test_an_integer_grid_assigns_its_exact_ties_alike(compiled):
    grid = kmeans.DistanceRows(
        np.random.default_rng(1).integers(0, 3, size=(500, 2)) * 1.0)
    for k in (2, 5, 9, 40):
        centers = grid.data[:k]
        work, center_sq = grid._products(centers)
        got = kmeans._assign(compiled, work, grid.sq_norms, center_sq)
        want = kmeans._assign(None, work, grid.sq_norms, center_sq)
        assert all(same_bits(a, b) for a, b in zip(got, want))
        dist = kmeans.pairwise_distances(grid.data, centers)
        assert same_bits(got[0], dist.argmin(axis=1))
        assert same_bits(got[1], dist.min(axis=1))


def seeding_run(kernel, data, picks):
    """The closest-distance vector and drawn indices of a seeding that
    starts at row 0 and draws with each uniform of ``picks``."""
    seeding = kmeans._Seeding(data, kernel)
    seeding.add(0)
    drawn = [seeding.draw(seeding.closest.sum(), u) for u in picks]
    return seeding.closest, np.array(drawn)


@needs_compiler
@pytest.mark.parametrize("d", list(range(1, 11)) + [16, 127, 128, 129, 300])
def test_the_seeding_step_sums_rows_as_numpy_does(compiled, d):
    """numpy's pairwise sum unrolls from 8 elements and splits above 128."""
    rng = np.random.default_rng(d)
    data = rng.normal(size=(60, d)) * 10.0 ** rng.integers(-4, 5, size=d)
    picks = rng.random(12)
    closest, drawn = seeding_run(compiled, data, picks)
    want_closest, want_drawn = seeding_run(None, data, picks)
    assert same_bits(closest, want_closest)
    assert same_bits(drawn, want_drawn)
    assert same_bits(want_closest, np.min(
        [np.sum((data - data[i]) ** 2, axis=1)
         for i in [0] + list(want_drawn)], axis=0))


@needs_compiler
@pytest.mark.parametrize("j", [0, 1, 17, 58, 59])
def test_a_uniform_on_a_cdf_value_draws_past_it(compiled, j):
    """``searchsorted(side="right")``: a uniform equal to ``cdf[j]``
    draws the first row after ``j`` (row 0, the first centre, has
    probability 0, so ``cdf[0] == 0.0``)."""
    data = np.random.default_rng(j).normal(size=(60, 2))
    drawn = []
    for kernel in (compiled, None):
        seeding = kmeans._Seeding(data, kernel)
        seeding.add(0)
        total = seeding.closest.sum()
        cdf = np.cumsum(seeding.closest / total)
        cdf /= cdf[-1]
        drawn.append(seeding.draw(total, cdf[j]))
    assert drawn[0] == drawn[1] == np.searchsorted(cdf, cdf[j], "right")
    assert drawn[0] > j


def fitted(data, k, **params):
    model = KMeans(k, seed=np.random.default_rng(5), **params).fit(data)
    return model.centers_, model.labels_, model.inertia_, model.n_iter_, \
        model.seed.bit_generator.state


def assert_same_fit(got, want):
    for a, b in zip(got[:2], want[:2]):
        assert same_bits(a, b)
    assert got[2:] == want[2:]


@needs_compiler
@pytest.mark.parametrize("case", ["coinciding rows", "empty clusters",
                                  "unit rows", "wide rows"])
def test_a_fit_on_the_compiled_loops_equals_one_on_numpy(
        compiled, monkeypatch, case):
    rng = np.random.default_rng(3)
    data, k = {
        # total <= 0 in the seeding: the rest is drawn in one call.
        "coinciding rows": (np.tile(rng.random((1, 3)), (20, 1)), 6),
        # Fewer distinct rows than clusters: the re-seed runs each time.
        "empty clusters": (rng.random((3, 2))[rng.integers(3, size=30)], 7),
        "unit rows": (rng.random((400, 2)), 25),
        "wide rows": (rng.normal(scale=1e3, size=(200, 5)), 12),
    }[case]
    got = fitted(data, k, max_iter=12)
    monkeypatch.setattr(kmeans, "_kmeans_kernel", lambda: None)
    assert_same_fit(got, fitted(data, k, max_iter=12))


def counted_numpy_fits():
    return default_registry().value("ml.kmeans.numpy_fits")


@pytest.mark.parametrize("host", ["no compiler", "refused library"])
def test_without_the_loops_the_numpy_kernels_run_and_count(
        host, monkeypatch):
    data = np.random.default_rng(4).random((300, 2))
    monkeypatch.setattr(kmeans, "_kmeans_kernel", lambda: None)
    reference = fitted(data, 9)
    monkeypatch.undo()
    monkeypatch.setattr(kmeans._KMEANS, "_loaded", [])
    if host == "no compiler":
        monkeypatch.setattr(native, "compiler", lambda: None)
    else:
        monkeypatch.setattr(kmeans._KMEANS, "_agrees", lambda functions: False)
    before = counted_numpy_fits()
    got = fitted(data, 9)
    assert counted_numpy_fits() - before == 1
    assert kmeans._KMEANS._loaded == [None]
    assert_same_fit(got, reference)


@needs_compiler
def test_the_compiled_loops_count_no_numpy_fit(compiled):
    before = counted_numpy_fits()
    KMeans(4, seed=0).fit(np.random.default_rng(0).random((50, 2)))
    assert counted_numpy_fits() == before
