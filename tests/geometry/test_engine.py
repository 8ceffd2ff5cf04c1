"""Packed halfspace engine: equal masks with the per-hull path.

The engine's contract is on masks: for any hull zoo — full-dimensional,
1-D intervals, coincident points, collinear 2-D, affine-rank-deficient
high-dim, Qhull-joggle and bounding-box fallbacks — the packed masks
equal looping ``Hull.contains``.  Facet *values* are not promised: BLAS
picks its kernel by operand shape, and the same product over a row
subset or a facet slab differs in the last place (pinned below, with
the tolerance that absorbs it).  The suite fuzzes that contract
property-style, checks the relative-tolerance fix and the empty-query
guarantees, and closes with end-to-end basic/meta/meta_star parity
through a real LTE session.
"""

import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimizer import HullRegistry
from repro.geometry import (BoxRegion, Hull, HullPackCache, PackedHulls,
                            UnionRegion, union_masks)
from repro.geometry import convex_hull as convex_hull_module

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "serve"))
import _refine_oracle as refine_oracle  # noqa: E402

pytestmark = pytest.mark.geometry


# ----------------------------------------------------------------------
# Reference implementations: the pre-engine per-hull loops.
# ----------------------------------------------------------------------
def loop_membership(hulls, points):
    """Per-hull `Hull.contains` loop -> (n, H) matrix."""
    return np.column_stack([h.contains(points) for h in hulls])


def loop_union_contains(hulls, points):
    """The historical ``UnionRegion.contains`` short-circuit loop."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    mask = np.zeros(len(points), dtype=bool)
    for hull in hulls:
        remaining = ~mask
        if not remaining.any():
            break
        mask[remaining] = hull.contains(points[remaining])
    return mask


def loop_refine(optimizer, points, predictions):
    """The historical per-region ``FewShotOptimizer.refine``."""
    predictions = np.asarray(predictions).astype(np.int64).copy()
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if optimizer is None or (optimizer.outer_region is None
                             and optimizer.inner_region is None):
        return predictions
    if optimizer.outer_region is not None:
        outside = ~loop_union_contains(optimizer.outer_region.hulls, points)
        predictions[outside & (predictions == 1)] = 0
    if optimizer.inner_region is not None:
        inside = loop_union_contains(optimizer.inner_region.hulls, points)
        predictions[inside & (predictions == 0)] = 1
    return predictions


# ----------------------------------------------------------------------
# Hull zoo: every degenerate regime random sampling produces.
# ----------------------------------------------------------------------
HULL_KINDS = ("full", "interval", "coincident", "collinear",
              "affine_rank_deficient", "few_points_high_dim",
              "large_magnitude")


def make_hull(kind, rng, dim=3):
    if kind == "interval":
        return Hull(rng.normal(size=(4, 1)) * rng.choice([1.0, 50.0]))
    if kind == "coincident":
        return Hull(np.tile(rng.normal(size=(1, dim)), (3, 1)))
    if kind == "collinear":
        direction = rng.normal(size=2)
        t = rng.normal(size=(5, 1))
        return Hull(rng.normal(size=2) + t * direction)
    if kind == "affine_rank_deficient":
        # rank-2 point set embedded in dim-D space.
        basis = rng.normal(size=(2, dim))
        return Hull(rng.normal(size=dim) + rng.normal(size=(7, 2)) @ basis)
    if kind == "few_points_high_dim":
        return Hull(rng.normal(size=(dim + 1, dim + 4)))
    if kind == "large_magnitude":
        return Hull(rng.normal(size=(8, dim)) * 1e7 + 1e8)
    return Hull(rng.normal(size=(4 * dim, dim)))


def queries_for(hull, rng, n=60):
    """Adversarial query mix: far, near, on-vertex, interpolated."""
    lo, hi = hull.bounding_box
    width = np.maximum(hi - lo, 1e-3)
    inside = hull.points[rng.integers(len(hull.points), size=n // 3)]
    weights = rng.dirichlet(np.ones(len(hull.points)), size=n // 3)
    mixed = weights @ hull.points
    near = lo + rng.uniform(-0.5, 1.5, size=(n // 3, hull.dim)) * width
    return np.vstack([inside, mixed, near])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(HULL_KINDS))
def test_property_single_hull_pack_parity(seed, kind):
    """PackedHulls([h]) == h.contains, mask for mask, across the zoo."""
    rng = np.random.default_rng(seed)
    hull = make_hull(kind, rng)
    queries = queries_for(hull, rng)
    pack = PackedHulls([hull])
    assert np.array_equal(pack.membership(queries)[:, 0],
                          hull.contains(queries))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_property_mixed_zoo_pack_parity(seed):
    """A pack over every same-dim degenerate kind matches the loop."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    hulls = [
        make_hull("full", rng, dim),
        make_hull("coincident", rng, dim),
        make_hull("affine_rank_deficient", rng, dim),
        Hull(rng.normal(size=(3 * dim, dim)) * 1e6),
        make_hull("full", rng, dim),
    ]
    queries = np.vstack([queries_for(h, rng, n=30) for h in hulls])
    pack = PackedHulls(hulls)
    assert np.array_equal(pack.membership(queries),
                          loop_membership(hulls, queries))
    assert np.array_equal(pack.contains_any(queries),
                          loop_union_contains(hulls, queries))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_property_union_region_parity(seed):
    """UnionRegion.contains (packed) == historical short-circuit loop."""
    rng = np.random.default_rng(seed)
    hulls = [Hull(rng.normal(size=(8, 2)) + rng.normal(size=2) * 2)
             for _ in range(int(rng.integers(1, 7)))]
    region = UnionRegion(hulls)
    queries = rng.normal(size=(200, 2)) * 2
    assert np.array_equal(region.contains(queries),
                          loop_union_contains(hulls, queries))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_property_refine_batch_parity(seed):
    """Engine-backed refine/refine_batch == historical per-hull refine."""
    rng = np.random.default_rng(seed)

    class _FakeOptimizer:
        """Bare regions stub (summary-free): all the decision reads."""

        def __init__(self, outer, inner):
            self.outer_region = outer
            self.inner_region = inner

    def random_region(hull_pool):
        k = int(rng.integers(1, 4))
        picks = [hull_pool[int(rng.integers(len(hull_pool)))]
                 for _ in range(k)]
        return UnionRegion(picks)

    # A shared pool models fit_batch hull sharing across sessions.
    pool = [Hull(rng.normal(size=(7, 2)) + rng.normal(size=2))
            for _ in range(6)]
    optimizers = []
    for _ in range(4):
        outer = random_region(pool) if rng.random() > 0.2 else None
        inner = random_region(pool) if rng.random() > 0.2 else None
        optimizers.append(_FakeOptimizer(outer, inner))
    optimizers.append(None)
    points = rng.normal(size=(120, 2)) * 1.5
    predictions = [rng.integers(0, 2, size=len(points))
                   for _ in optimizers]
    batched = refine_oracle.refine_batch(optimizers, points, predictions)
    for optimizer, raw, out in zip(optimizers, predictions, batched):
        assert np.array_equal(out, loop_refine(optimizer, points, raw))
        if optimizer is not None:
            assert np.array_equal(
                refine_oracle.refine(optimizer, points, raw), out)


def test_masks_do_not_depend_on_the_blas_kernel(record_property):
    """The same 1 024 points through 1-, 7-, 64- and 1 024-row calls,
    per hull and dense, give equal masks although the facet values of
    two call shapes may differ in the last place: tolerances are
    >= 1e-9, seven orders above that disagreement.  The points sit where
    a last place could matter: on vertices, facet midpoints and
    bounding-box corners."""
    rng = np.random.default_rng(21)
    hulls = [Hull(rng.normal(size=(int(rng.integers(4, 14)), 2))
                  + rng.normal(size=2)) for _ in range(12)]
    pack = PackedHulls(hulls)
    parts = []
    for hull in hulls:
        vertices = hull.vertices     # counter-clockwise in 2-D
        lo, hi = hull.bounding_box
        parts += [vertices, (vertices + np.roll(vertices, -1, axis=0)) / 2,
                  np.array([[lo[0], lo[1]], [lo[0], hi[1]],
                            [hi[0], lo[1]], [hi[0], hi[1]]])]
    points = np.vstack(parts)
    points = np.vstack([points,
                        rng.normal(size=(1024 - len(points), 2)) * 2])

    def dense(block):
        return np.logical_and.reduceat(
            pack.facet_values(block) <= pack.tol, pack.starts[:-1], axis=1)

    reference = loop_membership(hulls, points)
    assert reference.any(axis=0).all() and not reference.all()
    differing = 0
    for size in (1, 7, 64, 1024):
        blocks = [points[start:start + size]
                  for start in range(0, len(points), size)]
        for kernel in (lambda block: loop_membership(hulls, block), dense,
                       pack.membership):
            assert np.array_equal(np.vstack([kernel(b) for b in blocks]),
                                  reference)
        differing += int((np.vstack([pack.facet_values(b) for b in blocks])
                          != pack.facet_values(points)).sum())
    # Informational: how many facet values moved with the call shape.
    record_property("facet_values_differing_with_call_shape", differing)


# ----------------------------------------------------------------------
# Qhull failure fallbacks (joggle, bounding box) stay parity-exact.
# ----------------------------------------------------------------------
class _FlakyQhull:
    """The ``_qhull`` seam, rejecting its first ``failures`` sets the
    way it reports a ``QhullError``: by returning ``None``."""

    def __init__(self, real, failures):
        self.real = real
        self.failures = failures
        self.options = []

    def __call__(self, points, options=None):
        self.options.append(options)
        if len(self.options) <= self.failures:
            return None
        return self.real(points, options)


@pytest.mark.parametrize("failures", [1, 2])
def test_qhull_fallback_pack_parity(monkeypatch, failures):
    """Joggle retry (1 failure) and bbox fallback (2) both pack exactly.
    Only hulls of three or more dimensions reach Qhull."""
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(12, 3))
    flaky = _FlakyQhull(convex_hull_module._qhull, failures)
    monkeypatch.setattr(convex_hull_module, "_qhull", flaky)
    hull = Hull(pts)
    assert flaky.options == [None, "QJ"]
    queries = np.vstack([pts, rng.normal(size=(50, 3)) * 2])
    assert hull.contains(pts).all()
    assert np.array_equal(PackedHulls([hull]).membership(queries)[:, 0],
                          hull.contains(queries))
    if failures == 2:   # bbox fallback: exactly the 2d bbox rows, once
        assert hull.halfspaces().n_facets == 2 * hull.dim


# ----------------------------------------------------------------------
# Satellite: relative facet tolerance on large-magnitude data.
# ----------------------------------------------------------------------
class TestRelativeTolerance:
    def test_large_offset_square_boundary(self):
        """Boundary points of a far-from-origin hull stay inside.

        With the old absolute ``eps=1e-9`` facet test, rounding noise of
        order ``|x| * 1e-16`` (~1e-8 at offset 1e8) misclassified
        boundary points; the offset-relative tolerance absorbs it.
        """
        square = np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]) + 1e8
        hull = Hull(square)
        edge_midpoints = (square + np.roll(square, -1, axis=0)) / 2.0
        assert hull.contains(square).all()
        assert hull.contains(edge_midpoints).all()
        assert np.array_equal(
            PackedHulls([hull]).membership(edge_midpoints)[:, 0],
            np.ones(len(edge_midpoints), dtype=bool))
        # Relative, not sloppy: the tolerance band at offset 1e8 is
        # ~0.1 wide (1e-9 relative); proportionally-outside points
        # stay outside.
        assert not hull.contains_point([1e8 + 0.5, 1e8 + 2.0])

    def test_degenerate_span_band_width_preserved(self):
        """Bbox rows must not pinch the 1e-6-scale on-span band.

        A constant attribute makes the hull degenerate in that
        direction; points within the historical ``1e-6 * scale``
        residual band of the span stay members (the bbox rows carry
        the span band's fixed tolerance on the degenerate path).
        """
        hull = Hull(np.array([[0.0, 5], [1, 5], [2, 5], [0.5, 5]]))
        assert hull.contains_point([1.0, 5.0 + 1e-7])
        assert not hull.contains_point([1.0, 5.0 + 1e-4])
        coincident = Hull(np.zeros((3, 3)))
        assert coincident.contains_point([0.9e-6, 0.9e-6, 0.0])
        assert not coincident.contains_point([2e-6, 0.0, 0.0])
        # The packed gate honours the widened band too.
        pack = PackedHulls([hull, Hull(np.ones((2, 2)))])
        queries = np.array([[1.0, 5.0 + 1e-7], [1.0, 5.0 + 1e-4]])
        assert np.array_equal(pack.membership(queries),
                              loop_membership(pack.hulls, queries))

    def test_span_band_is_per_direction(self):
        """The on-span band is L-inf over the complement directions.

        An L2 residual ball is not polyhedral, so the lowering uses a
        per-direction band: a corner point whose every residual
        component is within 1e-6*scale is a member even though its L2
        residual exceeds it (documented semantics, pinned here).
        """
        coincident = Hull(np.zeros((4, 3)))
        assert coincident.contains_point([7e-7, 7e-7, 7e-7])
        assert not coincident.contains_point([1.1e-6, 0.0, 0.0])

    def test_large_offset_interval(self):
        hull = Hull(np.array([[1e9], [2e9]]))
        assert hull.contains_point([1e9])
        assert hull.contains_point([2e9])
        assert hull.contains_point([1.5e9])
        assert not hull.contains_point([2.1e9])

    def test_packed_tolerance_matches_hull(self):
        """Pack tolerances are the hull's own resolved tolerances."""
        rng = np.random.default_rng(0)
        hulls = [Hull(rng.normal(size=(10, 2)) * s) for s in (1.0, 1e6)]
        pack = PackedHulls(hulls)
        resolved = np.concatenate([h.halfspaces().tol() for h in hulls])
        assert np.array_equal(pack.tol, resolved)
        # The dense stacked evaluation agrees with the gated kernel.
        queries = rng.normal(size=(50, 2)) * 1e6
        dense = (pack.facet_values(queries) <= pack.tol)
        member = np.logical_and.reduceat(dense, pack.starts[:-1], axis=1)
        assert np.array_equal(member, pack.membership(queries))


# ----------------------------------------------------------------------
# Satellite: empty (0, d) queries return empty masks everywhere.
# ----------------------------------------------------------------------
class TestEmptyQueries:
    def _check(self, predicate, dim):
        for empty in ([], np.zeros((0, dim)), np.zeros(0)):
            mask = predicate(empty)
            assert mask.shape == (0,)
            assert mask.dtype in (np.bool_, np.int64)

    def test_hull(self):
        hull = Hull(np.array([[0.0, 0], [1, 0], [0, 1], [1, 1]]))
        self._check(hull.contains, 2)

    def test_zero_width_nonempty_still_raises(self):
        """(n, 0) with n > 0 is a width mismatch, not an empty query."""
        hull = Hull(np.array([[0.0, 0], [1, 0], [0, 1]]))
        with pytest.raises(ValueError):
            hull.contains(np.zeros((5, 0)))

    def test_union_region(self):
        region = UnionRegion([np.array([[0.0, 0], [1, 0], [0, 1]])])
        self._check(region.contains, 2)
        self._check(region.label, 2)

    def test_box_region(self):
        self._check(BoxRegion([0, 0], [1, 1]).contains, 2)

    def test_conjunctive_ground_truth(self):
        from repro.data.subspaces import Subspace
        from repro.explore import ConjunctiveOracle
        oracle = ConjunctiveOracle({
            Subspace(["a", "b"], [0, 1]):
                UnionRegion([np.array([[0.0, 0], [1, 0], [0, 1]])]),
            Subspace(["c"], [2]): BoxRegion([0.0], [1.0])})
        truth = oracle.ground_truth(np.zeros((0, 3)))
        assert truth.shape == (0,) and truth.dtype == np.int64

    def test_packed_engine(self):
        hulls = [Hull(np.array([[0.0, 0], [1, 0], [0, 1]]))]
        pack = PackedHulls(hulls)
        assert pack.membership(np.zeros((0, 2))).shape == (0, 1)
        assert pack.contains_any([]).shape == (0,)
        masks = union_masks([hulls, []], np.zeros((0, 2)))
        assert all(m.shape == (0,) for m in masks)

    def test_scaled_region_empty(self):
        from repro.geometry.regions import ScaledRegion
        from repro.ml.scaler import MinMaxScaler
        scaler = MinMaxScaler().fit(np.array([[0.0, 0], [2, 2]]))
        region = ScaledRegion(
            UnionRegion([np.array([[0.0, 0], [1, 0], [0, 1]])]), scaler)
        self._check(region.contains, 2)


# ----------------------------------------------------------------------
# Conjunctive ground truth parity.
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_property_conjunctive_parity(seed):
    """``ConjunctiveOracle`` over two hull unions and a box == the
    per-part projection loop, in memory and over a zone-map-pruned
    chunk store (the box rides the bounds of its own kind)."""
    from repro.data import Table
    from repro.data.subspaces import Subspace
    from repro.explore import ConjunctiveOracle

    rng = np.random.default_rng(seed)
    union_a = UnionRegion([Hull(rng.normal(size=(6, 2)))
                           for _ in range(2)])
    union_b = UnionRegion([Hull(rng.normal(size=(5, 1)))])
    box = BoxRegion([-1.0], [1.0])
    oracle = ConjunctiveOracle({Subspace(["a", "c"], [0, 2]): union_a,
                                Subspace(["b"], [1]): union_b,
                                Subspace(["d"], [3]): box})
    rows = rng.normal(size=(150, 4)) * 1.5
    expected = union_a.contains(rows[:, [0, 2]]) \
        & union_b.contains(rows[:, [1]]) \
        & box.contains(rows[:, [3]])
    assert np.array_equal(oracle.ground_truth(rows), expected)
    store = Table("parity", list("abcd"), rows).to_store(
        chunk_rows=int(rng.integers(1, 40)))
    assert np.array_equal(oracle.ground_truth_store(store), expected)


# ----------------------------------------------------------------------
# Pack caching.
# ----------------------------------------------------------------------
def lookups(cache):
    """``(hits, misses)`` of a pack cache, read from its registry."""
    return (cache.metrics.value("geometry.pack_cache.hits"),
            cache.metrics.value("geometry.pack_cache.misses"))


class TestPackReuse:
    def test_cache_hit_on_same_hull_identities(self):
        rng = np.random.default_rng(1)
        hulls = [Hull(rng.normal(size=(6, 2))) for _ in range(3)]
        cache = HullPackCache(capacity=4)
        pack1 = cache.get(hulls)
        pack2 = cache.get(hulls)
        assert pack1 is pack2
        assert lookups(cache) == (1, 1)
        # A different identity set compiles its own pack.
        other = [Hull(h.points.copy()) for h in hulls]
        assert cache.get(other) is not pack1

    def test_cache_eviction(self):
        rng = np.random.default_rng(2)
        cache = HullPackCache(capacity=2)
        packs = [cache.get([Hull(rng.normal(size=(5, 2)))])
                 for _ in range(4)]
        assert len(cache) == 2
        assert packs[0] is not packs[1]

    def test_evict_containing(self):
        rng = np.random.default_rng(9)
        shared = Hull(rng.normal(size=(6, 2)))
        own = Hull(rng.normal(size=(6, 2)))
        other = Hull(rng.normal(size=(6, 2)))
        cache = HullPackCache()
        cache.get([shared, own])
        cache.get([other])
        assert cache.evict_containing([own]) == 1
        assert len(cache) == 1
        assert cache.evict_containing([]) == 0

    def test_union_masks_uses_cache(self):
        rng = np.random.default_rng(3)
        hulls = [Hull(rng.normal(size=(6, 2))) for _ in range(3)]
        cache = HullPackCache()
        points = rng.normal(size=(40, 2))
        first = union_masks([hulls[:2], hulls[1:]], points,
                            pack_cache=cache)
        second = union_masks([hulls[:2], hulls[1:]], points,
                             pack_cache=cache)
        assert lookups(cache) == (1, 1)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_region_compiled_is_cached(self):
        rng = np.random.default_rng(4)
        region = UnionRegion([Hull(rng.normal(size=(6, 2)))])
        assert region.compiled() is region.compiled()


# ----------------------------------------------------------------------
# Serialized packed form: restores never re-run SVD / Qhull.
# ----------------------------------------------------------------------
class TestPackedSerialization:
    def _zoo_registry(self):
        rng = np.random.default_rng(7)
        registry = HullRegistry()
        for kind in ("full", "coincident", "collinear",
                     "affine_rank_deficient"):
            registry.add(make_hull(kind, rng, dim=2)
                         if kind != "collinear" else make_hull(kind, rng))
        registry.add(Hull(rng.normal(size=(5, 1))))
        return registry, rng

    def test_roundtrip_bit_identical(self):
        registry, rng = self._zoo_registry()
        restored = HullRegistry.restore(registry.state())
        for original, copy in zip(registry.hulls, restored.hulls):
            queries = queries_for(original, rng, n=45)
            assert np.array_equal(original.contains(queries),
                                  copy.contains(queries))
            system_a, system_b = original.halfspaces(), copy.halfspaces()
            assert np.array_equal(system_a.A, system_b.A)
            assert np.array_equal(system_a.b, system_b.b)

    def test_restore_never_recompiles(self, monkeypatch):
        """No hull builder (the 2-D chain, Qhull) and no SVD run when
        restoring the packed form."""
        registry, _ = self._zoo_registry()
        registry.add(Hull(np.random.default_rng(9).normal(size=(12, 3))))
        state = registry.state()

        def boom(*args, **kwargs):
            raise AssertionError("geometry was recompiled on restore")

        monkeypatch.setattr(convex_hull_module, "_facets_2d", boom)
        monkeypatch.setattr(convex_hull_module, "_qhull", boom)
        monkeypatch.setattr(np.linalg, "svd", boom)
        restored = HullRegistry.restore(state)
        assert len(restored.hulls) == len(registry.hulls)
        for hull in restored.hulls:   # evaluation works, sans recompiles
            assert hull.contains(hull.points).all()

    def test_points_only_state_is_refused(self, monkeypatch):
        """Pre-engine checkpoints (bare point arrays) used to be rebuilt
        through Qhull; they now fail naming the facet arrays they lack,
        and no hull is constructed on the way."""
        points = np.random.default_rng(8).normal(size=(6, 2))
        full = HullRegistry([Hull(points)]).state()[0]
        partial = {key: value for key, value in full.items()
                   if key != "tol_fixed"}

        def boom(*args, **kwargs):
            raise AssertionError("a refused restore built a hull")

        monkeypatch.setattr(convex_hull_module, "_facets_2d", boom)
        monkeypatch.setattr(convex_hull_module, "_qhull", boom)
        monkeypatch.setattr(np.linalg, "svd", boom)
        for entry in (points, {"points": points}):
            with pytest.raises(ValueError, match="entry 1 .* A, b, "
                                                 "tol_scale, tol_fixed:"):
                HullRegistry.restore([full, entry])
        with pytest.raises(ValueError, match="entry 0 .* tol_fixed:"):
            HullRegistry.restore([partial])


# ----------------------------------------------------------------------
# UIS generation and meta-task generation ride the packed path.
# ----------------------------------------------------------------------
class TestGenerationParity:
    def test_generate_batch_matches_sequential(self):
        from repro.core.uis import UISGenerator, UISMode
        rng = np.random.default_rng(11)
        centers = rng.uniform(size=(30, 2))
        proximity = np.linalg.norm(
            centers[:, None, :] - centers[None, :, :], axis=-1)
        mode = UISMode(alpha=3, psi=8)
        sequential = [UISGenerator(centers, proximity, mode, seed=4)
                      .generate() for _ in range(1)]
        gen_a = UISGenerator(centers, proximity, mode, seed=4)
        gen_b = UISGenerator(centers, proximity, mode, seed=4)
        batch = gen_a.generate_batch(5)
        singles = [gen_b.generate() for _ in range(5)]
        assert len(batch) == 5
        for (region_a, mask_a), (region_b, mask_b) in zip(batch, singles):
            assert np.array_equal(mask_a, mask_b)
            for hull_a, hull_b in zip(region_a.hulls, region_b.hulls):
                assert np.array_equal(hull_a.points, hull_b.points)
        del sequential

    def test_meta_task_generate_matches_sequential(self, task_generator):
        from repro.core.meta_task import MetaTaskGenerator
        kwargs = dict(ku=20, ks=8, kq=25, mode=task_generator.mode,
                      delta=3, seed=123)
        data = task_generator.data[:600]
        batched = MetaTaskGenerator(data, **kwargs).generate(4)
        single_gen = MetaTaskGenerator(data, **kwargs)
        singles = [single_gen.generate_task() for _ in range(4)]
        for task_a, task_b in zip(batched, singles):
            assert np.array_equal(task_a.support_x, task_b.support_x)
            assert np.array_equal(task_a.support_y, task_b.support_y)
            assert np.array_equal(task_a.query_y, task_b.query_y)
            assert np.array_equal(task_a.center_member_mask,
                                  task_b.center_member_mask)
            assert np.array_equal(task_a.feature_vector,
                                  task_b.feature_vector)


# ----------------------------------------------------------------------
# Query-synthesis predicate: packed DNF == box loop.
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_property_synthesized_predicate_parity(seed):
    from repro.explore.query_synthesis import SynthesizedQuery
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    boxes = []
    for _ in range(int(rng.integers(0, 4))):
        a = rng.normal(size=d)
        b = rng.normal(size=d)
        boxes.append((np.minimum(a, b), np.maximum(a, b)))
    query = SynthesizedQuery(["c{}".format(j) for j in range(d)],
                             boxes, fidelity=0.0)
    rows = rng.normal(size=(120, d))
    if boxes:   # plant exact-boundary rows
        rows[0] = boxes[0][0]
        rows[1] = boxes[0][1]
    expected = np.zeros(len(rows), dtype=np.int64)
    for lo, hi in boxes:
        expected |= ((rows >= lo) & (rows <= hi)).all(axis=1) \
            .astype(np.int64)
    assert np.array_equal(query.predicate(rows), expected)
    assert query.predicate(np.zeros((0, d))).shape == (0,)


def test_synthesized_predicate_nan_rows_excluded():
    """A row with a missing (NaN) attribute never matches the filter."""
    from repro.explore.query_synthesis import SynthesizedQuery
    query = SynthesizedQuery(["a", "b"], [(np.zeros(2), np.ones(2))],
                             fidelity=0.0)
    rows = np.array([[np.nan, 0.5], [0.5, 0.5], [2.0, 0.5]])
    assert list(query.predicate(rows)) == [0, 1, 0]


# ----------------------------------------------------------------------
# End-to-end: basic / meta / meta_star predictions equal the per-hull
# reference path through a real trained system.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def engine_lte():
    from repro.core import LTE, LTEConfig
    from repro.core.meta_training import MetaHyperParams
    from repro.data import make_car
    table = make_car(n_rows=1500, seed=19)
    lte = LTE(LTEConfig(budget=16, ku=20, kq=25, n_tasks=4,
                        meta=MetaHyperParams(epochs=1, local_steps=2,
                                             batch_size=3,
                                             pretrain_epochs=1),
                        basic_steps=10, online_steps=3))
    lte.fit_offline(table)
    return lte


@pytest.mark.parametrize("variant", ["basic", "meta", "meta_star"])
def test_end_to_end_session_parity(engine_lte, variant):
    """Session predictions == classifier output + per-hull-loop refine."""
    lte = engine_lte
    rng = np.random.default_rng(23)
    session = lte.start_session(variant=variant, seed=5)
    for subspace, tuples in session.initial_tuples().items():
        state = lte.states[subspace]
        scaled = state.to_scaled(tuples)
        labels = (scaled.sum(axis=1) < np.median(scaled.sum(axis=1))) \
            .astype(np.int64)
        labels[0] = 1   # ensure at least one positive anchor
        session.submit_labels(subspace, labels)
    rows = lte.table.sample_rows(400, seed=3)
    predictions = session.predict(rows)
    reference = np.ones(len(rows), dtype=np.int64)
    for subspace, subsession in session._subsessions.items():
        scaled = subsession.state.to_scaled(subspace.project(rows))
        raw = subsession.adapted.predict(
            subsession.state.encode_scaled(scaled))
        reference &= loop_refine(subsession.optimizer, scaled, raw)
    assert np.array_equal(predictions, reference)
    if variant == "meta_star":
        assert any(ss.optimizer is not None
                   for ss in session._subsessions.values())
    del rng
