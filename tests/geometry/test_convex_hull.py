"""Tests for convex hulls and containment."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.geometry import Hull, convex_hull_vertices_2d
from repro.geometry import convex_hull as convex_hull_module


UNIT_SQUARE = np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]])


class TestMonotoneChain:
    def test_square_vertices(self):
        pts = np.vstack([UNIT_SQUARE, [[0.5, 0.5], [0.2, 0.7]]])
        verts = convex_hull_vertices_2d(pts)
        assert len(verts) == 4
        assert {tuple(v) for v in verts} == {tuple(v) for v in UNIT_SQUARE}

    def test_collinear_input(self):
        pts = np.array([[0.0, 0], [1, 1], [2, 2], [3, 3]])
        verts = convex_hull_vertices_2d(pts)
        if len(verts) > 2:
            u = verts[1] - verts[0]
            v = verts[-1] - verts[0]
            assert np.isclose(u[0] * v[1] - u[1] * v[0], 0)

    def test_two_points(self):
        verts = convex_hull_vertices_2d(np.array([[0.0, 0], [1, 1]]))
        assert len(verts) == 2

    def test_many_copies_of_one_point(self):
        """Past the prefilter's threshold, an octagon of one corner."""
        verts = convex_hull_vertices_2d(np.tile([[2.0, 3.0]], (40, 1)))
        assert verts.tolist() == [[2.0, 3.0]]

    @pytest.mark.parametrize("kind", ["random", "duplicates", "collinear",
                                      "sliver"])
    def test_the_prefilter_drops_no_vertex(self, monkeypatch, kind):
        sets = [_point_family(kind, seed) for seed in range(200)]
        filtered = [convex_hull_vertices_2d(pts) for pts in sets]
        monkeypatch.setattr(convex_hull_module, "_PREFILTER_MIN_POINTS",
                            10 ** 9)
        for pts, verts in zip(sets, filtered):
            assert np.array_equal(convex_hull_vertices_2d(pts), verts)


class TestHullContainment:
    def test_square_inside_outside(self):
        hull = Hull(UNIT_SQUARE)
        queries = np.array([[0.5, 0.5], [0.0, 0.0], [1.5, 0.5], [-0.1, 0.5]])
        assert list(hull.contains(queries)) == [True, True, False, False]

    def test_contains_point_scalar_api(self):
        hull = Hull(UNIT_SQUARE)
        assert hull.contains_point([0.3, 0.3])
        assert not hull.contains_point([2.0, 2.0])

    def test_1d_interval(self):
        hull = Hull(np.array([[1.0], [4.0], [2.0]]))
        got = hull.contains(np.array([[0.5], [1.0], [3.0], [4.5]]))
        assert list(got) == [False, True, True, False]

    def test_all_points_inside_own_hull(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(30, 2))
        hull = Hull(pts)
        assert hull.contains(pts).all()

    def test_collinear_2d_degenerate(self):
        pts = np.array([[0.0, 0], [1, 1], [2, 2]])
        hull = Hull(pts)
        assert hull.contains_point([1.5, 1.5])
        assert not hull.contains_point([1.5, 1.6])
        assert not hull.contains_point([3.0, 3.0])

    def test_single_point_hull(self):
        hull = Hull(np.array([[2.0, 3.0]]))
        assert hull.contains_point([2.0, 3.0])
        assert not hull.contains_point([2.1, 3.0])

    def test_duplicate_points(self):
        hull = Hull(np.tile([[1.0, 1.0]], (5, 1)))
        assert hull.contains_point([1.0, 1.0])

    def test_high_dim_few_points_degenerate(self):
        # 5 points in 8-D span at most a 4-D affine subspace.
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(5, 8))
        hull = Hull(pts)
        assert hull.contains(pts).all()
        assert not hull.contains_point(rng.normal(size=8) + 10)

    def test_high_dim_full_hull(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(40, 4))
        hull = Hull(pts)
        assert hull.contains(pts).all()
        centroid = pts.mean(axis=0)
        assert hull.contains_point(centroid)
        assert not hull.contains_point(centroid + 100)

    def test_dimension_mismatch_raises(self):
        hull = Hull(UNIT_SQUARE)
        with pytest.raises(ValueError):
            hull.contains(np.zeros((2, 3)))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Hull(np.zeros((0, 2)))

    def test_bounding_box(self):
        lo, hi = Hull(UNIT_SQUARE).bounding_box
        assert np.allclose(lo, [0, 0]) and np.allclose(hi, [1, 1])

    def test_repr(self):
        assert "dim=2" in repr(Hull(UNIT_SQUARE))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1000))
def test_property_convex_combination_inside(seed):
    """Any convex combination of the points lies inside their hull."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(10, 2))
    hull = Hull(pts)
    weights = rng.dirichlet(np.ones(10))
    assert hull.contains_point(weights @ pts)


def _point_family(kind, seed):
    """2-D point sets of one of the shapes the Qhull-oracle property
    draws: random clouds on both sides of the prefilter's threshold,
    duplicated rows, integer grids full of collinear subsets (exact, so
    "on an edge" is exact too) and a thin sliver.  All but the sliver
    may be moved by 1e8 (exactly, for the grids): Qhull merges facets
    that meet within its rounding, about 1e-7 at 1e8, where the chain
    keeps both, and a sliver's long edges are full of such vertices."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 121))
    offset = 1e8 if kind != "sliver" and rng.uniform() < 0.3 else 0.0
    if kind == "random":
        pts = rng.normal(size=(n, 2)) * rng.uniform(0.1, 10)
    elif kind == "duplicates":
        distinct = rng.uniform(-1, 1, size=(int(rng.integers(3, 12)), 2))
        pts = np.vstack([distinct, distinct[rng.integers(0, len(distinct),
                                                         size=n)]])
    elif kind == "collinear":
        pts = rng.integers(-4, 5, size=(n, 2)).astype(np.float64)
        # Points exactly on two edges of the grid's bounding square.
        t = rng.integers(-4, 5, size=8).astype(np.float64)
        pts = np.vstack([pts, np.column_stack([t, np.full(8, 4.0)]),
                         np.column_stack([np.full(8, -4.0), t])])
    else:  # a sliver 1e-3 to 1e-7 thick along a tilted unit segment
        height = 10.0 ** -rng.integers(3, 8)
        along = rng.uniform(size=n)[:, None] * [0.8, 0.6]
        across = rng.uniform(-1, 1, size=n)[:, None] * height * [-0.6, 0.8]
        pts = along + across
    return pts + offset


@settings(deadline=None)
@given(st.sampled_from(["random", "duplicates", "collinear", "sliver"]),
       st.integers(0, 10 ** 6))
def test_property_monotone_chain_matches_qhull(kind, seed):
    """The 2-D builder against Qhull as the oracle: the same vertex set,
    facet rows within 1e-12 (offsets relative to the coordinates'
    magnitude) matched by normal, and the same answers on the points
    themselves and on queries farther than the tolerance from every
    facet."""
    spatial = pytest.importorskip("scipy.spatial")
    pts = _point_family(kind, seed)
    try:
        oracle = spatial.ConvexHull(pts)
    except spatial.QhullError:
        assume(False)   # a flat draw: no full-dimensional hull to match
    hull = Hull(pts)
    assert hull._equations is not None   # the chain built it, not a span

    assert ({tuple(v) for v in convex_hull_vertices_2d(pts)}
            == {tuple(v) for v in pts[oracle.vertices]})
    rows, expected = hull._equations, oracle.equations
    assert len(rows) == len(expected)
    # An offset -n.v is as exact as the coordinates it is summed from.
    reach = max(1.0, float(np.abs(pts).max()))
    for row in expected:
        # The nearest row: a sliver's neighbouring normals agree to 1e-8,
        # past what a dot product can tell apart, so offsets count too.
        gap = np.abs(rows - row) / [1.0, 1.0, reach]
        match = rows[np.argmin(gap.max(axis=1))]
        assert np.abs(match[:2] - row[:2]).max() <= 1e-12
        assert abs(match[2] - row[2]) <= 1e-12 * reach

    rng = np.random.default_rng(seed + 1)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    queries = lo + (hi - lo) * rng.uniform(-0.5, 1.5, size=(200, 2))
    values = queries @ expected[:, :2].T + expected[:, 2]
    tol = 1e-9 * np.maximum(1.0, np.abs(expected[:, :2])
                            @ np.abs(pts).max(axis=0))
    away = (np.abs(values) > 10 * tol + 1e-12 * reach).all(axis=1)
    assert hull.contains(pts).all()
    assert np.array_equal(hull.contains(queries[away]),
                          (values[away] <= 0).all(axis=1))


def test_hulls_far_from_the_origin_contain_their_own_points():
    """Integer grids moved by 1e8: a facet whose normal has mixed signs
    has an offset small next to the terms ``n·x`` sums, and those round
    by ~1e-8; the facet tolerance scales with the terms, not the offset."""
    rng = np.random.default_rng(0)
    built = 0
    for _ in range(300):
        pts = rng.integers(-4, 5, size=(int(rng.integers(3, 121)), 2)) + 1e8
        if np.linalg.matrix_rank(pts - pts.mean(axis=0)) < 2:
            continue
        hull = Hull(pts)
        assert hull._equations is not None
        assert hull.contains(pts).all()
        built += 1
    assert built > 250


def test_a_sliver_the_chain_calls_collinear_takes_the_span_path(
        monkeypatch):
    """When the SVD calls a set rank 2 but the chain finds fewer than
    three vertices, the set is lowered as a 1-D span — where a Qhull
    failure used to land — not as its bounding box."""
    asked = []
    monkeypatch.setattr(convex_hull_module, "_facets_2d",
                        lambda pts: asked.append(len(pts)))
    hull = Hull([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0 + 1e-7]])
    assert asked == [3]
    assert hull._equations is None and hull._span is not None
    assert hull.contains_point([1.5, 1.5])
    assert not hull.contains_point([0.5, 1.5])


def test_without_scipy_2d_hulls_build_and_3d_hulls_fail_naming_it():
    """Without scipy, ``import repro`` and every 2-D hull work, and the
    first hull of three or more dimensions raises ``ImportError`` naming
    scipy.  (The contract used to be "no scipy, no ``import repro``":
    ``convex_hull`` had survived a missing scipy with ``_SciPyHull =
    None; QhullError = Exception``, so every full-dimensional hull
    silently became its bounding box and ``Hull([[0, 0], [1, 0], [0,
    1], [.2, .2]])`` reported ``(0.9, 0.9)`` inside.  2-D hulls no
    longer need Qhull; the rest still fail loudly, never fall back.)"""
    import os
    import subprocess
    import sys
    import textwrap

    import repro
    code = textwrap.dedent("""
        import sys
        sys.modules['scipy'] = None
        sys.modules['scipy.spatial'] = None
        import repro
        from repro.geometry import Hull
        hull = Hull([[0, 0], [1, 0], [0, 1], [.2, .2]])
        assert not hull.contains_point([0.9, 0.9])
        assert hull.contains_point([0.2, 0.3])
        print("2-D hulls built")
        Hull([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [.2, .2, .2]])
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert "2-D hulls built" in done.stdout, done.stderr
    assert done.returncode != 0
    last = done.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError"), last
    assert "scipy" in last
    assert "convex_hull.py" in done.stderr
