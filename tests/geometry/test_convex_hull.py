"""Tests for convex hulls and containment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Hull, convex_hull_vertices_2d


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


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1000))
def test_property_scipy_hull_matches_monotone_chain(seed):
    """2-D containment agrees between Qhull equations and monotone chain."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(12, 2))
    hull = Hull(pts)
    verts = convex_hull_vertices_2d(pts)
    queries = rng.normal(size=(40, 2)) * 1.5

    def cross2(u, v):
        return u[0] * v[1] - u[1] * v[0]

    def inside_polygon(q):
        # Ray-free check: q inside CCW polygon iff left of all edges.
        n = len(verts)
        for i in range(n):
            a, b = verts[i], verts[(i + 1) % n]
            if cross2(b - a, q - a) < -1e-9:
                return False
        return True

    mask = hull.contains(queries)
    expected = np.array([inside_polygon(q) for q in queries])
    assert (mask == expected).all()


def test_a_missing_scipy_fails_the_import_naming_it():
    """``convex_hull`` used to survive the ``ImportError`` with
    ``_SciPyHull = None; QhullError = Exception``: building a hull then
    called ``None(pts)``, the ``TypeError`` *was* a ``QhullError``, the
    ``QJ`` retry failed the same way, and every full-dimensional hull
    silently became its bounding box (``Hull([[0, 0], [1, 0], [0, 1],
    [.2, .2]])`` reported ``(0.9, 0.9)`` inside).  scipy is a hard
    dependency: without it ``import repro`` fails, and says why."""
    import os
    import subprocess
    import sys

    import repro
    code = ("import sys; sys.modules['scipy'] = None; "
            "sys.modules['scipy.spatial'] = None; import repro")
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode != 0
    last = done.stderr.strip().splitlines()[-1]
    assert last.startswith(("ImportError", "ModuleNotFoundError")), last
    assert "scipy" in last
    assert "convex_hull.py" in done.stderr
