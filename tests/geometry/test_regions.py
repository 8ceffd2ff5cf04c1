"""Tests for union-of-hulls and conjunctive regions."""

import numpy as np
import pytest

from repro.geometry import BoxRegion, Hull, UnionRegion


def square_at(x, y, size=1.0):
    return np.array([[x, y], [x + size, y], [x + size, y + size],
                     [x, y + size]])


class TestBoxRegion:
    def test_membership(self):
        box = BoxRegion([0, 0], [1, 1])
        assert box.contains(np.array([[0.5, 0.5]]))[0]
        assert not box.contains(np.array([[1.5, 0.5]]))[0]

    def test_label_is_int(self):
        box = BoxRegion([0], [1])
        labels = box.label(np.array([[0.5], [2.0]]))
        assert labels.dtype == np.int64
        assert list(labels) == [1, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            BoxRegion([1, 0], [0, 1])
        with pytest.raises(ValueError):
            BoxRegion([0, 0], [1])


class TestUnionRegion:
    def test_union_semantics(self):
        region = UnionRegion([Hull(square_at(0, 0)), Hull(square_at(5, 5))])
        queries = np.array([[0.5, 0.5], [5.5, 5.5], [3.0, 3.0]])
        assert list(region.contains(queries)) == [True, True, False]

    def test_disconnected_region_supported(self):
        # The paper's generality claim: scattered UIS = union of parts.
        region = UnionRegion([square_at(0, 0), square_at(10, 10)])
        assert region.n_parts == 2
        assert not region.contains(np.array([[5.0, 5.0]]))[0]

    def test_accepts_raw_point_arrays(self):
        region = UnionRegion([square_at(0, 0)])
        assert region.contains(np.array([[0.5, 0.5]]))[0]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            UnionRegion([])

    def test_mixed_dims_raise(self):
        with pytest.raises(ValueError):
            UnionRegion([Hull(np.array([[0.0], [1.0]])),
                         Hull(square_at(0, 0))])

    def test_short_circuit_consistency(self):
        # Overlapping hulls: membership independent of hull order.
        a = UnionRegion([square_at(0, 0), square_at(0.5, 0.5)])
        b = UnionRegion([square_at(0.5, 0.5), square_at(0, 0)])
        queries = np.random.default_rng(0).uniform(-1, 2, size=(50, 2))
        assert np.array_equal(a.contains(queries), b.contains(queries))
