"""Tests for labelling oracles."""

import numpy as np
import pytest

from repro.data.subspaces import Subspace
from repro.explore import ConjunctiveOracle, RegionOracle
from repro.geometry import BoxRegion


class TestRegionOracle:
    def test_labels_and_counter(self):
        oracle = RegionOracle(BoxRegion([0, 0], [1, 1]))
        labels = oracle.label(np.array([[0.5, 0.5], [2.0, 2.0]]))
        assert list(labels) == [1, 0]
        assert oracle.labels_given == 2
        oracle.reset_counter()
        assert oracle.labels_given == 0


def two_subspace_oracle():
    s_a = Subspace(["a", "b"], [0, 1])
    s_c = Subspace(["c"], [2])
    return ConjunctiveOracle({
        s_a: BoxRegion([0, 0], [1, 1]),
        s_c: BoxRegion([10], [20]),
    }), s_a, s_c


class TestConjunctiveOracle:
    def test_subspace_labels_counted(self):
        oracle, s_a, _ = two_subspace_oracle()
        labels = oracle.label_subspace(s_a, np.array([[0.5, 0.5]]))
        assert labels[0] == 1
        assert oracle.labels_given == 1

    def test_full_space_label_is_conjunction(self):
        oracle, _, _ = two_subspace_oracle()
        rows = np.array([[0.5, 0.5, 15.0], [0.5, 0.5, 5.0],
                         [2.0, 0.5, 15.0]])
        assert list(oracle.label(rows)) == [1, 0, 0]

    def test_ground_truth_does_not_count(self):
        oracle, _, _ = two_subspace_oracle()
        oracle.ground_truth(np.array([[0.5, 0.5, 15.0]]))
        assert oracle.labels_given == 0

    def test_ground_truth_subspace(self):
        oracle, s_a, _ = two_subspace_oracle()
        truth = oracle.ground_truth_subspace(s_a, np.array([[0.5, 0.5]]))
        assert truth[0] == 1
        assert oracle.labels_given == 0

    @pytest.mark.parametrize("method", ["ground_truth", "label"])
    @pytest.mark.parametrize("rows", [[], np.zeros(0), np.zeros((0, 3))],
                             ids=["list", "flat", "2d"])
    def test_empty_query_answers_empty(self, method, rows):
        oracle, _, _ = two_subspace_oracle()
        answer = getattr(oracle, method)(rows)
        assert answer.shape == (0,) and answer.dtype == np.int64
        assert oracle.labels_given == 0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ConjunctiveOracle({})

    def test_unknown_subspace_key_errors(self):
        oracle, _, _ = two_subspace_oracle()
        with pytest.raises(KeyError):
            oracle.label_subspace(Subspace(["z"], [9]), np.zeros((1, 1)))
