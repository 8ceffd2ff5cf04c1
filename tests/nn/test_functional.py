"""Tests for the oracle's graph loss (``_autograd_oracle.py``): the
BCE every eager oracle trains with."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _autograd_oracle import Tensor, binary_cross_entropy_with_logits


class TestBCE:
    def test_matches_reference_formula(self):
        logits = np.array([0.5, -1.2, 3.0])
        targets = np.array([1.0, 0.0, 1.0])
        loss = binary_cross_entropy_with_logits(Tensor(logits), targets)
        p = 1 / (1 + np.exp(-logits))
        expected = -(targets * np.log(p) + (1 - targets) * np.log(1 - p))
        assert np.isclose(loss.item(), expected.mean())

    def test_stable_at_extreme_logits(self):
        loss = binary_cross_entropy_with_logits(
            Tensor([1000.0, -1000.0]), np.array([1.0, 0.0]))
        assert np.isfinite(loss.item())
        assert loss.item() < 1e-6

    def test_reductions(self):
        logits = Tensor([1.0, -1.0])
        targets = np.array([1.0, 0.0])
        total = binary_cross_entropy_with_logits(
            logits, targets, reduction="sum").item()
        mean = binary_cross_entropy_with_logits(
            logits, targets, reduction="mean").item()
        none = binary_cross_entropy_with_logits(
            logits, targets, reduction="none")
        assert np.isclose(total, mean * 2)
        assert none.shape == (2,)
        with pytest.raises(ValueError):
            binary_cross_entropy_with_logits(logits, targets,
                                             reduction="bogus")

    def test_accepts_tensor_targets(self):
        loss = binary_cross_entropy_with_logits(
            Tensor([0.0]), Tensor([1.0]))
        assert np.isclose(loss.item(), np.log(2))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
       st.lists(st.integers(0, 1), min_size=1, max_size=8))
def test_property_bce_nonnegative(logits, bits):
    n = min(len(logits), len(bits))
    loss = binary_cross_entropy_with_logits(
        Tensor(np.asarray(logits[:n])), np.asarray(bits[:n], dtype=float))
    assert loss.item() >= -1e-12
