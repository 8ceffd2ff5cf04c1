"""Tests for class-balanced BCE (pos_weight / balanced_pos_weight) of
the oracle's graph loss (``_autograd_oracle.py``)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from _autograd_oracle import (Tensor, balanced_pos_weight,
                              binary_cross_entropy_with_logits)


class TestPosWeight:
    def test_weight_one_is_identity(self):
        logits = Tensor([0.5, -1.0])
        targets = np.array([1.0, 0.0])
        plain = binary_cross_entropy_with_logits(logits, targets).item()
        weighted = binary_cross_entropy_with_logits(
            logits, targets, pos_weight=1.0).item()
        assert np.isclose(plain, weighted)

    def test_weight_scales_positive_terms_only(self):
        logits = Tensor([0.3, 0.3])
        targets = np.array([1.0, 0.0])
        none = binary_cross_entropy_with_logits(
            logits, targets, reduction="none", pos_weight=3.0).data
        base = binary_cross_entropy_with_logits(
            logits, targets, reduction="none").data
        assert np.isclose(none[0], 3.0 * base[0])
        assert np.isclose(none[1], base[1])

    def test_gradient_includes_weight(self):
        # Avoid z = 0: that point is the (measure-zero) kink of the stable
        # BCE decomposition where subgradients differ.
        logits = Tensor(np.array([0.2]), requires_grad=True)
        binary_cross_entropy_with_logits(
            logits, np.array([1.0]), pos_weight=4.0).backward()
        expected = 4.0 * (1.0 / (1.0 + np.exp(-0.2)) - 1.0)
        assert np.isclose(logits.grad[0], expected)


class TestBalancedPosWeight:
    def test_ratio(self):
        assert balanced_pos_weight(np.array([1, 0, 0, 0])) == 3.0

    def test_cap(self):
        targets = np.array([1] + [0] * 50)
        assert balanced_pos_weight(targets, cap=10.0) == 10.0

    def test_degenerate_single_class(self):
        assert balanced_pos_weight(np.ones(5)) == 1.0
        assert balanced_pos_weight(np.zeros(5)) == 1.0

    def test_accepts_tensor(self):
        assert balanced_pos_weight(Tensor([1.0, 0.0])) == 1.0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=40))
def test_property_balanced_weight_bounds(bits):
    bits = np.asarray(bits)
    weight = balanced_pos_weight(bits)
    # Positive, finite, capped; exactly n_neg/n_pos when both classes
    # present and under the cap.
    assert 0 < weight <= 10.0
    n_pos, n_neg = (bits == 1).sum(), (bits == 0).sum()
    if n_pos and n_neg and n_neg / n_pos <= 10.0:
        assert np.isclose(weight, n_neg / n_pos)
