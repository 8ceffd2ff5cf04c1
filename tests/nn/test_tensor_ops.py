"""Unit tests for the oracle's autograd Tensor (``_autograd_oracle.py``):
forward semantics and graph basics."""

import numpy as np
import pytest

from _autograd_oracle import Tensor, _unbroadcast, no_grad
from repro.nn import Parameter


class TestArithmetic:
    def test_add(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        assert np.allclose(out.data, [4.0, 6.0])

    def test_add_scalar_right_and_left(self):
        t = Tensor([1.0, 2.0])
        assert np.allclose((t + 1).data, [2.0, 3.0])
        assert np.allclose((1 + t).data, [2.0, 3.0])

    def test_sub_and_rsub(self):
        t = Tensor([5.0])
        assert np.allclose((t - 2).data, [3.0])
        assert np.allclose((2 - t).data, [-3.0])

    def test_mul_broadcast(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor([1.0, 2.0, 3.0])
        assert np.allclose((a * b).data, [[1, 2, 3], [1, 2, 3]])

    def test_neg(self):
        assert np.allclose((-Tensor([1.0, -2.0])).data, [-1.0, 2.0])

    def test_matmul_2d(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        b = Tensor(np.arange(12, dtype=float).reshape(3, 4))
        assert np.allclose((a @ b).data, a.data @ b.data)

    def test_matmul_vector_cases(self):
        v = Tensor([1.0, 2.0, 3.0])
        m = Tensor(np.eye(3))
        assert np.allclose((v @ m).data, v.data)
        assert np.allclose((m @ v).data, v.data)
        assert np.isclose((v @ v).item(), 14.0)


class TestNonlinearities:
    def test_relu(self):
        out = Tensor([-1.0, 0.0, 2.0]).relu()
        assert np.allclose(out.data, [0.0, 0.0, 2.0])

    def test_sigmoid_range_and_stability(self):
        out = Tensor([-1000.0, 0.0, 1000.0]).sigmoid()
        assert np.all(out.data >= 0) and np.all(out.data <= 1)
        assert np.isclose(out.data[1], 0.5)
        assert np.isfinite(out.data).all()

    def test_exp_log_abs(self):
        t = Tensor([1.0, 4.0])
        assert np.allclose(t.exp().data, np.exp(t.data))
        assert np.allclose(t.log().data, np.log(t.data))
        assert np.allclose(Tensor([-3.0, 2.0]).abs().data, [3.0, 2.0])


class TestReductionsAndShapes:
    def test_sum_axis(self):
        t = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        assert np.isclose(t.sum().item(), 15.0)
        assert np.allclose(t.sum(axis=0).data, [3.0, 5.0, 7.0])
        assert t.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_mean(self):
        t = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        assert np.isclose(t.mean().item(), 2.5)
        assert np.allclose(t.mean(axis=0).data, [1.5, 2.5, 3.5])

    def test_reshape_and_swapaxes(self):
        t = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        assert t.reshape(3, 2).shape == (3, 2)
        assert t.reshape((6,)).shape == (6,)
        assert t.swapaxes(-1, -2).shape == (3, 2)

    def test_concat(self):
        a, b = Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 3)))
        assert Tensor.concat([a, b], axis=1).shape == (2, 5)


class TestGraphMechanics:
    def test_requires_grad_propagates(self):
        a = Tensor([1.0], requires_grad=True)
        assert (a + 1).requires_grad
        assert not (Tensor([1.0]) + 1).requires_grad

    def test_backward_accumulates_on_leaves(self):
        a = Tensor([2.0], requires_grad=True)
        (a * 3).backward()
        (a * 3).backward()
        assert np.allclose(a.grad, [6.0])  # fresh graph each time

    def test_shared_subexpression_grads_sum(self):
        a = Tensor([2.0], requires_grad=True)
        b = a * 3
        (b + b).backward()
        assert np.allclose(a.grad, [6.0])

    def test_backward_requires_scalar_or_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            a.backward()
        a.backward(np.ones(2))
        assert np.allclose(a.grad, [1.0, 1.0])

    def test_no_grad_blocks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2
        assert not out.requires_grad
        assert out._backward is None

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).backward()
        a.zero_grad()
        assert a.grad is None

    def test_repr_mentions_grad_flag(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))


class TestParameterLeaf:
    """A ``Parameter`` enters the graph as one leaf per forward, its
    array shared, and leaves its gradient on ``param.grad``."""

    def test_gradient_lands_on_the_parameter(self):
        p = Parameter(np.array([1.0, 2.0]))
        out = Tensor([3.0, 4.0]) * p
        assert out.requires_grad
        out.sum().backward()
        assert np.array_equal(p.grad, [3.0, 4.0])

    def test_leaf_shares_the_array_and_accumulates(self):
        p = Parameter(np.array([2.0]))
        leaf = Tensor._wrap(p)
        assert leaf.data is p.data and Tensor._wrap(leaf) is leaf
        (leaf * 3).backward()
        (Tensor._wrap(p) * 3).backward()
        assert np.array_equal(p.grad, [6.0])

    def test_a_parameter_is_not_raw_data(self):
        with pytest.raises(TypeError):
            Tensor(Parameter(np.zeros(2)))


class TestUnbroadcast:
    def test_sums_added_leading_axes(self):
        grad = np.ones((4, 2, 3))
        assert _unbroadcast(grad, (2, 3)).shape == (2, 3)
        assert np.allclose(_unbroadcast(grad, (2, 3)), 4.0)

    def test_sums_singleton_axes(self):
        grad = np.ones((2, 3))
        out = _unbroadcast(grad, (2, 1))
        assert out.shape == (2, 1)
        assert np.allclose(out, 3.0)
