"""Gradient checks: autograd vs central finite differences.

These are the load-bearing correctness tests of the NN substrate — every
differentiable op and the full composite meta-learner forward pass are
verified against numerical differentiation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor
from repro.nn.functional import (binary_cross_entropy_with_logits,
                                 cosine_similarity, mse_loss, softmax)

EPS = 1e-6
ATOL = 1e-5


def numeric_grad(fn, x):
    """Central finite-difference gradient of scalar fn at numpy x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + EPS
        hi = fn(x)
        flat[i] = orig - EPS
        lo = fn(x)
        flat[i] = orig
        grad_flat[i] = (hi - lo) / (2 * EPS)
    return grad


def check(op, x, atol=ATOL):
    """Assert autograd gradient of ``sum(op(t))`` matches numeric."""
    t = Tensor(x.copy(), requires_grad=True)
    out = op(t).sum()
    out.backward()
    expected = numeric_grad(lambda v: op(Tensor(v)).sum().item(), x)
    assert np.allclose(t.grad, expected, atol=atol), \
        "max err {}".format(np.abs(t.grad - expected).max())


RNG = np.random.default_rng(42)


@pytest.mark.parametrize("op", [
    lambda t: t + 2.0,
    lambda t: 3.0 - t,
    lambda t: t * t,
    lambda t: t / 2.5,
    lambda t: 1.0 / (t + 3.0),
    lambda t: -t,
    lambda t: t ** 3,
    lambda t: t.relu(),
    lambda t: t.sigmoid(),
    lambda t: t.tanh(),
    lambda t: t.exp(),
    lambda t: (t + 3.0).log(),
    lambda t: (t + 3.0).sqrt(),
    lambda t: (t * t + 0.1).abs(),
    lambda t: t.mean(),
    lambda t: t.mean(axis=0),
    lambda t: t.sum(axis=1, keepdims=True),
    lambda t: t.reshape(-1),
    lambda t: t.T,
    lambda t: t[1:],
], ids=lambda op: "op")
def test_elementwise_and_shape_ops(op):
    check(op, RNG.normal(size=(3, 4)) * 0.7)


def test_matmul_grad_both_sides():
    a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(RNG.normal(size=(4, 2)), requires_grad=True)
    (a @ b).sum().backward()
    na = numeric_grad(lambda v: (Tensor(v) @ b.detach()).sum().item(), a.data)
    nb = numeric_grad(lambda v: (a.detach() @ Tensor(v)).sum().item(), b.data)
    assert np.allclose(a.grad, na, atol=ATOL)
    assert np.allclose(b.grad, nb, atol=ATOL)


def test_matmul_vector_matrix_grad():
    v = Tensor(RNG.normal(size=4), requires_grad=True)
    m = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
    (v @ m).sum().backward()
    nv = numeric_grad(lambda x: (Tensor(x) @ m.detach()).sum().item(), v.data)
    nm = numeric_grad(lambda x: (v.detach() @ Tensor(x)).sum().item(), m.data)
    assert np.allclose(v.grad, nv, atol=ATOL)
    assert np.allclose(m.grad, nm, atol=ATOL)


def test_matmul_dot_grad():
    a = Tensor(RNG.normal(size=5), requires_grad=True)
    b = Tensor(RNG.normal(size=5), requires_grad=True)
    (a @ b).backward()
    assert np.allclose(a.grad, b.data)
    assert np.allclose(b.grad, a.data)


def test_concat_grad():
    a = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
    (Tensor.concat([a, b], axis=1) ** 2).sum().backward()
    assert np.allclose(a.grad, 2 * a.data, atol=ATOL)
    assert np.allclose(b.grad, 2 * b.data, atol=ATOL)


def test_stack_grad():
    a = Tensor(RNG.normal(size=3), requires_grad=True)
    b = Tensor(RNG.normal(size=3), requires_grad=True)
    (Tensor.stack([a, b]) * np.array([[1.0], [2.0]])).sum().backward()
    assert np.allclose(a.grad, 1.0)
    assert np.allclose(b.grad, 2.0)


def test_broadcast_add_grad():
    a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(RNG.normal(size=4), requires_grad=True)
    ((a + b) ** 2).sum().backward()
    nb = numeric_grad(
        lambda v: ((a.detach() + Tensor(v)) ** 2).sum().item(), b.data)
    assert np.allclose(b.grad, nb, atol=ATOL)


def test_bce_with_logits_grad_matches_numeric():
    logits = RNG.normal(size=8) * 3
    targets = RNG.integers(0, 2, size=8).astype(float)
    t = Tensor(logits.copy(), requires_grad=True)
    binary_cross_entropy_with_logits(t, targets).backward()
    expected = numeric_grad(
        lambda v: binary_cross_entropy_with_logits(
            Tensor(v), targets).item(), logits)
    assert np.allclose(t.grad, expected, atol=ATOL)


def test_bce_grad_equals_sigmoid_minus_target():
    logits = RNG.normal(size=6)
    targets = RNG.integers(0, 2, size=6).astype(float)
    t = Tensor(logits.copy(), requires_grad=True)
    binary_cross_entropy_with_logits(t, targets, reduction="sum").backward()
    sig = 1 / (1 + np.exp(-logits))
    assert np.allclose(t.grad, sig - targets, atol=ATOL)


def test_mse_grad():
    pred = RNG.normal(size=5)
    target = RNG.normal(size=5)
    t = Tensor(pred.copy(), requires_grad=True)
    mse_loss(t, target).backward()
    assert np.allclose(t.grad, 2 * (pred - target) / 5, atol=ATOL)


def test_softmax_grad():
    x = RNG.normal(size=5)
    t = Tensor(x.copy(), requires_grad=True)
    (softmax(t) * np.arange(5.0)).sum().backward()
    expected = numeric_grad(
        lambda v: (softmax(Tensor(v)) * np.arange(5.0)).sum().item(), x)
    assert np.allclose(t.grad, expected, atol=ATOL)


def test_cosine_similarity_grad_both_inputs():
    v = RNG.normal(size=4)
    m = RNG.normal(size=(3, 4))
    tv = Tensor(v.copy(), requires_grad=True)
    tm = Tensor(m.copy(), requires_grad=True)
    cosine_similarity(tv, tm).sum().backward()
    nv = numeric_grad(
        lambda x: cosine_similarity(Tensor(x), Tensor(m)).sum().item(), v)
    nm = numeric_grad(
        lambda x: cosine_similarity(Tensor(v), Tensor(x)).sum().item(), m)
    assert np.allclose(tv.grad, nv, atol=ATOL)
    assert np.allclose(tm.grad, nm, atol=ATOL)


# ----------------------------------------------------------------------
# Batched ops (the serving hot path): stacked matmul, swapaxes, batched
# linear layers and the per-task-reduced BCE.
# ----------------------------------------------------------------------
def test_batched_matmul_grad_both_sides():
    a = Tensor(RNG.normal(size=(3, 4, 5)), requires_grad=True)
    b = Tensor(RNG.normal(size=(3, 5, 2)), requires_grad=True)
    (a @ b).sum().backward()
    na = numeric_grad(lambda v: (Tensor(v) @ b.detach()).sum().item(), a.data)
    nb = numeric_grad(lambda v: (a.detach() @ Tensor(v)).sum().item(), b.data)
    assert np.allclose(a.grad, na, atol=ATOL)
    assert np.allclose(b.grad, nb, atol=ATOL)


def test_batched_matmul_broadcast_grad():
    """(n, 1) @ (K, 1, m) — the tiler broadcast of the batched forward."""
    tiler = Tensor(np.ones((4, 1)), requires_grad=True)
    emb = Tensor(RNG.normal(size=(3, 1, 5)), requires_grad=True)
    (tiler @ emb).sum().backward()
    nt = numeric_grad(lambda v: (Tensor(v) @ emb.detach()).sum().item(),
                      tiler.data)
    ne = numeric_grad(lambda v: (tiler.detach() @ Tensor(v)).sum().item(),
                      emb.data)
    assert np.allclose(tiler.grad, nt, atol=ATOL)
    assert np.allclose(emb.grad, ne, atol=ATOL)


def test_batched_matmul_single_element_batch_grad():
    """K = 1: the degenerate stacked batch must still check out."""
    a = Tensor(RNG.normal(size=(1, 3, 4)), requires_grad=True)
    b = Tensor(RNG.normal(size=(1, 4, 2)), requires_grad=True)
    (a @ b).sum().backward()
    na = numeric_grad(lambda v: (Tensor(v) @ b.detach()).sum().item(), a.data)
    nb = numeric_grad(lambda v: (a.detach() @ Tensor(v)).sum().item(), b.data)
    assert np.allclose(a.grad, na, atol=ATOL)
    assert np.allclose(b.grad, nb, atol=ATOL)


def test_batched_matmul_non_contiguous_grad():
    """Non-contiguous (transposed-view) operands of a stacked matmul."""
    base = RNG.normal(size=(4, 3, 5))
    a = Tensor(np.swapaxes(base, 0, 1), requires_grad=True)  # view
    assert not a.data.flags["C_CONTIGUOUS"]
    b = Tensor(RNG.normal(size=(3, 5, 2)), requires_grad=True)
    (a @ b).sum().backward()
    na = numeric_grad(
        lambda v: (Tensor(v) @ b.detach()).sum().item(),
        np.ascontiguousarray(a.data))
    assert np.allclose(a.grad, na, atol=ATOL)


def test_swapaxes_grad():
    check(lambda t: t.swapaxes(-1, -2), RNG.normal(size=(2, 3, 4)))
    weights = RNG.normal(size=(4, 3, 2))
    check(lambda t: t.swapaxes(0, 2) * weights, RNG.normal(size=(2, 3, 4)))


def test_batched_linear_matches_stacked_linears():
    from repro.nn import BatchedLinear, Linear

    rng = np.random.default_rng(3)
    linears = [Linear(4, 3, rng=np.random.default_rng(10 + i))
               for i in range(3)]
    batched = BatchedLinear.from_linears(linears)
    x = rng.normal(size=(3, 5, 4))
    out = batched(Tensor(x))
    for i, lin in enumerate(linears):
        assert np.allclose(out.data[i], lin(Tensor(x[i])).data, atol=1e-12)


def test_batched_linear_gradcheck():
    from repro.nn import BatchedLinear

    batched = BatchedLinear(2, 3, 2, rng=np.random.default_rng(0))
    x = RNG.normal(size=(2, 4, 3))

    def loss_at(flat):
        offset = 0
        for p in batched.parameters():
            p.copy_(flat[offset:offset + p.size].reshape(p.data.shape))
            offset += p.size
        return (batched(Tensor(x)) ** 2).sum().item()

    flat0 = batched.flat_parameters().copy()
    batched.zero_grad()
    (batched(Tensor(x)) ** 2).sum().backward()
    auto = np.concatenate([p.grad.ravel() for p in batched.parameters()])
    numeric = numeric_grad(loss_at, flat0)
    batched.load_flat_parameters(flat0)
    assert np.allclose(auto, numeric, atol=1e-4)


def test_batched_bce_grad_matches_numeric():
    from repro.nn.functional import batched_binary_cross_entropy_with_logits

    logits = RNG.normal(size=(3, 6)) * 2
    targets = RNG.integers(0, 2, size=(3, 6)).astype(float)
    pos_weight = np.array([[1.0], [2.5], [4.0]])
    t = Tensor(logits.copy(), requires_grad=True)
    batched_binary_cross_entropy_with_logits(
        t, targets, pos_weight=pos_weight).sum().backward()
    expected = numeric_grad(
        lambda v: batched_binary_cross_entropy_with_logits(
            Tensor(v), targets, pos_weight=pos_weight).sum().item(), logits)
    assert np.allclose(t.grad, expected, atol=ATOL)


def test_batched_bce_matches_per_task_sequential():
    """Summed batched loss gradient == per-task sequential loss gradients."""
    from repro.nn.functional import (balanced_pos_weight,
                                     batched_binary_cross_entropy_with_logits,
                                     batched_pos_weight)

    logits = RNG.normal(size=(4, 7))
    targets = RNG.integers(0, 2, size=(4, 7)).astype(float)
    pos_weight = batched_pos_weight(targets)
    t = Tensor(logits.copy(), requires_grad=True)
    batched_binary_cross_entropy_with_logits(
        t, targets, pos_weight=pos_weight).sum().backward()
    for k in range(4):
        row = Tensor(logits[k].copy(), requires_grad=True)
        binary_cross_entropy_with_logits(
            row, targets[k],
            pos_weight=balanced_pos_weight(targets[k])).backward()
        assert np.allclose(t.grad[k], row.grad, atol=1e-12)
        assert np.isclose(pos_weight[k, 0], balanced_pos_weight(targets[k]))


def test_batched_bce_single_task_edge_case():
    from repro.nn.functional import batched_binary_cross_entropy_with_logits

    logits = RNG.normal(size=(1, 5))
    targets = np.ones((1, 5))   # single class -> pos_weight path disabled
    t = Tensor(logits.copy(), requires_grad=True)
    loss = batched_binary_cross_entropy_with_logits(t, targets)
    assert loss.shape == (1,)
    loss.sum().backward()
    expected = numeric_grad(
        lambda v: batched_binary_cross_entropy_with_logits(
            Tensor(v), targets).sum().item(), logits)
    assert np.allclose(t.grad, expected, atol=ATOL)


def test_full_classifier_forward_gradcheck():
    """End-to-end gradient check through the UISClassifier composite."""
    from repro.core.meta_learner import UISClassifier

    rng = np.random.default_rng(7)  # test-local: immune to execution order
    model = UISClassifier(ku=6, input_width=5, embed_size=4, hidden_size=3,
                          seed=0)
    v_r = rng.integers(0, 2, size=6).astype(float)
    x = rng.normal(size=(7, 5))
    y = rng.integers(0, 2, size=7).astype(float)

    def loss_at(flat):
        model.load_flat_parameters(flat)
        logits = model.forward(v_r, x)
        return binary_cross_entropy_with_logits(logits, y).item()

    flat0 = model.flat_parameters().copy()
    model.zero_grad()
    loss = binary_cross_entropy_with_logits(model.forward(v_r, x), y)
    loss.backward()
    auto = np.concatenate([
        (p.grad if p.grad is not None else np.zeros_like(p.data)).ravel()
        for p in model.parameters()])
    numeric = numeric_grad(lambda v: loss_at(v), flat0)
    model.load_flat_parameters(flat0)
    assert np.allclose(auto, numeric, atol=1e-4), \
        "max err {}".format(np.abs(auto - numeric).max())


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=2, max_size=6))
def test_property_sigmoid_grad_bounded(values):
    """d sigmoid/dx is in (0, 0.25] everywhere — autograd must agree."""
    t = Tensor(np.asarray(values), requires_grad=True)
    t.sigmoid().sum().backward()
    assert np.all(t.grad > 0)
    assert np.all(t.grad <= 0.25 + 1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_property_matmul_grad_shapes(n, k, m):
    a = Tensor(np.ones((n, k)), requires_grad=True)
    b = Tensor(np.ones((k, m)), requires_grad=True)
    (a @ b).sum().backward()
    assert a.grad.shape == (n, k)
    assert b.grad.shape == (k, m)
    assert np.allclose(a.grad, m)
    assert np.allclose(b.grad, n)
