"""Tests for SGD and Adam optimizers.

Every case runs twice: with Adam's compiled loop, and with the numpy
kernel alone, as on a host without a C compiler.
"""

import numpy as np
import pytest

from repro.nn import Adam, SGD, Tensor, optim
from repro.nn.tensor import Parameter


@pytest.fixture(autouse=True, params=["compiled", "numpy"])
def kernel(request, monkeypatch):
    if request.param == "numpy":
        monkeypatch.setattr(optim, "_adam_kernel", lambda: None)
    elif optim._adam_kernel() is None:
        if optim._compiler() is not None:
            pytest.fail("a C compiler is on the PATH, yet the compiled "
                        "Adam loop did not load")
        pytest.skip("no C compiler on this host")
    return request.param


def quadratic_loss(param, target):
    diff = param - target
    return (diff * diff).sum()


class TestSGD:
    def test_descends_quadratic(self):
        p = Parameter(np.array([5.0, -3.0]))
        target = np.array([1.0, 1.0])
        opt = SGD([p], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            quadratic_loss(p, target).backward()
            opt.step()
        assert np.allclose(p.data, target, atol=1e-3)

    def test_momentum_accelerates(self):
        def losses_after(momentum, steps=20):
            p = Parameter(np.array([10.0]))
            opt = SGD([p], lr=0.01, momentum=momentum)
            for _ in range(steps):
                opt.zero_grad()
                quadratic_loss(p, np.zeros(1)).backward()
                opt.step()
            return abs(p.data[0])

        assert losses_after(0.9) < losses_after(0.0)

    def test_skips_params_without_grad(self):
        p = Parameter(np.ones(2))
        opt = SGD([p], lr=0.5)
        opt.step()  # no grad yet: must be a no-op, not an error
        assert np.allclose(p.data, 1.0)

    def test_validation(self):
        p = Parameter(np.ones(1))
        with pytest.raises(ValueError):
            SGD([], lr=0.1)
        with pytest.raises(ValueError):
            SGD([p], lr=0.0)
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, momentum=1.0)


class TestAdam:
    def test_descends_quadratic(self):
        p = Parameter(np.array([5.0, -3.0]))
        target = np.array([1.0, 1.0])
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            quadratic_loss(p, target).backward()
            opt.step()
        assert np.allclose(p.data, target, atol=1e-2)

    def test_first_step_size_is_about_lr(self):
        # With bias correction, Adam's first update magnitude ~= lr.
        p = Parameter(np.array([10.0]))
        opt = Adam([p], lr=0.05)
        opt.zero_grad()
        quadratic_loss(p, np.zeros(1)).backward()
        opt.step()
        assert np.isclose(10.0 - p.data[0], 0.05, rtol=1e-3)

    def test_handles_sparse_grad_pattern(self):
        p1 = Parameter(np.ones(1))
        p2 = Parameter(np.ones(1))
        opt = Adam([p1, p2], lr=0.1)
        opt.zero_grad()
        (p1 * 2.0).sum().backward()  # only p1 gets a gradient
        opt.step()
        assert p1.data[0] != 1.0
        assert p2.data[0] == 1.0

    def test_zero_grad_via_optimizer(self):
        p = Parameter(np.ones(1))
        opt = Adam([p], lr=0.1)
        (p * 2).sum().backward()
        opt.zero_grad()
        assert p.grad is None


def test_optimizers_train_small_net_to_fit_xor():
    """Integration: Adam fits XOR (non-linearly separable)."""
    from repro.nn import MLP
    from repro.nn.functional import binary_cross_entropy_with_logits

    rng = np.random.default_rng(0)
    x = np.array([[0.0, 0], [0, 1], [1, 0], [1, 1]])
    y = np.array([0.0, 1, 1, 0])
    net = MLP([2, 8, 1], rng=rng)
    opt = Adam(net.parameters(), lr=0.05)
    for _ in range(400):
        opt.zero_grad()
        logits = net(Tensor(x)).reshape(-1)
        binary_cross_entropy_with_logits(logits, y).backward()
        opt.step()
    pred = (net(Tensor(x)).data.ravel() > 0).astype(int)
    assert np.array_equal(pred, y.astype(int))


# ----------------------------------------------------------------------
# The fused, blocked, in-place step.  The oracles below are the textbook
# updates in plain numpy — Adam's in the floating-point order the step
# had before it was fused — and exist only here.
# ----------------------------------------------------------------------
BLOCK = optim._BLOCK


def adam_oracle(value, grads, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    m = np.zeros_like(value)
    v = np.zeros_like(value)
    for t, grad in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * grad
        v = b2 * v + (1 - b2) * grad ** 2
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        value = value - (lr * m_hat) / (np.sqrt(v_hat) + eps)
    return value


def sgd_oracle(value, grads, lr, momentum=0.0):
    velocity = np.zeros_like(value)
    for grad in grads:
        velocity = momentum * velocity + grad
        value = value - lr * velocity
    return value


def make_optimizer(kind, params, lr=0.01):
    if kind == "adam":
        return Adam(params, lr=lr)
    return SGD(params, lr=lr, momentum=0.9 if kind == "momentum" else 0.0)


def run_steps(optimizer, params, grad_steps):
    """``grad_steps[t][i]`` is parameter i's gradient at step t."""
    for grads in grad_steps:
        for param, grad in zip(params, grads):
            param.grad = grad
        optimizer.step()


KINDS = ["adam", "sgd", "momentum"]


@pytest.mark.parametrize("kind", KINDS)
def test_fifty_steps_match_the_textbook_oracle(kind):
    rng = np.random.default_rng(0)
    # Values stay well away from 0, so rtol alone is a fair yardstick.
    start = rng.uniform(2.0, 3.0, size=(3, 5, 7))
    grads = [rng.normal(size=start.shape) for _ in range(50)]
    param = Parameter(start.copy())
    run_steps(make_optimizer(kind, [param]), [param], [[g] for g in grads])
    if kind == "adam":
        expected = adam_oracle(start, grads, lr=0.01)
    else:
        expected = sgd_oracle(start, grads, 0.01,
                              0.9 if kind == "momentum" else 0.0)
    assert np.allclose(param.data, expected, rtol=1e-12, atol=0.0)
    assert not np.array_equal(param.data, start)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("slice_size", [
    5,                      # stack far below one block
    BLOCK // 4,             # stack exactly one block
    BLOCK // 2,             # stack exactly two blocks
    BLOCK // 4 + 37,        # stack above a block, not a multiple of it
    BLOCK + 1,              # every slice itself spans blocks
])
def test_stacked_optimizer_equals_per_slice_optimizers(kind, slice_size):
    """The kernel is element-wise: an element's update cannot depend on
    the stack, parameter or block it sits in — the property every
    stacked-vs-per-task parity suite rests on."""
    k, steps = 4, 3
    rng = np.random.default_rng(slice_size)
    start = rng.normal(size=(k, slice_size))
    grads = [rng.normal(size=(k, slice_size)) for _ in range(steps)]

    stacked = Parameter(start.copy())
    run_steps(make_optimizer(kind, [stacked]), [stacked],
              [[g] for g in grads])
    for i in range(k):
        single = Parameter(start[i].copy())
        run_steps(make_optimizer(kind, [single]), [single],
                  [[g[i]] for g in grads])
        assert np.array_equal(stacked.data[i], single.data)


@pytest.mark.parametrize("kind", KINDS)
def test_updates_in_place_and_only_reads_gradients(kind):
    rng = np.random.default_rng(1)
    param = Parameter(rng.normal(size=(6, 4)))
    buffer = param.data
    grad = rng.normal(size=(6, 4))
    kept = grad.copy()
    optimizer = make_optimizer(kind, [param])
    for _ in range(3):
        param.grad = grad
        optimizer.step()
        assert param.data is buffer
    assert np.array_equal(grad, kept)


@pytest.mark.parametrize("kind", KINDS)
def test_gradient_array_shared_by_two_parameters(kind):
    """``Tensor.__add__``'s backward hands one array to both parents."""
    rng = np.random.default_rng(2)
    a_start, b_start = rng.normal(size=(2, 9))
    a, b = Parameter(a_start.copy()), Parameter(b_start.copy())
    weights = rng.normal(size=9)
    optimizer = make_optimizer(kind, [a, b])
    ((a + b) * weights).sum().backward()
    assert a.grad is b.grad
    optimizer.step()
    assert np.array_equal(a.grad, weights)
    for param, start in ((a, a_start), (b, b_start)):
        alone = Parameter(start.copy())
        run_steps(make_optimizer(kind, [alone]), [alone], [[weights]])
        assert np.array_equal(param.data, alone.data)


@pytest.mark.parametrize("kind", KINDS)
def test_strided_data_is_copied_once_and_its_base_left_alone(kind):
    rng = np.random.default_rng(3)
    base = rng.normal(size=(5, 4, 3))
    kept = base.copy()
    grads = [rng.normal(size=(4, 5, 3)) for _ in range(3)]
    strided = Parameter(np.swapaxes(base, 0, 1))
    assert not strided.data.flags["C_CONTIGUOUS"]
    plain = Parameter(np.ascontiguousarray(np.swapaxes(base, 0, 1)))
    opt_strided = make_optimizer(kind, [strided])
    opt_plain = make_optimizer(kind, [plain])

    run_steps(opt_strided, [strided], [[grads[0]]])
    copied = strided.data
    assert copied.flags["C_CONTIGUOUS"] and copied.flags["WRITEABLE"]
    run_steps(opt_strided, [strided], [[g] for g in grads[1:]])
    assert strided.data is copied               # one copy, not one a step
    run_steps(opt_plain, [plain], [[g] for g in grads])
    assert np.array_equal(strided.data, plain.data)
    assert np.array_equal(base, kept)


@pytest.mark.parametrize("kind", KINDS)
def test_read_only_broadcast_data(kind):
    """A stride-0 stack of one template row trains as K real rows."""
    rng = np.random.default_rng(4)
    row = rng.normal(size=6)
    kept = row.copy()
    grads = [rng.normal(size=(3, 6)) for _ in range(3)]
    stacked = Parameter(np.broadcast_to(row, (3, 6)))
    assert not stacked.data.flags["WRITEABLE"]
    run_steps(make_optimizer(kind, [stacked]), [stacked],
              [[g] for g in grads])
    for i in range(3):
        single = Parameter(row.copy())
        run_steps(make_optimizer(kind, [single]), [single],
                  [[g[i]] for g in grads])
        assert np.array_equal(stacked.data[i], single.data)
    assert np.array_equal(row, kept)


@pytest.mark.parametrize("kind", KINDS)
def test_strided_gradient(kind):
    rng = np.random.default_rng(5)
    start = rng.normal(size=(4, 5, 3))
    grad_base = rng.normal(size=(4, 3, 5))
    strided_grad = np.swapaxes(grad_base, -1, -2)
    assert not strided_grad.flags["C_CONTIGUOUS"]
    kept = grad_base.copy()
    a, b = Parameter(start.copy()), Parameter(start.copy())
    run_steps(make_optimizer(kind, [a]), [a], [[strided_grad]] * 2)
    run_steps(make_optimizer(kind, [b]), [b],
              [[np.ascontiguousarray(strided_grad)]] * 2)
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(grad_base, kept)


@pytest.mark.parametrize("kind", KINDS)
def test_broadcastable_gradient_is_broadcast_not_mis_sliced(kind):
    """A hand-set gradient of a broadcastable shape keeps meaning what
    it meant to the out-of-place step: one row for every slice."""
    rng = np.random.default_rng(8)
    start, row = rng.normal(size=(3, 6)), rng.normal(size=(1, 6))
    a, b = Parameter(start.copy()), Parameter(start.copy())
    run_steps(make_optimizer(kind, [a]), [a], [[row]] * 2)
    run_steps(make_optimizer(kind, [b]), [b], [[np.tile(row, (3, 1))]] * 2)
    assert np.array_equal(a.data, b.data)


def test_missing_gradient_skips_the_parameter_yet_advances_step():
    rng = np.random.default_rng(6)
    start = rng.normal(size=8)
    grads = [rng.normal(size=8) for _ in range(3)]
    trained, idle = Parameter(start.copy()), Parameter(start.copy())
    optimizer = Adam([trained, idle], lr=0.01)
    run_steps(optimizer, [trained, idle], [[g, None] for g in grads])
    assert optimizer.state_dict()["step"] == 3
    assert np.array_equal(idle.data, start)
    assert not optimizer.state_dict()["m"][1].any()
    assert np.allclose(trained.data, adam_oracle(start, grads, lr=0.01),
                       rtol=1e-12, atol=0.0)

    # The idle parameter's first real gradient is corrected for step 4.
    idle.grad, trained.grad = grads[0], None
    optimizer.step()
    m_hat = 0.1 * grads[0] / (1 - 0.9 ** 4)
    v_hat = 0.001 * grads[0] ** 2 / (1 - 0.999 ** 4)
    assert np.allclose(idle.data,
                       start - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8),
                       rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind", KINDS)
def test_resume_mid_run_equals_uninterrupted(kind):
    rng = np.random.default_rng(7)
    shapes = [(3, 4), (BLOCK + 5,)]
    starts = [rng.normal(size=shape) for shape in shapes]
    grads = [[rng.normal(size=shape) for shape in shapes]
             for _ in range(7)]

    straight = [Parameter(start.copy()) for start in starts]
    run_steps(make_optimizer(kind, straight), straight, grads)

    first = [Parameter(start.copy()) for start in starts]
    optimizer = make_optimizer(kind, first)
    run_steps(optimizer, first, grads[:3])
    state = optimizer.state_dict()
    resumed = [Parameter(param.data.copy()) for param in first]
    successor = make_optimizer(kind, resumed, lr=0.5)   # lr comes from state
    successor.load_state_dict(state)
    run_steps(optimizer, first, grads[3:4])   # the donor moves on alone
    run_steps(successor, resumed, grads[3:])
    for ours, theirs in zip(resumed, straight):
        assert np.array_equal(ours.data, theirs.data)


def test_state_dict_keys_are_unchanged_and_hold_no_scratch():
    param = Parameter(np.ones((2, 3)))
    param.grad = np.ones((2, 3))
    adam, sgd = Adam([param], lr=0.1), SGD([param], lr=0.1, momentum=0.5)
    adam.step()
    sgd.step()
    assert set(adam.state_dict()) == {"kind", "lr", "beta1", "beta2", "eps",
                                      "step", "m", "v"}
    assert set(sgd.state_dict()) == {"kind", "lr", "momentum", "velocity"}
    for state in (adam.state_dict(), sgd.state_dict()):
        for value in state.values():
            for array in value if isinstance(value, list) else []:
                assert array.shape == (2, 3)
                assert not np.shares_memory(array, adam._scratch)
                assert not np.shares_memory(array, sgd._scratch)


def test_scratch_block_belongs_to_the_instance():
    a, b = (Adam([Parameter(np.ones(BLOCK * 2))]) for _ in range(2))
    assert a._scratch.size == BLOCK
    assert not np.shares_memory(a._scratch, b._scratch)
    assert Adam([Parameter(np.ones(3))])._scratch.size == 3
