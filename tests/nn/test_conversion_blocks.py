"""``M_cp`` applied by blocks vs the spelled-out combined row
(``_concat_oracle.py``, the old code verbatim).

Three contracts.  Two are old and stay exact: slice k of the stacked op
is the per-task op bit for bit, and ``inference_logits`` returns the
bits of ``forward`` for the same rows in one call — both hold because
two functions (:func:`repro.nn.functional.conversion_constant` and
:func:`~repro.nn.functional.conversion_rows`) are the only place the
formula is written.  The third is new: against the
oracle the block form adds the same products in another association, so
logits and gradients agree to a tolerance fixed here from the dtype
(1e-10 relative to the largest entry; observed ~1e-15), 30 optimizer
steps stay within 1e-9, and the 0/1 answers are equal on every fuzzed
row whose logit is not within 1e-6 of the boundary.

Example counts come from the hypothesis profile, so CI's train lane
raises them ten-fold with ``--hypothesis-profile=x10`` (registered in
``tests/conftest.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _concat_oracle as oracle
import _graph_oracle as graph
from test_gradcheck import numeric_grad
from repro.core.meta_learner import UISClassifier
from repro.nn import BatchedUISClassifier, Tensor, no_grad
from repro.nn.batching import inference_logits
from repro.nn.functional import convert_embeddings
from repro.nn.tensor import stable_sigmoid

NAMES = ("emb_r", "emb_tau", "conversion")
#: 2-D (one task) and stacked operands, one row and several.
SHAPES = [(lead, n) for lead in ((), (1,), (3,)) for n in (1, 7)]


def operands(lead, n, ne=3, seed=0):
    """``(emb_r, emb_tau, conversion, weights)`` arrays; the embeddings
    are rectified, so about half of their entries are exact zeros — what
    the two ReLU-terminated blocks hand the op."""
    rng = np.random.default_rng(seed)
    emb_r = np.maximum(rng.normal(size=lead + (1, ne)), 0.0)
    emb_tau = np.maximum(rng.normal(size=lead + (n, ne)), 0.0)
    conversion = rng.normal(size=lead + (ne, 3 * ne))
    weights = rng.normal(size=lead + (n, ne))
    return emb_r, emb_tau, conversion, weights


def gradients(op, arrays, weights):
    """Output and the three operand gradients of ``sum(op(...) * weights)``."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(*tensors)
    (out * weights).sum().backward()
    return out.data, [t.grad for t in tensors]


def assert_close(actual, expected, rel, what=""):
    """Within ``rel`` of the largest expected entry."""
    scale = max(np.abs(expected).max(), 1e-300)
    worst = np.abs(np.asarray(actual) - expected).max()
    assert worst <= rel * scale, "{}: {} of {}".format(what, worst, scale)


# ----------------------------------------------------------------------
# The op against finite differences
# ----------------------------------------------------------------------
@pytest.mark.parametrize("lead, n", SHAPES)
def test_gradcheck_all_three_operands(lead, n):
    *arrays, weights = operands(lead, n)
    assert (arrays[0] == 0).any() and (arrays[1] == 0).any()
    _, grads = gradients(convert_embeddings, arrays, weights)
    for i, (name, grad) in enumerate(zip(NAMES, grads)):
        def loss(value):
            args = arrays[:i] + [value] + arrays[i + 1:]
            return float((convert_embeddings(*args).data * weights).sum())

        assert grad.shape == arrays[i].shape, name
        assert np.allclose(grad, numeric_grad(loss, arrays[i]),
                           atol=1e-7), name
    assert grads[2].flags["C_CONTIGUOUS"]


@pytest.mark.parametrize("lead, n", SHAPES)
def test_constant_conversion_takes_no_gradient(lead, n):
    """Joint pretraining hands the op a plain array: both embeddings get
    the gradients they get beside a trained matrix, and no ``dM`` is
    assembled at all."""
    emb_r, emb_tau, conversion, weights = operands(lead, n, seed=1)
    _, expected = gradients(convert_embeddings, (emb_r, emb_tau, conversion),
                            weights)
    r = Tensor(emb_r, requires_grad=True)
    x = Tensor(emb_tau, requires_grad=True)
    out = convert_embeddings(r, x, conversion)
    assert out._backward(weights)[2] is None
    (out * weights).sum().backward()
    assert np.array_equal(r.grad, expected[0])
    assert np.array_equal(x.grad, expected[1])


def test_sides_without_gradient_are_skipped():
    emb_r, emb_tau, conversion, weights = operands((2,), 4, seed=2)
    m = Tensor(conversion, requires_grad=True)
    only_m = convert_embeddings(emb_r, emb_tau, m)._backward(weights)
    assert only_m[0] is None and only_m[1] is None
    x = Tensor(emb_tau, requires_grad=True)
    only_x = convert_embeddings(emb_r, x, conversion)._backward(weights)
    assert only_x[0] is None and only_x[2] is None
    _, expected = gradients(convert_embeddings, (emb_r, emb_tau, conversion),
                            weights)
    assert np.array_equal(only_m[2], expected[2])
    assert np.array_equal(only_x[1], expected[1])


def test_no_grad_records_nothing_and_keeps_the_bits():
    emb_r, emb_tau, conversion, _ = operands((3,), 7, seed=3)
    tensors = [Tensor(a, requires_grad=True)
               for a in (emb_r, emb_tau, conversion)]
    tracked = convert_embeddings(*tensors)
    with no_grad():
        untracked = convert_embeddings(*tensors)
    assert tracked.requires_grad and not untracked.requires_grad
    assert untracked._backward is None and untracked._parents == ()
    assert np.array_equal(untracked.data, tracked.data)


@pytest.mark.parametrize("shapes", [
    ((1, 3), (4, 3), (3, 8)),            # not Ne x 3Ne
    ((2, 3), (4, 3), (3, 9)),            # emb_R is one row per task
    ((1, 3), (2, 4, 3), (2, 3, 9)),      # per-task emb_R, stacked rest
    ((2, 1, 3), (2, 4, 3), (3, 9)),      # one matrix for a stack
])
def test_mismatched_operands_fail_typed(shapes):
    with pytest.raises(ValueError):
        convert_embeddings(*(np.ones(shape) for shape in shapes))


# ----------------------------------------------------------------------
# Old contract 1: stacked slice k == per-task, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k, n, ne", [(3, 7, 4), (3, 1, 4), (4, 30, 100)])
def test_stacked_slice_equals_per_task_bits(k, n, ne):
    *arrays, weights = operands((k,), n, ne=ne, seed=4)
    out, grads = gradients(convert_embeddings, arrays, weights)
    for i in range(k):
        out_i, grads_i = gradients(convert_embeddings,
                                   [a[i] for a in arrays], weights[i])
        assert np.array_equal(out[i], out_i)
        for name, stacked, single in zip(NAMES, grads, grads_i):
            assert np.array_equal(stacked[i], single), name


# ----------------------------------------------------------------------
# Old contract 2: inference_logits == forward for the same rows
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [1, 7, 400])
def test_inference_kernel_returns_the_forward_bits(n):
    rng = np.random.default_rng(5)
    model = UISClassifier(ku=9, input_width=11, embed_size=16, hidden_size=8,
                          use_conversion=True, seed=5)
    feature = (rng.random(9) < 0.4).astype(np.float64)
    rows = rng.normal(size=(n, 11))
    conversion = rng.normal(size=(16, 48)) * 0.3
    logits = inference_logits(model, feature, rows, conversion=conversion)
    assert np.array_equal(
        logits, model.forward(feature, rows, conversion=conversion).data)


# ----------------------------------------------------------------------
# New contract: the block form vs the combined row
# ----------------------------------------------------------------------
@pytest.mark.parametrize("lead, n", SHAPES)
def test_op_matches_the_oracle_within_tolerance(lead, n):
    *arrays, weights = operands(lead, n, ne=5, seed=6)
    out, grads = gradients(convert_embeddings, arrays, weights)
    out_o, grads_o = gradients(oracle.concat_conversion, arrays, weights)
    assert_close(out, out_o, 1e-10, "output")
    for name, grad, grad_o in zip(NAMES, grads, grads_o):
        assert grad.shape == grad_o.shape, name
        assert_close(grad, grad_o, 1e-10, name)
    assert grads[2].flags["C_CONTIGUOUS"]


def task_batch(k, n=12, ku=8, width=7, ne=6, hidden=5, seed=0):
    rng = np.random.default_rng(seed)
    models = [UISClassifier(ku=ku, input_width=width, embed_size=ne,
                            hidden_size=hidden, use_conversion=True,
                            seed=100 * seed + i) for i in range(k)]
    features = (rng.random((k, ku)) < 0.4).astype(np.float64)
    xs = rng.normal(size=(k, n, width))
    ys = (rng.random((k, n)) < 0.4).astype(np.float64)
    ys[:, 0], ys[:, 1] = 1.0, 0.0   # both classes in every task
    conversions = rng.normal(size=(k, ne, 3 * ne)) * 0.3
    return models, features, xs, ys, conversions


def test_classifier_logits_and_parameter_gradients_match_the_oracle():
    models, features, xs, ys, conversions = task_batch(1, seed=7)
    model, weights = models[0], np.linspace(-1.0, 1.0, xs.shape[1])
    results = []
    for forward in (lambda *a: model.forward(*a[:2], conversion=a[2]),
                    lambda *a: oracle.forward(model, *a)):
        model.zero_grad()
        conversion = Tensor(conversions[0].copy(), requires_grad=True)
        logits = forward(features[0], xs[0], conversion)
        (logits * weights).sum().backward()
        results.append((logits.data, conversion.grad,
                        {name: param.grad
                         for name, param in model.named_parameters()}))
    (logits, grad_m, grads), (logits_o, grad_m_o, grads_o) = results
    assert_close(logits, logits_o, 1e-10, "logits")
    assert_close(grad_m, grad_m_o, 1e-10, "conversion")
    for name, grad_o in grads_o.items():
        assert_close(grads[name], grad_o, 1e-10, name)


@pytest.mark.parametrize("optimizer_kind, lr", [("adam", 0.01), ("sgd", 0.1)])
def test_thirty_adapt_steps_stay_within_1e9_of_the_oracle(optimizer_kind, lr):
    """Every block and M_cp trained thirty steps through the stacked
    graph (``_graph_oracle.local_adapt``), its conversion by blocks
    against the combined row."""
    models, features, xs, ys, conversions = task_batch(4, seed=8)

    def adapt(forward):
        batched = BatchedUISClassifier(models)
        conversion, losses = graph.local_adapt(
            batched, features, xs, ys, conversions, steps=30, lr=lr,
            optimizer_kind=optimizer_kind, forward=forward)
        return batched, conversion, losses

    batched, conversion, losses = adapt(graph.forward)
    batched_o, conversion_o, losses_o = adapt(oracle.batched_forward)

    assert not np.array_equal(conversion.data, conversions)   # it trained
    assert_close(conversion.data, conversion_o.data, 1e-9, "conversion")
    assert_close(losses, losses_o, 1e-9, "losses")
    trained_o = dict(batched_o.named_parameters())
    for name, param in batched.named_parameters():
        assert_close(param.data, trained_o[name].data, 1e-9, name)


@settings(deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 64),
       st.sampled_from([1, 2, 5, 16, 33]), st.floats(0.05, 2.0))
def test_answers_equal_the_oracles_away_from_the_boundary(seed, n, ne,
                                                          spread):
    """Every serving answer is ``sigmoid(logit) >= 0.5`` of the kernel's
    logit: it must be the oracle's wherever the oracle's logit is not
    within 1e-6 of zero (the two differ by ~1e-15)."""
    rng = np.random.default_rng(seed)
    model = UISClassifier(ku=6, input_width=5, embed_size=ne, hidden_size=7,
                          use_conversion=True, seed=seed)
    feature = (rng.random(6) < 0.5).astype(np.float64)
    rows = rng.normal(size=(n, 5)) * spread
    conversion = rng.normal(size=(ne, 3 * ne)) * spread
    logits = inference_logits(model, feature, rows, conversion=conversion)
    with no_grad():
        logits_o = oracle.forward(model, feature, rows, conversion).data
    assert_close(logits, logits_o, 1e-10, "logits")
    decided = np.abs(logits_o) > 1e-6
    answers = model.predict(feature, rows, conversion=conversion)
    answers_o = (stable_sigmoid(logits_o) >= 0.5).astype(np.int64)
    assert np.array_equal(answers[decided], answers_o[decided])
