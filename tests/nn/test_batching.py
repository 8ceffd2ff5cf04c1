"""Aliasing at the boundaries of the stacked adapt.

The optimizer updates parameters in place, so anything that hands an
array to a trained :class:`~repro.nn.Parameter` must hand it a
copy — a caller's buffers are never trained: a stack trains, the models
it was built from and the retrieval it was fed do not.
"""

import threading

import numpy as np
import pytest

import _graph_oracle as graph
from _autograd_oracle import is_grad_enabled, no_grad
from repro.core.meta_learner import UISClassifier
from repro.core.meta_training import AdaptedClassifier
from repro.nn import (MLP, Linear, Module, Parameter, ReLU, Sequential,
                      fused_local_adapt)
from repro.nn.batching import (block_leaves, flat_leaves,
                               retrieval_constants, stable_sigmoid,
                               stack_arrays, stack_leaves, stack_parameters)

K, N, KU, WIDTH, NE = 3, 6, 6, 5, 4


def task_batch(seed=0, use_conversion=True):
    rng = np.random.default_rng(seed)
    models = [UISClassifier(ku=KU, input_width=WIDTH, embed_size=NE,
                            hidden_size=3, use_conversion=use_conversion,
                            seed=i)
              for i in range(K)]
    features = rng.normal(size=(K, KU))
    xs = rng.normal(size=(K, N, WIDTH))
    ys = (rng.random(size=(K, N)) < 0.4).astype(np.float64)
    ys[:, 0], ys[:, 1] = 1.0, 0.0   # both classes in every task
    conversions = rng.normal(size=(K, NE, 3 * NE)) * 0.1
    return models, features, xs, ys, conversions


@pytest.mark.parametrize("optimizer_kind", ["adam", "sgd"])
def test_adapt_trains_neither_the_callers_retrieval_nor_its_models(
        optimizer_kind):
    models, features, xs, ys, conversions = task_batch()
    kept_conversions = conversions.copy()
    kept_models = [model.state_dict() for model in models]
    batched = graph.stack_models(models)
    retrieved = retrieval_constants(stack_arrays(batched["uis_block"]),
                                    features.reshape(K, 1, KU), conversions)
    kept_retrieval = [part.copy() for part in retrieved]

    fused_local_adapt(models[0].config, batched, features, xs, ys, steps=3,
                      lr=0.05, optimizer_kind=optimizer_kind,
                      retrieved=retrieved)

    assert np.array_equal(conversions, kept_conversions)
    for part, kept in zip(retrieved, kept_retrieval):
        assert np.array_equal(part, kept)
    for model, kept in zip(models, kept_models):
        for name, array in model.state_dict().items():
            assert np.array_equal(array, kept[name]), name
    for i, model in enumerate(models):   # ... and the stacks did train
        assert not np.array_equal(batched["tuple_block"][0][0].data[i],
                                  model.tuple_block.m0.weight.data)


def test_prebuilt_stack_is_trained_in_place_and_its_sources_are_not():
    """The caller builds the stack: it trains (it is how the offline
    engine and serving read the result) — without a retrieval every
    block of it — and its source models never do."""
    models, features, xs, ys, _ = task_batch(2, use_conversion=False)
    kept_models = [model.state_dict() for model in models]
    prebuilt = graph.stack_models(models)
    fused_local_adapt(models[0].config, prebuilt, features, xs, ys, steps=2,
                      lr=0.01)
    for model, kept in zip(models, kept_models):
        for name, array in model.state_dict().items():
            assert np.array_equal(array, kept[name]), name
    assert not np.array_equal(prebuilt["uis_block"][0][0].data, np.stack(
        [model.uis_block.m0.weight.data for model in models]))


def test_restored_adapted_classifier_does_not_alias_its_state_dict():
    models, features, _, _, _ = task_batch(3)
    blocks = {name: block_leaves(getattr(models[0], name))
              for name in ("uis_block", "tuple_block", "clf_block")}
    state = AdaptedClassifier(dict(models[0].config), features[0],
                              blocks).state_dict()
    restored = AdaptedClassifier.from_state_dict(state)
    for name, leaves in blocks.items():
        for leaf, saved, got in zip(leaves, state[name],
                                    restored.blocks[name]):
            for array, kept, copy in zip(leaf or (), saved or (), got or ()):
                assert np.array_equal(copy, array)
                assert not np.shares_memory(copy, kept)
                assert not np.shares_memory(copy, array)


def test_no_grad_in_one_thread_leaves_a_training_thread_its_graph():
    """``no_grad()`` is per thread: while thread A sits inside it, thread
    B's forward (the stacked graph of ``_graph_oracle.py``) still records
    its graph, so ``backward`` leaves a gradient on every parameter."""
    models, features, xs, ys, conversions = task_batch(2)
    batched = graph.stack_models(models)
    conversion = Parameter(conversions.copy())
    parked, release = threading.Event(), threading.Event()
    seen = {}

    def evaluate():
        with no_grad():
            with no_grad():     # nested exits restore this thread only
                pass
            seen["inside"] = is_grad_enabled()
            parked.set()
            release.wait(timeout=30)
        seen["after"] = is_grad_enabled()

    def train():
        parked.wait(timeout=30)
        enabled = [is_grad_enabled()]
        graph.stacked_loss_backward(models[0].config, batched, conversion,
                                    features, xs, ys, None)
        enabled.append(is_grad_enabled())
        seen["training"] = enabled
        release.set()

    threads = [threading.Thread(target=evaluate),
               threading.Thread(target=train)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert seen == {"inside": False, "after": True,
                    "training": [True, True]}
    assert is_grad_enabled()
    for param in stack_parameters(batched) + [conversion]:
        assert param.grad is not None and np.any(param.grad != 0)


def test_stack_leaves_copies_each_task_into_its_slice():
    models = [MLP([WIDTH, 4, 2], rng=np.random.default_rng(i))
              for i in range(K)]
    per_task = [block_leaves(model) for model in models]
    layers = stack_leaves(per_task)
    assert all(isinstance(param, Parameter)
               for layer in (layers[0], layers[2]) for param in layer)
    assert layers[1] is None
    for i, model in enumerate(models):
        for (weight, bias), source in ((layers[0], model.m0),
                                       (layers[2], model.m2)):
            assert weight.shape == (K,) + source.weight.shape
            assert np.array_equal(weight.data[i], source.weight.data)
            assert np.array_equal(bias.data[i, 0], source.bias.data)
            assert not np.shares_memory(weight.data, source.weight.data)
        kept = stack_arrays(layers, i)
        assert np.array_equal(kept[2][1], block_leaves(model)[2][1])
        assert not np.shares_memory(kept[0][0], layers[0][0].data)


def test_flat_leaves_reads_the_flat_layout_as_views():
    model = MLP([WIDTH, 4, 2], rng=np.random.default_rng(0))
    flat = model.flat_parameters()
    leaves = flat_leaves(model, flat)
    for got, want in zip(leaves, block_leaves(model)):
        if want is None:
            assert got is None
            continue
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
            assert np.shares_memory(g, flat)
    with pytest.raises(ValueError):
        flat_leaves(model, np.zeros(flat.size + 1))


@pytest.mark.parametrize("bad_size", ["short", "long"])
def test_flat_leaves_checks_its_size(bad_size):
    model = MLP([WIDTH, 4, 2], rng=np.random.default_rng(0))
    size = model.num_parameters() + (-1 if bad_size == "short" else 1)
    with pytest.raises(ValueError):
        flat_leaves(model, np.zeros(size))


def test_stacked_flat_leaves_match_per_task_loading():
    """A stack of retrieved theta_R rows read by :func:`flat_leaves` is
    the stack of the models loaded with those rows, bit for bit."""
    models = [MLP([WIDTH, 4, 2], rng=np.random.default_rng(i))
              for i in range(K)]
    flat_stack = np.random.default_rng(9).normal(
        size=(K, models[0].num_parameters()))
    got = stack_leaves([flat_leaves(model, row)
                        for model, row in zip(models, flat_stack)])
    for model, row in zip(models, flat_stack):
        model.load_flat_parameters(row)
    want = stack_leaves([block_leaves(model) for model in models])
    for g, w in zip(stack_parameters({"b": got}, ["b"]),
                    stack_parameters({"b": want}, ["b"])):
        assert np.array_equal(g.data, w.data)
        assert not np.shares_memory(g.data, flat_stack)


@pytest.mark.parametrize("bias", [True, False])
def test_stack_arrays_gives_back_each_tasks_leaves(bias):
    models = [Sequential(Linear(WIDTH, 4, rng=np.random.default_rng(i),
                                bias=bias), ReLU(),
                         Linear(4, 2, rng=np.random.default_rng(K + i),
                                bias=bias))
              for i in range(K)]
    stacked = stack_leaves([block_leaves(model) for model in models])
    assert stack_arrays(stacked)[1] is None
    for i, model in enumerate(models):
        kept = stack_arrays(stacked, i)
        for got, want in zip(kept, block_leaves(model)):
            if want is None:
                assert got is None
                continue
            assert (got[1] is None) == (want[1] is None) == (not bias)
            for g, w in zip(got, want):
                if w is not None:
                    assert np.array_equal(g, w)
                    assert not np.shares_memory(g, stacked[0][0].data)


def test_stack_leaves_rejects_mixed_shapes():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        stack_leaves([block_leaves(Linear(3, 2, rng=rng)),
                      block_leaves(Linear(3, 4, rng=rng))])


def test_stack_leaves_rejects_mixed_bias():
    rng = np.random.default_rng(0)
    for order in (1, -1):
        with pytest.raises(ValueError):
            stack_leaves([block_leaves(Linear(3, 2, rng=rng)),
                          block_leaves(Linear(3, 2, rng=rng, bias=False))
                          ][::order])


@pytest.mark.parametrize("mismatch", ["kind", "depth"])
def test_stack_leaves_rejects_mixed_layers(mismatch):
    rng = np.random.default_rng(0)
    first = Sequential(Linear(3, 3, rng=rng), ReLU())
    second = Sequential(Linear(3, 3, rng=rng), Linear(3, 3, rng=rng)) \
        if mismatch == "kind" else Linear(3, 3, rng=rng)
    with pytest.raises(ValueError):
        stack_leaves([block_leaves(first), block_leaves(second)])


def test_block_leaves_rejects_an_unknown_module():
    with pytest.raises(TypeError):
        block_leaves(Module())


def test_stack_parameters_follow_the_models_parameter_order():
    """Meta-training keys its gradient stacks by zipping a model's
    ``named_parameters()`` with :func:`stack_parameters`: slice k of
    each stacked parameter is model k's parameter of that name."""
    models, *_ = task_batch()
    stack = graph.stack_models(models)
    named = list(models[0].named_parameters())
    stacked = stack_parameters(stack)
    assert len(stacked) == len(named)
    for k, model in enumerate(models):
        for (name, param), stacked_param in zip(model.named_parameters(),
                                                stacked):
            assert np.array_equal(stacked_param.data[k].reshape(param.shape),
                                  param.data), name


def test_a_stack_shares_no_memory_with_its_models():
    """Meta-training stacks phi's own leaves every batch, so no stacked
    weight or bias may be a view of a model's parameter."""
    models, *_ = task_batch()
    for param in stack_parameters(graph.stack_models(models)):
        for model in models:
            for name, source in model.named_parameters():
                assert not np.shares_memory(param.data, source.data), name


class TestStableSigmoid:
    """The interest probability of a logit, on raw arrays."""

    @pytest.mark.parametrize("shape", [(7,), (3, 4), (2, 3, 4)])
    def test_matches_the_logistic_formula(self, shape):
        x = np.random.default_rng(0).normal(size=shape) * 5.0
        out = stable_sigmoid(x)
        assert out.shape == shape and out.dtype == np.float64
        assert np.allclose(out, 1.0 / (1.0 + np.exp(-x)), rtol=1e-14,
                           atol=0.0)

    def test_saturates_without_overflow(self):
        x = np.array([-1000.0, -40.0, 0.0, 40.0, 1000.0])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            out = stable_sigmoid(x)   # exp(-1000) underflows to 0: fine
        assert out[0] == 0.0 and out[-1] == 1.0 and out[2] == 0.5
        assert np.all(np.diff(out) >= 0)

    def test_is_symmetric_about_zero(self):
        x = np.linspace(-20.0, 20.0, 81)
        assert np.allclose(stable_sigmoid(-x), 1.0 - stable_sigmoid(x),
                           rtol=0.0, atol=1e-15)

    def test_empty_input(self):
        out = stable_sigmoid(np.zeros(0))
        assert out.shape == (0,)

    def test_leaves_its_input_unchanged(self):
        x = np.array([-3.0, 0.5, 2.0])
        kept = x.copy()
        out = stable_sigmoid(x)
        assert np.array_equal(x, kept)
        assert not np.shares_memory(out, x)
