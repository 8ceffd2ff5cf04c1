"""Aliasing at the boundaries of the stacked adapt.

The optimizer updates parameters in place, so anything that hands an
array to a trained :class:`~repro.nn.tensor.Parameter` must hand it a
copy — a caller's buffers are never trained: a stack trains, the models
it was built from and the retrieval it was fed do not.
"""

import threading

import numpy as np
import pytest

import _graph_oracle as graph
from repro.core.meta_learner import UISClassifier
from repro.core.meta_training import AdaptedClassifier
from repro.nn import (BatchedUISClassifier, Parameter, fused_local_adapt,
                      no_grad)
from repro.nn.batching import block_leaves, retrieval_constants
from repro.nn.tensor import is_grad_enabled

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
    batched = BatchedUISClassifier(models)
    retrieved = retrieval_constants(block_leaves(batched.uis_block),
                                    features.reshape(K, 1, KU), conversions)
    kept_retrieval = [part.copy() for part in retrieved]

    fused_local_adapt(batched, features, xs, ys, steps=3, lr=0.05,
                      optimizer_kind=optimizer_kind, retrieved=retrieved)

    assert np.array_equal(conversions, kept_conversions)
    for part, kept in zip(retrieved, kept_retrieval):
        assert np.array_equal(part, kept)
    for model, kept in zip(models, kept_models):
        for name, array in model.state_dict().items():
            assert np.array_equal(array, kept[name]), name
    for i, model in enumerate(models):   # ... and the stacks did train
        assert not np.array_equal(batched.tuple_block.m0.weight.data[i],
                                  model.tuple_block.m0.weight.data)


def test_prebuilt_stack_is_trained_in_place_and_its_sources_are_not():
    """The caller builds the stack: it trains (it is how the offline
    engine and serving read the result) — without a retrieval every
    block of it — and its source models never do."""
    models, features, xs, ys, _ = task_batch(2, use_conversion=False)
    kept_models = [model.state_dict() for model in models]
    prebuilt = BatchedUISClassifier(models)
    fused_local_adapt(prebuilt, features, xs, ys, steps=2, lr=0.01)
    for model, kept in zip(models, kept_models):
        for name, array in model.state_dict().items():
            assert np.array_equal(array, kept[name]), name
    assert not np.array_equal(prebuilt.uis_block.m0.weight.data, np.stack(
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
    batched = BatchedUISClassifier(models)
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
        graph.stacked_loss_backward(batched, conversion, features, xs, ys,
                                    None)
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
    for param in list(batched.parameters()) + [conversion]:
        assert param.grad is not None and np.any(param.grad != 0)
