"""Aliasing at the boundaries of the stacked adapt.

The optimizer updates parameters in place, so anything that hands an
array to a trained :class:`~repro.nn.tensor.Parameter` must hand it a
copy — a caller's buffers are never trained.
"""

import threading

import numpy as np
import pytest

from repro.core.meta_learner import UISClassifier
from repro.core.meta_training import AdaptedClassifier
from repro.nn import (BatchedUISClassifier, Parameter, fused_local_adapt,
                      no_grad)
from repro.nn.batching import stacked_loss_backward
from repro.nn.tensor import is_grad_enabled

K, N, KU, WIDTH, NE = 3, 6, 6, 5, 4


def task_batch(seed=0):
    rng = np.random.default_rng(seed)
    models = [UISClassifier(ku=KU, input_width=WIDTH, embed_size=NE,
                            hidden_size=3, use_conversion=True, seed=i)
              for i in range(K)]
    features = rng.normal(size=(K, KU))
    xs = rng.normal(size=(K, N, WIDTH))
    ys = (rng.random(size=(K, N)) < 0.4).astype(np.float64)
    ys[:, 0], ys[:, 1] = 1.0, 0.0   # both classes in every task
    conversions = rng.normal(size=(K, NE, 3 * NE)) * 0.1
    return models, features, xs, ys, conversions


@pytest.mark.parametrize("optimizer_kind", ["adam", "sgd"])
def test_adapt_trains_neither_the_callers_conversions_nor_its_models(
        optimizer_kind):
    models, features, xs, ys, conversions = task_batch()
    kept_conversions = conversions.copy()
    kept_models = [model.state_dict() for model in models]

    batched, conversion, _ = fused_local_adapt(
        models, features, xs, ys, conversions=conversions, steps=3,
        lr=0.05, optimizer_kind=optimizer_kind)

    assert not np.shares_memory(conversion.data, conversions)
    assert np.array_equal(conversions, kept_conversions)
    assert not np.array_equal(conversion.data, kept_conversions)
    for model, kept in zip(models, kept_models):
        for name, array in model.state_dict().items():
            assert np.array_equal(array, kept[name]), name
    for i, model in enumerate(models):   # ... and the stacks did train
        assert not np.array_equal(batched.uis_block.m0.weight.data[i],
                                  model.uis_block.m0.weight.data)


def test_stacked_and_listed_conversions_adapt_to_the_same_bits():
    models, features, xs, ys, conversions = task_batch(1)
    _, stacked, _ = fused_local_adapt(models, features, xs, ys, steps=3,
                                      conversions=conversions)
    _, listed, _ = fused_local_adapt(models, features, xs, ys, steps=3,
                                     conversions=list(conversions))
    assert np.array_equal(stacked.data, listed.data)


def test_prebuilt_stack_is_trained_in_place_and_its_sources_are_not():
    """``batched=`` hands over stacks the caller built: those train (it
    is how the offline engine reads the result), their source models
    never do."""
    models, features, xs, ys, conversions = task_batch(2)
    kept_models = [model.state_dict() for model in models]
    prebuilt = BatchedUISClassifier(models)
    batched, _, _ = fused_local_adapt(None, features, xs, ys, steps=2,
                                      conversions=list(conversions),
                                      batched=prebuilt)
    assert batched is prebuilt
    for model, kept in zip(models, kept_models):
        for name, array in model.state_dict().items():
            assert np.array_equal(array, kept[name]), name


def test_restored_adapted_classifier_does_not_alias_its_state_dict():
    models, features, _, _, conversions = task_batch(3)
    state = {"config": dict(models[0].config),
             "model": models[0].state_dict(),
             "feature_vector": features[0], "conversion": conversions[0]}
    restored = AdaptedClassifier.from_state_dict(state)
    assert np.array_equal(restored.conversion.data, conversions[0])
    assert not np.shares_memory(restored.conversion.data, conversions)


def test_no_grad_in_one_thread_leaves_a_training_thread_its_graph():
    """``no_grad()`` is per thread: while thread A sits inside it, thread
    B's forward still records its graph, so ``backward`` leaves a
    gradient on every parameter."""
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
        stacked_loss_backward(batched, conversion, features, xs, ys, None)
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
