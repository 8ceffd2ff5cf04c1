"""Round-trip property tests: ``load(save(x))`` is the identity.

Three layers of the guarantee:

* the raw checkpoint codec reproduces arbitrary nested states with exact
  arrays, dtypes and scalar types across ~50 fuzzed cases;
* every ``nn.Module`` subclass round-trips its ``state_dict`` through a
  checkpoint file bit-for-bit, and the restored module computes an
  identical forward pass (the oracle's, ``tests/nn/_autograd_oracle.py``,
  for a bare layer);
* the optimizers (Adam step counts + moment buffers, SGD velocity)
  resume mid-training bit-identically to never having been serialized.
"""

import os
import sys

import numpy as np
import pytest

from repro import nn
from repro.core import UISClassifier
from repro.persist import load_checkpoint, save_checkpoint

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "nn"))
from _autograd_oracle import (Sigmoid, apply,  # noqa: E402
                              binary_cross_entropy_with_logits, no_grad)

DTYPES = [np.float64, np.float32, np.int64, np.int32, np.int8, np.uint8,
          np.bool_]
SHAPES = [(), (1,), (7,), (3, 4), (2, 3, 5), (1, 1, 2, 2), (0, 4)]


def _random_array(rng):
    dtype = DTYPES[rng.integers(len(DTYPES))]
    shape = SHAPES[rng.integers(len(SHAPES))]
    if dtype == np.bool_:
        return rng.integers(0, 2, size=shape).astype(bool)
    if np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        return rng.integers(info.min, int(info.max) + 1,
                            size=shape).astype(dtype)
    return rng.normal(size=shape).astype(dtype)


def _random_tree(rng, depth=0):
    roll = rng.random()
    if depth >= 3 or roll < 0.45:
        leaf = rng.integers(6)
        return [_random_array(rng), int(rng.integers(-1000, 1000)),
                float(rng.normal()), bool(rng.integers(2)),
                "s{}".format(rng.integers(100)), None][leaf]
    if roll < 0.65:
        return {"k{}".format(i): _random_tree(rng, depth + 1)
                for i in range(rng.integers(1, 4))}
    if roll < 0.85:
        return [_random_tree(rng, depth + 1)
                for _ in range(rng.integers(0, 4))]
    return tuple(_random_tree(rng, depth + 1)
                 for _ in range(rng.integers(1, 3)))


def _assert_identical(a, b):
    assert type(a) is type(b), (type(a), type(b))
    if isinstance(a, dict):
        assert sorted(a) == sorted(b)
        for key in a:
            _assert_identical(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_identical(x, y)
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert np.array_equal(a, b)
    else:
        assert a == b or (isinstance(a, float) and np.isnan(a)
                          and np.isnan(b))


@pytest.mark.parametrize("seed", range(50))
def test_fuzzed_tree_roundtrip(tmp_path, seed):
    """~50 randomized nested states: arrays, dtypes and scalars survive."""
    rng = np.random.default_rng(seed)
    state = {"tree": _random_tree(rng), "arrays":
             [_random_array(rng) for _ in range(rng.integers(1, 5))]}
    save_checkpoint(tmp_path / "ck", "fuzz", state)
    loaded, info = load_checkpoint(tmp_path / "ck", expected_kind="fuzz")
    assert info["kind"] == "fuzz"
    _assert_identical(state, loaded)


@pytest.mark.smoke
def test_scalar_type_preservation(tmp_path):
    """ints stay ints, floats floats, bools bools, None None."""
    state = {"i": 3, "f": 2.5, "b": True, "n": None, "s": "x",
             "t": (1, "two", None), "nested": {"inf": float("inf")}}
    save_checkpoint(tmp_path / "ck", "scalars", state)
    loaded, _ = load_checkpoint(tmp_path / "ck")
    _assert_identical(state, loaded)


# ----------------------------------------------------------------------
# nn.Module subclasses
# ----------------------------------------------------------------------
def _module_cases(rng):
    return {
        "linear": nn.Linear(5, 3, rng=rng),
        "linear_nobias": nn.Linear(4, 2, rng=rng, bias=False),
        "sequential": nn.Sequential(nn.Linear(6, 4, rng=rng), nn.ReLU(),
                                    nn.Linear(4, 1, rng=rng)),
        "mlp": nn.MLP([5, 8, 3], rng=rng, final_activation=Sigmoid()),
        "uis_classifier": UISClassifier(ku=6, input_width=5, embed_size=4,
                                        hidden_size=3, seed=11),
    }


def _fresh_twin(name, rng):
    return _module_cases(rng)[name]


@pytest.mark.parametrize("name", sorted(_module_cases(
    np.random.default_rng(0))))
def test_module_state_roundtrip(tmp_path, name):
    rng = np.random.default_rng(3)
    module = _module_cases(rng)[name]
    save_checkpoint(tmp_path / "ck", "module", module.state_dict())
    loaded, _ = load_checkpoint(tmp_path / "ck", expected_kind="module")
    twin = _fresh_twin(name, np.random.default_rng(99))
    twin.load_state_dict(loaded)
    for (key, param), (tkey, tparam) in zip(module.named_parameters(),
                                            twin.named_parameters()):
        assert key == tkey
        assert param.data.dtype == tparam.data.dtype
        assert np.array_equal(param.data, tparam.data)
    # Forward parity on a random input of the right shape.
    x_rng = np.random.default_rng(5)
    if name == "uis_classifier":
        v_r = x_rng.normal(size=6)
        x = x_rng.normal(size=(7, 5))
        assert np.array_equal(module.predict_proba(v_r, x),
                              twin.predict_proba(v_r, x))
    else:
        width = {"linear": 5, "linear_nobias": 4, "sequential": 6,
                 "mlp": 5}[name]
        x = x_rng.normal(size=(7, width))
        with no_grad():
            assert np.array_equal(apply(module, x).numpy(),
                                  apply(twin, x).numpy())


def test_parameter_state_roundtrip(tmp_path):
    param = nn.Parameter(np.random.default_rng(0).normal(size=(3, 2)))
    save_checkpoint(tmp_path / "ck", "param", {"p": param.state_dict()})
    loaded, _ = load_checkpoint(tmp_path / "ck")
    twin = nn.Parameter(np.zeros((3, 2)))
    twin.load_state_dict(loaded["p"])
    assert np.array_equal(param.data, twin.data)
    assert twin.grad is None


def test_module_fuzzed_mlp_roundtrip(tmp_path):
    """Fuzz MLP widths/depths: every layout survives the file format."""
    rng = np.random.default_rng(7)
    for case in range(10):
        sizes = [int(rng.integers(1, 9))
                 for _ in range(int(rng.integers(2, 5)))]
        module = nn.MLP(sizes, rng=rng)
        path = tmp_path / "ck{}".format(case)
        save_checkpoint(path, "module", module.state_dict())
        loaded, _ = load_checkpoint(path)
        twin = nn.MLP(sizes, rng=np.random.default_rng(1234))
        twin.load_state_dict(loaded)
        x = rng.normal(size=(4, sizes[0]))
        with no_grad():
            assert np.array_equal(apply(module, x).numpy(),
                                  apply(twin, x).numpy())


# ----------------------------------------------------------------------
# Optimizers: resume == never interrupted
# ----------------------------------------------------------------------
def _train_steps(model, optimizer, x, y, steps):
    for _ in range(steps):
        optimizer.zero_grad()
        loss = binary_cross_entropy_with_logits(
            apply(model, x).reshape(-1), y)
        loss.backward()
        optimizer.step()


@pytest.mark.parametrize("kind", ["adam", "sgd"])
def test_optimizer_resume_bit_identical(tmp_path, kind):
    rng = np.random.default_rng(13)
    x = rng.normal(size=(16, 5))
    y = rng.integers(0, 2, size=16).astype(np.float64)

    def build():
        model = nn.MLP([5, 6, 1], rng=np.random.default_rng(3))
        optimizer = nn.Adam(model.parameters(), lr=0.05) if kind == "adam" \
            else nn.SGD(model.parameters(), lr=0.05, momentum=0.9)
        return model, optimizer

    # Uninterrupted: 3 + 4 steps straight through.
    model_a, opt_a = build()
    _train_steps(model_a, opt_a, x, y, 3)
    save_checkpoint(tmp_path / "ck", "train-state",
                    {"model": model_a.state_dict(),
                     "optimizer": opt_a.state_dict()})
    _train_steps(model_a, opt_a, x, y, 4)

    # Interrupted: restore the step-3 checkpoint into fresh objects.
    model_b, opt_b = build()
    state, _ = load_checkpoint(tmp_path / "ck", expected_kind="train-state")
    model_b.load_state_dict(state["model"])
    opt_b.load_state_dict(state["optimizer"])
    if kind == "adam":
        assert opt_b._step == 3
        for m_a, m_b in zip(opt_a._m, opt_b._m):  # moments at step 3 differ
            assert m_a.shape == m_b.shape         # from step 7's — shapes do
    _train_steps(model_b, opt_b, x, y, 4)

    for (name, p_a), (_, p_b) in zip(model_a.named_parameters(),
                                     model_b.named_parameters()):
        assert np.array_equal(p_a.data, p_b.data), name
    if kind == "adam":
        assert opt_a._step == opt_b._step == 7
        for m_a, m_b in zip(opt_a._m, opt_b._m):
            assert np.array_equal(m_a, m_b)
        for v_a, v_b in zip(opt_a._v, opt_b._v):
            assert np.array_equal(v_a, v_b)


def test_optimizer_state_validation():
    model = nn.MLP([3, 2], rng=np.random.default_rng(0))
    adam = nn.Adam(model.parameters(), lr=0.01)
    sgd = nn.SGD(model.parameters(), lr=0.01)
    with pytest.raises(ValueError, match="optimizer state is for"):
        sgd.load_state_dict(adam.state_dict())
    bad = adam.state_dict()
    bad["m"] = bad["m"][:-1]
    with pytest.raises(ValueError, match="buffers"):
        adam.load_state_dict(bad)


# ----------------------------------------------------------------------
# A meta-learner through the lte-pretrained artifact
# ----------------------------------------------------------------------
def test_meta_trainer_save_load(tmp_path, persist_lte, persist_subspaces,
                                persist_table, persist_config):
    from repro.core import LTE
    from repro.persist import load_pretrained, save_pretrained
    trainer = persist_lte.states[persist_subspaces[0]].trainer
    save_pretrained(tmp_path / "lte", persist_lte, meta={"note": "unit test"})
    prepared = LTE(persist_config).fit_offline(
        persist_table, subspaces=persist_subspaces, train=False)
    load_pretrained(tmp_path / "lte", prepared)
    restored = prepared.states[persist_subspaces[0]].trainer
    assert restored is not trainer
    assert restored.use_memories == trainer.use_memories
    assert restored.history == trainer.history
    for (name, p), (_, q) in zip(trainer.model.named_parameters(),
                                 restored.model.named_parameters()):
        assert np.array_equal(p.data, q.data), name
    if trainer.memories is not None:
        for key, value in trainer.memories.state_dict().items():
            assert np.array_equal(value,
                                  restored.memories.state_dict()[key])
    # A restored trainer adapts bit-identically.
    rng = np.random.default_rng(2)
    v_r = rng.normal(size=trainer.model.ku)
    sx = rng.normal(size=(8, trainer.model.input_width))
    sy = rng.integers(0, 2, size=8).astype(np.float64)
    a1, _ = trainer.adapt(v_r, sx, sy)
    a2, _ = restored.adapt(v_r, sx, sy)
    qx = rng.normal(size=(20, trainer.model.input_width))
    assert np.array_equal(a1.predict_proba(qx), a2.predict_proba(qx))
