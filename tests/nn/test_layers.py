"""Tests for the Parameter holder, Module bookkeeping, Linear/MLP layers
and state dicts.  Modules compute nothing; where a case needs a layer's
output it applies the oracle's forward (``_autograd_oracle.apply``)."""

import numpy as np
import pytest

from _autograd_oracle import Sigmoid, apply
from repro.core.meta_learner import UISClassifier
from repro.nn import MLP, Linear, Parameter, ReLU, Sequential


class TestParameter:
    def test_wraps_a_float64_array_without_a_copy(self):
        array = np.arange(6, dtype=np.float64).reshape(2, 3)
        param = Parameter(array)
        assert param.data is array
        assert param.shape == (2, 3) and param.size == 6

    @pytest.mark.parametrize("data", [np.arange(3), [1, 2, 3],
                                      np.full(3, 0.1, dtype=np.float32)])
    def test_int_and_float32_become_float64(self, data):
        param = Parameter(data)
        assert param.data.dtype == np.float64
        assert np.array_equal(param.data, np.asarray(data).astype(np.float64))

    def test_grad_starts_as_none(self):
        assert Parameter(np.zeros(2)).grad is None

    def test_copy_keeps_identity_and_checks_shape(self):
        param = Parameter(np.zeros(3))
        assert param.copy_(np.ones(3)) is param
        assert np.array_equal(param.data, np.ones(3))
        data = param.data
        with pytest.raises(ValueError):
            param.copy_(np.ones(4))
        assert param.data is data

    def test_state_dict_is_a_copy(self):
        param = Parameter(np.ones(3))
        state = param.state_dict()
        state[:] = 5.0
        assert np.array_equal(param.data, np.ones(3))
        assert not np.shares_memory(state, param.data)

    def test_module_clone_shares_no_array(self):
        model = UISClassifier(ku=4, input_width=3, embed_size=5,
                              hidden_size=2, use_conversion=True, seed=0)
        twin = model.clone()
        for (name, ours), (_, source) in zip(twin.named_parameters(),
                                             model.named_parameters()):
            assert ours is not source, name
            assert np.array_equal(ours.data, source.data), name
            assert not np.shares_memory(ours.data, source.data), name
            assert ours.grad is None, name

    def test_is_a_slotted_holder(self):
        """Only ``data`` and ``grad``: the graph's ``requires_grad`` flag
        (and any other attribute) has nowhere to go."""
        param = Parameter(np.zeros(2))
        assert not hasattr(param, "__dict__")
        with pytest.raises(AttributeError):
            param.requires_grad = True

    def test_zero_grad_drops_the_gradient(self):
        param = Parameter(np.zeros(2))
        param.grad = np.ones(2)
        param.zero_grad()
        assert param.grad is None

    def test_copy_converts_and_decouples_from_its_source(self):
        param = Parameter(np.zeros(3))
        source = np.arange(3)
        param.copy_(source)
        source[:] = 7
        assert param.data.dtype == np.float64
        assert np.array_equal(param.data, [0.0, 1.0, 2.0])

    def test_load_state_dict_keeps_identity(self):
        param = Parameter(np.zeros(3))
        assert param.load_state_dict(np.full(3, 2.0)) is param
        assert np.array_equal(param.data, np.full(3, 2.0))
        with pytest.raises(ValueError):
            param.load_state_dict(np.zeros(2))


class TestModuleBookkeeping:
    def test_named_parameters_nested(self):
        mlp = MLP([3, 4, 2], rng=np.random.default_rng(0))
        names = [n for n, _ in mlp.named_parameters()]
        assert "m0.weight" in names and "m0.bias" in names
        assert "m2.weight" in names and "m2.bias" in names

    def test_num_parameters(self):
        linear = Linear(3, 4, rng=np.random.default_rng(0))
        assert linear.num_parameters() == 3 * 4 + 4

    def test_zero_grad_clears_all(self):
        mlp = MLP([2, 3, 1], rng=np.random.default_rng(0))
        out = apply(mlp, np.ones((5, 2))).sum()
        out.backward()
        assert any(p.grad is not None for p in mlp.parameters())
        mlp.zero_grad()
        assert all(p.grad is None for p in mlp.parameters())


class TestStateDict:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        a = MLP([3, 4, 2], rng=rng)
        b = MLP([3, 4, 2], rng=np.random.default_rng(2))
        b.load_state_dict(a.state_dict())
        x = np.ones((2, 3))
        assert np.allclose(apply(a, x).data, apply(b, x).data)

    def test_state_dict_is_deep_copy(self):
        mlp = MLP([2, 2], rng=np.random.default_rng(0))
        state = mlp.state_dict()
        state["m0.weight"][:] = 99.0
        assert not np.allclose(mlp.m0.weight.data, 99.0)

    def test_mismatched_state_raises(self):
        mlp = MLP([2, 2], rng=np.random.default_rng(0))
        with pytest.raises(KeyError):
            mlp.load_state_dict({"nope": np.zeros(1)})

    def test_flat_parameters_round_trip(self):
        mlp = MLP([3, 5, 2], rng=np.random.default_rng(0))
        flat = mlp.flat_parameters()
        assert flat.size == mlp.num_parameters()
        mlp.load_flat_parameters(flat * 2.0)
        assert np.allclose(mlp.flat_parameters(), flat * 2.0)

    def test_flat_parameters_size_check(self):
        mlp = MLP([2, 2], rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            mlp.load_flat_parameters(np.zeros(3))


class TestLinear:
    def test_output_shape_and_affine(self):
        rng = np.random.default_rng(0)
        layer = Linear(3, 4, rng=rng)
        x = rng.normal(size=(5, 3))
        out = apply(layer, x)
        assert out.shape == (5, 4)
        assert np.allclose(out.data, x @ layer.weight.data + layer.bias.data)

    def test_no_bias(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0), bias=False)
        assert layer.bias is None
        names = [n for n, _ in layer.named_parameters()]
        assert names == ["weight"]

    def test_repr(self):
        assert repr(Linear(2, 3, rng=np.random.default_rng(0))) \
            == "Linear(2, 3)"


class TestSequentialAndMLP:
    def test_sequential_applies_in_order(self):
        rng = np.random.default_rng(0)
        seq = Sequential(Linear(2, 2, rng=rng), ReLU())
        x = np.array([[-10.0, -10.0]])
        out = apply(seq, x)
        assert np.all(out.data >= 0)

    def test_sequential_iterable_and_repr(self):
        seq = Sequential(ReLU(), Sigmoid())
        mods = list(seq)
        assert len(mods) == 2
        assert "ReLU()" in repr(seq) and "Sigmoid()" in repr(seq)

    def test_mlp_needs_two_sizes(self):
        with pytest.raises(ValueError):
            MLP([3])

    def test_mlp_hidden_relu_final_linear(self):
        mlp = MLP([2, 4, 1], rng=np.random.default_rng(0))
        # Negative-going output is possible => final layer is not ReLU'd.
        out = apply(mlp, np.random.default_rng(1).normal(size=(50, 2)))
        assert (out.data < 0).any() or (out.data > 0).any()

    def test_mlp_final_activation(self):
        mlp = MLP([2, 3, 2], rng=np.random.default_rng(0),
                  final_activation=Sigmoid())
        out = apply(mlp, np.random.default_rng(1).normal(size=(10, 2)) * 10)
        assert np.all(out.data >= 0) and np.all(out.data <= 1)

    def test_mlp_sizes_recorded(self):
        assert MLP([4, 3, 2], rng=np.random.default_rng(0)).sizes == (4, 3, 2)
