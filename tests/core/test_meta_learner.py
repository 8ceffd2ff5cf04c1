"""Tests for the UIS classifier architecture."""

import numpy as np
import pytest

from repro.core.meta_learner import UISClassifier
from repro.nn import no_grad


def make_model(use_conversion=False):
    return UISClassifier(ku=10, input_width=6, embed_size=8, hidden_size=5,
                         use_conversion=use_conversion, seed=0)


def inputs(n=7, seed=1):
    rng = np.random.default_rng(seed)
    v_r = rng.integers(0, 2, size=10).astype(float)
    x = rng.normal(size=(n, 6))
    return v_r, x


class TestForward:
    def test_logit_shape(self):
        model = make_model()
        v_r, x = inputs()
        assert model.forward(v_r, x).shape == (7,)

    def test_single_row_input(self):
        model = make_model()
        v_r, x = inputs()
        assert model.forward(v_r, x[0]).shape == (1,)

    def test_conversion_required_when_enabled(self):
        model = make_model(use_conversion=True)
        v_r, x = inputs()
        with pytest.raises(ValueError):
            model.forward(v_r, x)
        conv = np.random.default_rng(0).normal(size=(8, 24)) * 0.1
        assert model.forward(v_r, x, conversion=conv).shape == (7,)

    def test_conversion_rejected_when_disabled(self):
        model = make_model(use_conversion=False)
        v_r, x = inputs()
        with pytest.raises(ValueError):
            model.forward(v_r, x, conversion=np.zeros((8, 24)))

    def test_feature_vector_changes_output(self):
        model = make_model()
        _, x = inputs()
        out_a = model.forward(np.zeros(10), x).data
        out_b = model.forward(np.ones(10), x).data
        assert not np.allclose(out_a, out_b)


class TestPredict:
    def test_proba_in_unit_interval(self):
        model = make_model()
        v_r, x = inputs()
        proba = model.predict_proba(v_r, x)
        assert (proba >= 0).all() and (proba <= 1).all()

    def test_predict_threshold(self):
        model = make_model()
        v_r, x = inputs()
        proba = model.predict_proba(v_r, x)
        assert np.array_equal(model.predict(v_r, x),
                              (proba >= 0.5).astype(int))
        assert model.predict(v_r, x, threshold=1.1).sum() == 0

    def test_predict_builds_no_graph(self):
        model = make_model()
        v_r, x = inputs()
        model.predict(v_r, x)
        assert all(p.grad is None for p in model.parameters())


class TestCloneAndThetaR:
    def test_clone_is_equal_but_independent(self):
        model = make_model()
        twin = model.clone()
        v_r, x = inputs()
        assert np.allclose(model.predict_proba(v_r, x),
                           twin.predict_proba(v_r, x))
        twin.uis_block.m0.weight.data[:] = 0.0
        assert not np.allclose(model.uis_block.m0.weight.data, 0.0)

    @pytest.mark.parametrize("use_conversion", [False, True])
    def test_clone_equals_rebuild_and_load_bit_for_bit(self, use_conversion):
        """``clone`` draws no initialization, yet its twin is the one the
        old rebuild-then-``load_state_dict`` produced: same tree, same
        bits, nothing shared, and no gradients carried over."""
        model = make_model(use_conversion=use_conversion)
        conversion = np.ones((8, 24)) / 24 if use_conversion else None
        v_r, x = inputs()
        model.forward(v_r, x, conversion=conversion).sum().backward()
        rebuilt = UISClassifier.from_config(model.config, seed=3)
        rebuilt.load_state_dict(model.state_dict())

        twin = model.clone(seed=3)
        assert type(twin) is UISClassifier
        assert twin.config == model.config and twin.config is not model.config
        assert [n for n, _ in twin.named_parameters()] \
            == [n for n, _ in rebuilt.named_parameters()]
        for (_, ours), (_, theirs), (_, source) in zip(
                twin.named_parameters(), rebuilt.named_parameters(),
                model.named_parameters()):
            assert np.array_equal(ours.data, theirs.data)
            assert ours.data.flags["C_CONTIGUOUS"] and ours.grad is None
            assert not np.shares_memory(ours.data, source.data)
        assert np.array_equal(
            twin.forward(v_r, x, conversion=conversion).data,
            rebuilt.forward(v_r, x, conversion=conversion).data)
        assert np.array_equal(twin.get_theta_r_flat(),
                              rebuilt.get_theta_r_flat())

    def test_clone_draws_no_random_numbers(self, monkeypatch):
        model = make_model()

        def no_rng(*args, **kwargs):
            raise AssertionError("clone must not initialize")
        monkeypatch.setattr(np.random, "default_rng", no_rng)
        assert model.clone(seed=5).theta_r_size == model.theta_r_size

    def test_theta_r_flat_round_trip(self):
        model = make_model()
        flat = model.get_theta_r_flat()
        assert flat.size == model.theta_r_size
        model.set_theta_r_flat(flat * 2)
        assert np.allclose(model.get_theta_r_flat(), flat * 2)

    def test_theta_r_covers_only_uis_block(self):
        model = make_model()
        assert model.theta_r_size == model.uis_block.num_parameters()

    def test_from_config(self):
        model = make_model(use_conversion=True)
        rebuilt = UISClassifier.from_config(model.config, seed=0)
        assert rebuilt.config == model.config


class TestArchitecture:
    def test_conversion_variant_has_smaller_clf_input(self):
        plain = make_model(use_conversion=False)
        mem = make_model(use_conversion=True)
        # Plain takes the 3Ne concat; memory variant takes the Ne conversion.
        assert plain.clf_block.sizes[0] == 3 * 8
        assert mem.clf_block.sizes[0] == 8

    def test_embeddings_are_relu_nonnegative(self):
        model = make_model()
        v_r, x = inputs()
        with no_grad():
            emb = model.tuple_block(x)
        assert (emb.data >= 0).all()
