"""Tests for the auxiliary IDE modules: convergence estimate, final
retrieval, dynamic maintenance (drift), and persistence."""

import numpy as np
import pytest

from repro.core import LTE, LTEConfig
from repro.core.meta_training import MetaHyperParams
from repro.core.uis import UISMode
from repro.data import Table, make_car, make_sdss
from repro.data.sampling import random_indices
from repro.explore import ConjunctiveOracle


@pytest.fixture(scope="module")
def system():
    from repro.bench import subspace_region
    table = make_sdss(n_rows=3000, seed=61)
    lte = LTE(LTEConfig(budget=20, ku=30, kq=40, n_tasks=10,
                        meta=MetaHyperParams(epochs=1, local_steps=3,
                                             pretrain_epochs=1),
                        basic_steps=15, online_steps=5))
    lte.fit_offline(table)
    subspace = list(lte.states)[0]
    region = subspace_region(lte.states[subspace], UISMode(1, 12), seed=4)
    oracle = ConjunctiveOracle({subspace: region})
    return lte, table, subspace, oracle


def labelled_session(lte, subspace, oracle, variant="meta_star"):
    session = lte.start_session(variant=variant, subspaces=[subspace])
    tuples = session.initial_tuples()[subspace]
    session.submit_labels(subspace, oracle.label_subspace(subspace, tuples))
    return session


class TestConvergence:
    def test_estimate_in_unit_interval(self, system):
        lte, _, subspace, oracle = system
        session = labelled_session(lte, subspace, oracle)
        estimate = session.convergence_estimate(subspace, sample_rows=200)
        assert 0.0 <= estimate <= 1.0

    def test_requires_meta_star(self, system):
        lte, _, subspace, oracle = system
        session = labelled_session(lte, subspace, oracle, variant="meta")
        with pytest.raises(RuntimeError):
            session.convergence_estimate(subspace)


def old_convergence_estimate(session, subspace, sample_rows=500, seed=0):
    """``convergence_estimate`` as it was: the sample encoded and scored
    twice, and two terms (``preds``) that ``inner | ~outer`` already
    contains."""
    subsession = session._subsessions[subspace]
    state = subsession.state
    scaled = state.data[random_indices(len(state.data), sample_rows,
                                       seed=seed)]
    optimizer = subsession.optimizer
    inner = optimizer.inner_region.contains(scaled) \
        if optimizer.inner_region is not None \
        else np.zeros(len(scaled), dtype=bool)
    outer = optimizer.outer_region.contains(scaled) \
        if optimizer.outer_region is not None \
        else np.ones(len(scaled), dtype=bool)
    preds = subsession.adapted.predict(state.encode_scaled(scaled))
    resolved = inner | ~outer \
        | ((preds == 1) & inner) | ((preds == 0) & ~outer)
    proba = subsession.adapted.predict_proba(state.encode_scaled(scaled))
    confident = np.abs(proba - 0.5) > 0.4
    resolved |= confident
    return float(np.mean(resolved))


class TestConvergenceScoresItsSampleOnce:
    """Regression: the estimate encoded and scored its sample twice for
    a term that could not change the result."""

    @pytest.fixture(scope="class")
    def car_system(self):
        from repro.bench import subspace_region
        lte = LTE(LTEConfig(budget=20, ku=25, kq=30, n_tasks=6,
                            meta=MetaHyperParams(epochs=1, local_steps=2,
                                                 pretrain_epochs=1),
                            basic_steps=10, online_steps=3))
        lte.fit_offline(make_car(n_rows=2000, seed=41))
        subspaces = list(lte.states)
        assert subspaces[-1].dim == 1      # car's odd attribute count
        oracle = ConjunctiveOracle({
            s: subspace_region(lte.states[s], UISMode(1, 10), seed=4 + i)
            for i, s in enumerate(subspaces)})
        return lte, subspaces, oracle

    def check(self, session, subspace, monkeypatch):
        want = {(rows, seed): old_convergence_estimate(
            session, subspace, sample_rows=rows, seed=seed)
            for rows in (50, 500) for seed in (0, 3)}
        subsession = session._subsessions[subspace]
        state, calls = subsession.state, []
        encode = state.encode_scaled
        monkeypatch.setattr(
            state, "encode_scaled",
            lambda scaled: calls.append(len(scaled)) or encode(scaled))
        monkeypatch.setattr(
            subsession.adapted, "predict",
            lambda *args, **kwargs: pytest.fail("scored a second time"))
        for (rows, seed), expected in want.items():
            del calls[:]
            assert session.convergence_estimate(
                subspace, sample_rows=rows, seed=seed) == expected
            assert calls == [min(rows, len(state.data))]
        assert 0.0 < min(want.values()) and max(want.values()) <= 1.0

    def test_sdss(self, system, monkeypatch):
        lte, _, subspace, oracle = system
        self.check(labelled_session(lte, subspace, oracle), subspace,
                   monkeypatch)

    def test_car(self, car_system, monkeypatch):
        lte, subspaces, oracle = car_system
        session = lte.start_session(variant="meta_star", subspaces=subspaces)
        for subspace, tuples in session.initial_tuples().items():
            session.submit_labels(subspace,
                                  oracle.label_subspace(subspace, tuples))
        for subspace in subspaces:
            self.check(session, subspace, monkeypatch)


class TestRetrieve:
    def test_retrieved_rows_predicted_interesting(self, system):
        lte, table, subspace, oracle = system
        session = labelled_session(lte, subspace, oracle)
        rows = table.sample_rows(400, seed=0)
        retrieved = session.retrieve(rows)
        if len(retrieved):
            assert (session.predict(retrieved) == 1).all()

    def test_limit(self, system):
        lte, table, subspace, oracle = system
        session = labelled_session(lte, subspace, oracle)
        retrieved = session.retrieve(table.sample_rows(400, seed=0), limit=3)
        assert len(retrieved) <= 3

    def test_limit_is_a_whole_number(self, system):
        """A negative or fractional limit is refused: ``indices[:-1]``
        would quietly drop the last interesting row."""
        lte, table, subspace, oracle = system
        session = labelled_session(lte, subspace, oracle)
        rows = table.sample_rows(400, seed=0)
        every = session.retrieve(rows)
        for limit in (-1, 2.9, "3"):
            with pytest.raises(ValueError, match="limit"):
                session.retrieve(rows, limit=limit)
        assert len(session.retrieve(rows, limit=0)) == 0
        assert np.array_equal(
            session.retrieve(rows, limit=np.int64(len(every))), every)

    def test_defaults_to_full_table(self, system):
        lte, table, subspace, oracle = system
        session = labelled_session(lte, subspace, oracle)
        retrieved = session.retrieve()
        assert retrieved.shape[1] == table.n_attributes


class TestDrift:
    def test_same_distribution_near_zero(self, system):
        lte, table, _, _ = system
        scores = lte.drift_scores(table)
        assert set(scores) == set(lte.states)
        for score in scores.values():
            assert abs(score) < 0.5

    def test_shifted_distribution_detected(self, system):
        lte, table, _, _ = system
        # Shift + squash one attribute pair far outside the training range.
        shifted = table.data.copy()
        shifted[:, :] = shifted[:, :] * 0.2 + shifted.max(axis=0) * 2
        drifted = Table("drifted", table.attributes, shifted)
        scores = lte.drift_scores(drifted)
        assert max(scores.values()) > 0.5

    def test_refresh_rebuilds_state(self, system):
        lte, table, subspace, _ = system
        old_state = lte.states[subspace]
        new_state = lte.refresh_subspace(table, subspace, train=False)
        assert new_state is lte.states[subspace]
        assert new_state is not old_state
        assert new_state.trainer is None
        # Restore a trained state for other tests.
        lte.train_subspace(subspace)


class TestPersistence:
    def test_save_load_round_trip(self, system, tmp_path):
        """The meta-learners, saved and installed into a twin prepared
        from the same table and config, serve the same answers."""
        from repro.persist import load_pretrained, save_pretrained
        lte, table, subspace, oracle = system
        save_pretrained(tmp_path / "lte", lte)
        loaded = LTE(lte.config).fit_offline(table, train=False)
        load_pretrained(tmp_path / "lte", loaded)
        assert set(loaded.states) == set(lte.states)
        rows = table.sample_rows(100, seed=1)
        preds = labelled_session(loaded, subspace, oracle).predict(rows)
        assert preds.shape == (100,)
        assert np.array_equal(
            preds, labelled_session(lte, subspace, oracle).predict(rows))

    def test_load_rejects_non_lte(self, system, tmp_path):
        """A checkpoint of another kind is refused before any trainer
        is swapped."""
        from repro.persist import (CheckpointError, load_pretrained,
                                   save_session)
        lte, _, subspace, oracle = system
        save_session(tmp_path / "session",
                     labelled_session(lte, subspace, oracle))
        trainers = {s: state.trainer for s, state in lte.states.items()}
        with pytest.raises(CheckpointError, match="kind"):
            load_pretrained(tmp_path / "session", lte)
        assert all(lte.states[s].trainer is trainer
                   for s, trainer in trainers.items())
