"""Tests for the iterative-exploration plug-in (add_labels, most_uncertain)
and the internal subspace normalization."""

import numpy as np
import pytest

from repro.core import LTE, LTEConfig
from repro.core.meta_training import MetaHyperParams
from repro.core.uis import UISMode
from repro.data import make_sdss
from repro.explore import ConjunctiveOracle


@pytest.fixture(scope="module")
def lte_and_oracle():
    from repro.bench import subspace_region
    table = make_sdss(n_rows=3000, seed=51)
    lte = LTE(LTEConfig(budget=20, ku=30, kq=40, n_tasks=10,
                        meta=MetaHyperParams(epochs=1, local_steps=3,
                                             pretrain_epochs=1),
                        basic_steps=15, online_steps=5))
    lte.fit_offline(table)
    subspace = list(lte.states)[0]
    region = subspace_region(lte.states[subspace], UISMode(1, 12), seed=9)
    return lte, subspace, ConjunctiveOracle({subspace: region})


def started_session(lte, subspace, oracle, variant="meta"):
    session = lte.start_session(variant=variant, subspaces=[subspace])
    tuples = session.initial_tuples()[subspace]
    session.submit_labels(subspace, oracle.label_subspace(subspace, tuples))
    return session


class TestAddLabels:
    def test_add_labels_changes_predictions_possible(self, lte_and_oracle):
        lte, subspace, oracle = lte_and_oracle
        session = started_session(lte, subspace, oracle)
        raw = subspace.project(lte.table.data)
        extra = raw[:25]
        before = session.predict_subspace(subspace, raw[:200]).copy()
        session.add_labels(subspace, extra,
                           oracle.ground_truth_subspace(subspace, extra))
        after = session.predict_subspace(subspace, raw[:200])
        assert after.shape == before.shape  # re-adaptation ran end-to-end

    def test_add_labels_accumulates(self, lte_and_oracle):
        lte, subspace, oracle = lte_and_oracle
        session = started_session(lte, subspace, oracle)
        raw = subspace.project(lte.table.data)
        subsession = session._subsessions[subspace]
        session.add_labels(subspace, raw[:5], np.zeros(5))
        session.add_labels(subspace, raw[5:8], np.ones(3))
        assert len(subsession.extra_x) == 8
        assert subsession.extra_y.sum() == 3

    def test_add_labels_before_initial_raises(self, lte_and_oracle):
        lte, subspace, _ = lte_and_oracle
        session = lte.start_session(variant="meta", subspaces=[subspace])
        with pytest.raises(RuntimeError):
            session.add_labels(subspace, np.zeros((2, 2)), [0, 1])

    def test_add_labels_length_mismatch(self, lte_and_oracle):
        lte, subspace, oracle = lte_and_oracle
        session = started_session(lte, subspace, oracle)
        with pytest.raises(ValueError):
            session.add_labels(subspace, np.zeros((2, 2)), [0])

    def test_add_labels_basic_variant(self, lte_and_oracle):
        lte, subspace, oracle = lte_and_oracle
        session = started_session(lte, subspace, oracle, variant="basic")
        raw = subspace.project(lte.table.data)
        session.add_labels(subspace, raw[:4],
                           oracle.ground_truth_subspace(subspace, raw[:4]))
        assert session.predict_subspace(subspace, raw[:50]).shape == (50,)


class TestMostUncertain:
    def test_returns_k_valid_indices(self, lte_and_oracle):
        lte, subspace, oracle = lte_and_oracle
        session = started_session(lte, subspace, oracle)
        raw = subspace.project(lte.table.data)[:300]
        picks = session.most_uncertain(subspace, raw, k=7)
        assert len(picks) == 7
        assert (picks >= 0).all() and (picks < 300).all()

    def test_picks_are_nearest_half_probability(self, lte_and_oracle):
        lte, subspace, oracle = lte_and_oracle
        session = started_session(lte, subspace, oracle)
        raw = subspace.project(lte.table.data)[:300]
        subsession = session._subsessions[subspace]
        proba = subsession.adapted.predict_proba(
            subsession.state.encode(raw))
        picks = session.most_uncertain(subspace, raw, k=3)
        margins = np.abs(proba - 0.5)
        assert np.allclose(sorted(margins[picks]),
                           np.sort(margins)[:3])

    def test_k_is_a_whole_number(self, lte_and_oracle):
        """A negative or fractional k is refused: ``order[:-1]`` would
        quietly drop one candidate."""
        lte, subspace, oracle = lte_and_oracle
        session = started_session(lte, subspace, oracle)
        raw = subspace.project(lte.table.data)[:10]
        for k in (-1, 2.5):
            with pytest.raises(ValueError, match="k must"):
                session.most_uncertain(subspace, raw, k=k)
        assert len(session.most_uncertain(subspace, raw, k=10)) == 10

    def test_before_labels_raises(self, lte_and_oracle):
        lte, subspace, _ = lte_and_oracle
        session = lte.start_session(variant="meta", subspaces=[subspace])
        with pytest.raises(RuntimeError):
            session.most_uncertain(subspace, np.zeros((3, 2)))


class TestNormalization:
    def test_state_data_is_unit_cube(self, lte_and_oracle):
        lte, subspace, _ = lte_and_oracle
        state = lte.states[subspace]
        assert state.data.min() >= 0.0 and state.data.max() <= 1.0

    def test_scaler_round_trip(self, lte_and_oracle):
        lte, subspace, _ = lte_and_oracle
        state = lte.states[subspace]
        raw = subspace.project(lte.table.data)[:20]
        assert np.allclose(state.to_raw(state.to_scaled(raw)), raw)

    def test_initial_tuples_are_raw_coordinates(self, lte_and_oracle):
        lte, subspace, _ = lte_and_oracle
        session = lte.start_session(variant="meta", subspaces=[subspace])
        tuples = session.initial_tuples()[subspace]
        raw = subspace.project(lte.table.data)
        lo, hi = raw.min(axis=0), raw.max(axis=0)
        assert (tuples >= lo - 1e-9).all() and (tuples <= hi + 1e-9).all()
        # Raw SDSS coordinates are far outside [0, 1] — ensure we did not
        # hand the user normalized points.
        assert tuples.max() > 1.5

    def test_encode_raw_equals_encode_scaled(self, lte_and_oracle):
        lte, subspace, _ = lte_and_oracle
        state = lte.states[subspace]
        raw = subspace.project(lte.table.data)[:10]
        assert np.allclose(state.encode(raw),
                           state.encode_scaled(state.to_scaled(raw)))
