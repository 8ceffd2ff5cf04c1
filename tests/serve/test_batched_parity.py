"""Parity: batched serving must reproduce sequential adaptation exactly.

The serving layer's contract is that a session adapted through
``SessionManager`` (stacked tensors, fused Adam, shared geometry) is
indistinguishable from one driven through the sequential
``run_lte_exploration`` path — same adapted parameters, same predictions,
same F1 — for every variant.  These tests pin that contract with a fixed
seed.
"""

import threading

import numpy as np
import pytest

from repro.core import VARIANTS
from repro.core.meta_learner import UISClassifier
from repro.explore import run_concurrent_explorations, run_lte_exploration
from repro.nn import (BatchedUISClassifier, fused_local_adapt, grad_stacks,
                      stacked_predict)
from repro.serve import SessionManager

pytestmark = pytest.mark.smoke


@pytest.mark.parametrize("variant", VARIANTS)
class TestVariantParity:
    def test_concurrent_sessions_match_sequential(
            self, serve_lte, serve_subspaces, make_oracle, eval_rows,
            variant):
        """K batched sessions each equal their sequential twin exactly."""
        oracles = [make_oracle(100 + 7 * k) for k in range(3)]
        sequential = [run_lte_exploration(serve_lte, o, eval_rows,
                                          variant=variant,
                                          subspaces=serve_subspaces)
                      for o in oracles]
        batched = run_concurrent_explorations(serve_lte, oracles, eval_rows,
                                              variant=variant,
                                              subspaces=serve_subspaces)
        assert len(batched) == len(sequential)
        for seq, bat in zip(sequential, batched):
            assert np.allclose(seq.f1, bat.f1)
            assert np.array_equal(seq.predictions, bat.predictions)
            assert seq.labels_used == bat.labels_used

    def test_adapted_parameters_match(self, serve_lte, serve_subspaces,
                                      make_oracle, variant):
        """The fused optimizer steps land on identical model parameters."""
        oracle = make_oracle(55)
        session = serve_lte.start_session(variant=variant,
                                          subspaces=serve_subspaces)
        for subspace, tuples in session.initial_tuples().items():
            session.submit_labels(subspace,
                                  oracle.label_subspace(subspace, tuples))

        # Two managed sessions in one flush forces the stacked code path.
        manager = SessionManager(serve_lte)
        sids = [manager.open_session(variant=variant,
                                     subspaces=serve_subspaces)
                for _ in range(2)]
        for sid in sids:
            for subspace, tuples in manager.initial_tuples(sid).items():
                manager.submit_labels(
                    sid, subspace, oracle.label_subspace(subspace, tuples))
        assert manager.flush() == 2 * len(serve_subspaces)

        for sid in sids:
            managed = manager.session(sid)
            for subspace in serve_subspaces:
                seq_ss = session._subsessions[subspace]
                bat_ss = managed._subsessions[subspace]
                assert np.allclose(seq_ss.adapted.model.flat_parameters(),
                                   bat_ss.adapted.model.flat_parameters(),
                                   atol=1e-12)
                if seq_ss.adapted.conversion is not None:
                    assert np.allclose(seq_ss.adapted.conversion.data,
                                       bat_ss.adapted.conversion.data,
                                       atol=1e-12)

    def test_subspace_predictions_match(self, serve_lte, serve_subspaces,
                                        make_oracle, variant):
        """Per-subspace (cached, batched) prediction equals sequential."""
        oracle = make_oracle(77)
        subspace = serve_subspaces[0]
        session = serve_lte.start_session(variant=variant,
                                          subspaces=[subspace])
        tuples = session.initial_tuples()[subspace]
        labels = oracle.label_subspace(subspace, tuples)
        session.submit_labels(subspace, labels)

        manager = SessionManager(serve_lte)
        sids = [manager.open_session(variant=variant, subspaces=[subspace])
                for _ in range(2)]
        for sid in sids:
            manager.submit_labels(sid, subspace, labels)

        points = serve_lte.states[subspace].to_raw(
            serve_lte.states[subspace].data[:200])
        expected = session.predict_subspace(subspace, points)
        for sid in sids:
            assert np.array_equal(
                manager.predict_subspace(sid, subspace, points), expected)


def test_iterative_readaptation_parity(serve_lte, serve_subspaces,
                                       make_oracle):
    """add_labels through the manager matches sequential add_labels."""
    oracle = make_oracle(31)
    subspace = serve_subspaces[0]
    state = serve_lte.states[subspace]
    session = serve_lte.start_session(variant="meta",
                                      subspaces=[subspace])
    labels = oracle.label_subspace(subspace,
                                   session.initial_tuples()[subspace])
    session.submit_labels(subspace, labels)

    manager = SessionManager(serve_lte)
    sid = manager.open_session(variant="meta", subspaces=[subspace])
    manager.submit_labels(sid, subspace, labels)

    extra = state.to_raw(state.data[50:55])
    extra_labels = oracle.label_subspace(subspace, extra)
    session.add_labels(subspace, extra, extra_labels)
    manager.add_labels(sid, subspace, extra, extra_labels)
    manager.flush()

    points = state.to_raw(state.data[:150])
    assert np.array_equal(manager.predict_subspace(sid, subspace, points),
                          session.predict_subspace(subspace, points))


def test_concurrent_same_bucket_adapts_stay_bit_exact():
    """Threads adapting the same shape bucket at once through
    ``fused_local_adapt`` share no optimizer state: each result equals
    its serial run bit for bit."""
    def adapt(seed, k=4, n=6, ku=6, width=5):
        rng = np.random.default_rng(seed)
        models = [UISClassifier(ku=ku, input_width=width, embed_size=4,
                                hidden_size=3, use_conversion=False,
                                seed=seed * 97 + i) for i in range(k)]
        features = rng.normal(size=(k, ku))
        xs = rng.normal(size=(k, n, width))
        ys = (rng.random(size=(k, n)) < 0.4).astype(np.float64)
        ys[:, 0], ys[:, 1] = 1.0, 0.0   # both classes in every task
        batched, _ = fused_local_adapt(models, features, xs, ys, steps=3,
                                       lr=0.05)
        return batched, features, xs

    seeds = list(range(6))
    serial = {seed: adapt(seed) for seed in seeds}
    concurrent, barrier = {}, threading.Barrier(len(seeds))

    def worker(seed):
        barrier.wait()
        concurrent[seed] = adapt(seed)

    threads = [threading.Thread(target=worker, args=(seed,))
               for seed in seeds]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert sorted(concurrent) == seeds
    for seed in seeds:
        (want, features, xs), (got, _, _) = serial[seed], concurrent[seed]
        for view in (BatchedUISClassifier.state_dict, grad_stacks):
            assert view(want).keys() == view(got).keys()
            for name, array in view(want).items():
                assert np.array_equal(array, view(got)[name]), name
        assert np.array_equal(stacked_predict(want, features, xs),
                              stacked_predict(got, features, xs))
