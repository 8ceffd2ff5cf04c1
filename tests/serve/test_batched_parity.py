"""Parity: stacked adaptation must reproduce sequential adaptation exactly.

``run_adapt_requests`` (stacked tensors, fused Adam, shared geometry) is
the only executor of an ``AdaptRequest`` in ``src/``: a wave through
``SessionManager`` and a lone ``ExplorationSession.submit_labels`` — a
stack of one — both run it.  Either must be indistinguishable from the
one-request-at-a-time executor it replaced, kept verbatim in
``_adapt_oracle.py`` — same adapted parameters, same hulls, same
predictions, same F1 — for every variant.  These tests pin that
contract with a fixed seed.
"""

import threading

import numpy as np
import pytest

import _adapt_oracle as adapt_oracle
from _graph_oracle import named_stack, stack_models, stacked_predict
from repro.core import VARIANTS, run_adapt_requests
from repro.core.meta_learner import UISClassifier
from repro.explore import run_concurrent_explorations, score_session
from repro.nn import fused_local_adapt
from repro.serve import SessionManager

pytestmark = pytest.mark.smoke


def oracle_session(lte, user, variant, subspaces):
    """A session whose every adaptation ran on the sequential oracle."""
    session = lte.start_session(variant=variant, subspaces=subspaces)
    for subspace, tuples in session.initial_tuples().items():
        adapt_oracle.submit_labels(session, subspace,
                                   user.label_subspace(subspace, tuples))
    return session


def assert_adapted_identical(got, want):
    adapt_oracle.assert_same_classifier(got, want)


def assert_optimizers_identical(got, want):
    """Same subregions, hull for hull: points and packed facet rows."""
    if want is None:
        assert got is None
        return
    assert (got.n_sup, got.n_sub) == (want.n_sup, want.n_sub)
    for mine, theirs in ((got.outer_region, want.outer_region),
                         (got.inner_region, want.inner_region)):
        if theirs is None:
            assert mine is None
            continue
        assert len(mine.hulls) == len(theirs.hulls)
        for a, b in zip(mine.hulls, theirs.hulls):
            assert np.array_equal(a.points, b.points)
            for field in ("A", "b", "tol_scale", "tol_fixed"):
                assert np.array_equal(getattr(a.halfspaces(), field),
                                      getattr(b.halfspaces(), field))


@pytest.mark.parametrize("variant", VARIANTS)
class TestVariantParity:
    def test_concurrent_sessions_match_sequential(
            self, serve_lte, serve_subspaces, make_oracle, eval_rows,
            variant):
        """K batched sessions each equal their sequential twin exactly."""
        oracles = [make_oracle(100 + 7 * k) for k in range(3)]
        sequential = [score_session(
            oracle_session(serve_lte, o, variant, serve_subspaces), o,
            eval_rows) for o in oracles]
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
        session = oracle_session(serve_lte, oracle, variant,
                                 serve_subspaces)

        # Two managed sessions in one flush: buckets of two.
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
                for seq, bat in zip(
                        adapt_oracle.classifier_arrays(seq_ss.adapted),
                        adapt_oracle.classifier_arrays(bat_ss.adapted)):
                    assert np.allclose(seq, bat, atol=1e-12)

    def test_subspace_predictions_match(self, serve_lte, serve_subspaces,
                                        make_oracle, variant):
        """Per-subspace (cached, batched) prediction equals sequential."""
        oracle = make_oracle(77)
        subspace = serve_subspaces[0]
        session = serve_lte.start_session(variant=variant,
                                          subspaces=[subspace])
        tuples = session.initial_tuples()[subspace]
        labels = oracle.label_subspace(subspace, tuples)
        adapt_oracle.submit_labels(session, subspace, labels)

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
    adapt_oracle.submit_labels(session, subspace, labels)

    manager = SessionManager(serve_lte)
    sid = manager.open_session(variant="meta", subspaces=[subspace])
    manager.submit_labels(sid, subspace, labels)

    extra = state.to_raw(state.data[50:55])
    extra_labels = oracle.label_subspace(subspace, extra)
    adapt_oracle.add_labels(session, subspace, extra, extra_labels)
    manager.add_labels(sid, subspace, extra, extra_labels)
    manager.flush()

    points = state.to_raw(state.data[:150])
    assert np.array_equal(manager.predict_subspace(sid, subspace, points),
                          session.predict_subspace(subspace, points))


@pytest.mark.parametrize("variant", VARIANTS)
def test_bucket_of_one_alone_and_inside_a_wave(serve_lte, make_oracle,
                                               variant):
    """K = 1 is a first-class bucket.  One wave holds a bucket of three
    (same subspace, same label count), a lone initial request on the
    1-D subspace (its own representation width; builds the hulls for
    Meta*) and a lone re-adaptation (five more labels than anyone
    else).  Every result — and each lone request run on its own —
    equals the oracle's bit for bit: what else shares the wave, and
    whether anything does, changes nothing."""
    wide, narrow = list(serve_lte.states)[0], list(serve_lte.states)[-1]
    assert narrow.dim == 1
    user = make_oracle(71, subspaces=[wide, narrow])
    sessions = [serve_lte.start_session(variant=variant,
                                        subspaces=[wide, narrow],
                                        seed=90 + k) for k in range(3)]
    requests = []
    for session in sessions:
        subsession = session._subsessions[wide]
        requests.append(subsession.build_initial_request(
            user.label_subspace(wide, subsession.initial_x)))
    subsession = sessions[0]._subsessions[narrow]
    requests.append(subsession.build_initial_request(
        user.label_subspace(narrow, subsession.initial_x)))
    adapt_oracle.submit_labels(
        sessions[1], wide,
        user.label_subspace(wide, sessions[1].initial_tuples()[wide]))
    state = serve_lte.states[wide]
    extra = state.to_raw(state.data[50:55])
    readapt, _ = sessions[1]._subsessions[wide].build_readapt_request_for(
        extra, user.label_subspace(wide, extra))
    requests.append(readapt)
    keys = [request.shape_key() for request in requests]
    assert len(set(keys[:3])) == 1 and len(set(keys)) == 3

    want = [adapt_oracle.run_adapt_request(r) for r in requests]
    wave = run_adapt_requests(requests)
    alone = [run_adapt_requests([r])[0] for r in requests[3:]]
    for (got, got_opt), (ref, ref_opt) in zip(wave + alone,
                                              want + want[3:]):
        assert_adapted_identical(got, ref)
        assert_optimizers_identical(got_opt, ref_opt)
    assert (want[3][1] is not None) == (variant == "meta_star")
    assert want[4][1] is None   # a re-adaptation keeps the old hulls


@pytest.mark.parametrize("variant", VARIANTS)
def test_lone_session_matches_sequential(serve_lte, make_oracle, variant):
    """``ExplorationSession.submit_labels`` / ``add_labels`` hand the
    executor a list of one; over a 2-D and the 1-D subspace the session
    equals its oracle-driven twin: models, hulls, answers."""
    subspaces = [list(serve_lte.states)[0], list(serve_lte.states)[-1]]
    user = make_oracle(83, subspaces=subspaces)
    twin = oracle_session(serve_lte, user, variant, subspaces)
    session = serve_lte.start_session(variant=variant, subspaces=subspaces)
    for subspace, tuples in session.initial_tuples().items():
        session.submit_labels(subspace,
                              user.label_subspace(subspace, tuples))
    rows = serve_lte.table.sample_rows(300, seed=9)

    def assert_sessions_identical():
        for subspace in subspaces:
            got = session._subsessions[subspace]
            want = twin._subsessions[subspace]
            assert_adapted_identical(got.adapted, want.adapted)
            assert_optimizers_identical(got.optimizer, want.optimizer)
            assert got.model_version == want.model_version
        assert np.array_equal(session.predict(rows), twin.predict(rows))

    assert_sessions_identical()
    assert session.adapt_seconds > 0
    for subspace in subspaces:
        state = serve_lte.states[subspace]
        extra = state.to_raw(state.data[60:66])
        labels = user.label_subspace(subspace, extra)
        session.add_labels(subspace, extra, labels)
        adapt_oracle.add_labels(twin, subspace, extra, labels)
    assert_sessions_identical()


def values(stack):
    """A stack's parameter values by name."""
    return {name: param.data for name, param in named_stack(stack)}


def grads(stack):
    """A stack's parameter gradients by name."""
    return {name: param.grad for name, param in named_stack(stack)}


def test_concurrent_same_bucket_adapts_stay_bit_exact():
    """Threads adapting the same shape bucket at once through
    ``fused_local_adapt`` share no optimizer state or step buffers, and a
    thread predicting with its result (under ``no_grad()``, which is per
    thread) disturbs none still adapting: each result and its
    predictions equal the serial run's bit for bit."""
    def adapt(seed, k=4, n=6, ku=6, width=5):
        rng = np.random.default_rng(seed)
        models = [UISClassifier(ku=ku, input_width=width, embed_size=4,
                                hidden_size=3, use_conversion=False,
                                seed=seed * 97 + i) for i in range(k)]
        features = rng.normal(size=(k, ku))
        xs = rng.normal(size=(k, n, width))
        ys = (rng.random(size=(k, n)) < 0.4).astype(np.float64)
        ys[:, 0], ys[:, 1] = 1.0, 0.0   # both classes in every task
        config, batched = models[0].config, stack_models(models)
        fused_local_adapt(config, batched, features, xs, ys, steps=3,
                          lr=0.05)
        return batched, stacked_predict(config, batched, features, xs)

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
        (want, predicted), (got, answers) = serial[seed], concurrent[seed]
        for view in (values, grads):
            assert view(want).keys() == view(got).keys()
            for name, array in view(want).items():
                assert np.array_equal(array, view(got)[name]), name
        assert np.array_equal(predicted, answers)
