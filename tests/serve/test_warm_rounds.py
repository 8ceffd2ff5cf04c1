"""A label round continues from the session's adapted classifier.

Round 0 adapts from the task-wise initialization; every later round
re-adapts over all labels so far starting from the session's current
:class:`~repro.core.meta_training.AdaptedClassifier`, with fresh
optimizer moments, for a third of the variant's step count.  A lone
session, a :class:`~repro.serve.SessionManager`, a 2-worker
:class:`~repro.shard.ShardGateway` and the sequential oracle
(``_adapt_oracle.py``) must answer alike, bit for bit, after every
round, and a manager saved and loaded between rounds must answer like
one that never stopped.
"""

import numpy as np
import pytest

import _adapt_oracle as adapt_oracle
from repro import persist
from repro.core import VARIANTS
from repro.serve import SessionManager
from repro.shard import ShardGateway

ROUNDS = 3
SEEDS = (0, 1, 2)


def extra_tuples(lte, subspace, round_, session):
    """Five raw tuples for one round, different per round and session."""
    state = lte.states[subspace]
    start = 40 + 17 * round_ + 5 * session
    return state.to_raw(state.data[start:start + 5])


def feed(front, sid, user):
    for subspace, tuples in front.initial_tuples(sid).items():
        front.submit_labels(sid, subspace,
                            user.label_subspace(subspace, tuples))


def feed_lone(session, user):
    for subspace, tuples in session.initial_tuples().items():
        session.submit_labels(subspace, user.label_subspace(subspace,
                                                            tuples))


def label_round(front, lte, sids, user, subspaces, round_):
    for k, sid in enumerate(sids):
        for subspace in subspaces:
            tuples = extra_tuples(lte, subspace, round_, k)
            front.add_labels(sid, subspace, tuples,
                             user.label_subspace(subspace, tuples))


@pytest.mark.smoke
@pytest.mark.parametrize("variant", VARIANTS)
def test_a_readaptation_continues_from_the_session_classifier(
        serve_lte, serve_subspaces, make_oracle, variant):
    user = make_oracle(81)
    subspace = serve_subspaces[0]
    session = serve_lte.start_session(variant=variant,
                                      subspaces=serve_subspaces)
    feed_lone(session, user)
    subsession = session._subsessions[subspace]
    before = subsession.adapted
    weights = before.model.flat_parameters().copy()
    tuples = extra_tuples(serve_lte, subspace, 1, 0)
    request, _ = subsession.build_readapt_request_for(
        tuples, user.label_subspace(subspace, tuples))
    cold = serve_lte.config.basic_steps if variant == "basic" \
        else serve_lte.config.online_steps
    assert request.start is before
    assert request.steps == -(-cold // 3)           # 15 -> 5, 4 -> 2
    assert request.feature is before.feature_vector
    assert request.shape_key() != subsession.build_initial_request(
        subsession.labels).shape_key()

    session.add_labels(subspace, tuples, user.label_subspace(subspace,
                                                             tuples))
    after = subsession.adapted
    assert after is not before and after.model is not before.model
    # The classifier a round starts from is never written.
    assert np.array_equal(before.model.flat_parameters(), weights)
    assert not np.array_equal(after.model.flat_parameters(), weights)
    if before.conversion is not None:
        assert after.conversion is not before.conversion


@pytest.mark.parametrize("variant", VARIANTS)
def test_three_warm_rounds_answer_alike_everywhere(
        serve_lte, serve_subspaces, make_oracle, eval_rows, variant):
    """Lone sessions, the sequential oracle, one manager and a 2-worker
    gateway, fed the same labels for three rounds after the initial
    ones: the same answers after every round, bit for bit."""
    user = make_oracle(83)
    lone = [serve_lte.start_session(variant=variant,
                                    subspaces=serve_subspaces, seed=s)
            for s in SEEDS]
    reference = [serve_lte.start_session(variant=variant,
                                         subspaces=serve_subspaces, seed=s)
                 for s in SEEDS]
    for session, oracle_session in zip(lone, reference):
        feed_lone(session, user)
        for subspace, tuples in oracle_session.initial_tuples().items():
            adapt_oracle.submit_labels(
                oracle_session, subspace,
                user.label_subspace(subspace, tuples))
    manager = SessionManager(serve_lte)
    sids = [manager.open_session(variant=variant, subspaces=serve_subspaces,
                                 seed=s) for s in SEEDS]
    for sid in sids:
        feed(manager, sid, user)
    manager.flush()

    with ShardGateway(serve_lte, n_workers=2) as gateway:
        gids = [gateway.open_session(variant=variant,
                                     subspaces=serve_subspaces, seed=s)
                for s in SEEDS]
        assert len({gateway._sessions[gid] for gid in gids}) == 2
        for gid in gids:
            feed(gateway, gid, user)
        gateway.flush_all()
        for round_ in range(ROUNDS + 1):
            if round_:
                for k, (session, oracle_session) in enumerate(
                        zip(lone, reference)):
                    for subspace in serve_subspaces:
                        tuples = extra_tuples(serve_lte, subspace, round_, k)
                        labels = user.label_subspace(subspace, tuples)
                        session.add_labels(subspace, tuples, labels)
                        adapt_oracle.add_labels(oracle_session, subspace,
                                                tuples, labels)
                label_round(manager, serve_lte, sids, user,
                            serve_subspaces, round_)
                manager.flush()
                label_round(gateway, serve_lte, gids, user,
                            serve_subspaces, round_)
                gateway.flush_all()
            for k, sid in enumerate(sids):
                want = reference[k].predict(eval_rows)
                assert np.array_equal(lone[k].predict(eval_rows), want), \
                    (round_, k)
                assert np.array_equal(manager.predict(sid, eval_rows),
                                      want), (round_, k)
                assert np.array_equal(gateway.predict(gids[k], eval_rows),
                                      want), (round_, k)
                versions = manager.poll(sid)["versions"]
                assert all(v == round_ + 1 for v in versions.values())


@pytest.mark.parametrize("variant", VARIANTS)
def test_save_and_load_between_rounds_answers_like_no_restart(
        tmp_path, serve_lte, serve_subspaces, make_oracle, eval_rows,
        variant):
    """A warm round starts from the classifier the checkpoint carries:
    a manager saved and loaded before every round answers, versions and
    re-adapts exactly like the uninterrupted one."""
    user = make_oracle(89)
    managers = [SessionManager(serve_lte) for _ in range(2)]
    sids = []
    for manager in managers:
        sids = [manager.open_session(variant=variant,
                                     subspaces=serve_subspaces, seed=s)
                for s in SEEDS]
        for sid in sids:
            feed(manager, sid, user)
        manager.flush()
    uninterrupted, restarted = managers
    for round_ in range(1, ROUNDS + 1):
        path = tmp_path / "serving-{}".format(round_)
        persist.save_manager(path, restarted)
        restarted = persist.load_manager(path, serve_lte)
        for manager in (uninterrupted, restarted):
            label_round(manager, serve_lte, sids, user, serve_subspaces,
                        round_)
            manager.flush()
        for sid in sids:
            assert np.array_equal(restarted.predict(sid, eval_rows),
                                  uninterrupted.predict(sid, eval_rows)), \
                (round_, sid)
            assert restarted.poll(sid)["versions"] == \
                uninterrupted.poll(sid)["versions"]
            for subspace in serve_subspaces:
                got = restarted.session(sid)._subsessions[subspace].adapted
                want = \
                    uninterrupted.session(sid)._subsessions[subspace].adapted
                assert np.array_equal(got.model.flat_parameters(),
                                      want.model.flat_parameters())
