"""The edges geometry-first prediction creates: an empty open band, no
hull at all, mixed variants in one group, half an optimizer, zero and
one row, a 1-D subspace.  Each must return an ``(n,)`` int64 answer equal
to "score every row, then refine" (``_predict_oracle.py``) — none may
raise, and none may call the layer it has no use for.
"""

import copy

import numpy as np
import pytest

import _predict_oracle as oracle
import _refine_oracle as refine_oracle
from repro.core import ExplorationSession
from repro.core import meta_training
from repro.core import optimizer as optimizer_module
from repro.core.preprocessing import TabularPreprocessor
from repro.data.schema import Table
from repro.serve import SessionManager
from repro.shard import ShardGateway

SETTLED = "serve.manager.predict.rows.settled"
SCORED = "serve.manager.predict.rows.scored"
SKIPPED = "serve.manager.predict.rows.skipped"


def feed(front, oracle_, sid, labels=None):
    for subspace, tuples in front.initial_tuples(sid).items():
        front.submit_labels(
            sid, subspace, oracle_.label_subspace(subspace, tuples)
            if labels is None else np.full(len(tuples), labels))


def is_answer(array, n_rows):
    return isinstance(array, np.ndarray) and array.dtype == np.int64 \
        and array.shape == (n_rows,)


@pytest.fixture()
def served(serve_lte, make_oracle):
    """A manager with one fed meta_star session over every subspace."""
    subspaces = list(serve_lte.states)
    manager = SessionManager(serve_lte)
    sid = manager.open_session(variant="meta_star", subspaces=subspaces,
                               seed=0)
    feed(manager, make_oracle(3, subspaces=subspaces), sid)
    manager.flush()
    return manager, sid, subspaces


def forbid(monkeypatch, module, name):
    def refuse(*args, **kwargs):
        raise AssertionError("{} must not be called here".format(name))
    monkeypatch.setattr(module, name, refuse)


class TestEmptyOpenBand:
    def test_rows_outside_every_outer_hull_call_no_kernel(
            self, served, serve_lte, monkeypatch):
        manager, sid, subspaces = served
        rows = serve_lte.table.data[:200] * 50.0
        want = oracle.predict_session(manager.session(sid), rows)
        assert not want.any()
        forbid(monkeypatch, meta_training, "constant_logits")
        forbid(monkeypatch, TabularPreprocessor, "transform")
        assert np.array_equal(manager.predict(sid, rows), want)
        assert is_answer(manager.session(sid).predict(rows), 200)
        assert manager.metrics.value(SCORED) == 0
        assert manager.metrics.value(SKIPPED) == 0
        assert manager.metrics.value(SETTLED) == 200 * len(subspaces)

    def test_rows_inside_an_inner_hull_call_no_kernel(self, served,
                                                      monkeypatch):
        manager, sid, subspaces = served
        subspace = subspaces[0]
        subsession = manager.session(sid)._subsessions[subspace]
        inner = subsession.optimizer.inner_region
        points = subsession.state.to_raw(np.vstack(
            [hull.points.mean(axis=0) for hull in inner.hulls]))
        forbid(monkeypatch, meta_training, "constant_logits")
        forbid(monkeypatch, TabularPreprocessor, "transform")
        got = manager.predict_subspace(sid, subspace, points)
        assert is_answer(got, len(points)) and got.all()
        assert np.array_equal(
            manager.session(sid).predict_subspace(subspace, points), got)


class TestNoPositiveAnchor:
    def test_every_row_is_open_and_no_geometry_runs(
            self, serve_lte, serve_subspaces, eval_rows, monkeypatch):
        manager = SessionManager(serve_lte)
        sid = manager.open_session(variant="meta_star",
                                   subspaces=serve_subspaces, seed=1)
        feed(manager, None, sid, labels=0)
        manager.flush()
        session = manager.session(sid)
        for subsession in session._subsessions.values():
            assert subsession.optimizer.outer_region is None
            assert subsession.optimizer.inner_region is None
        want = oracle.predict_session(session, eval_rows)
        forbid(monkeypatch, optimizer_module, "union_masks")
        assert np.array_equal(manager.predict(sid, eval_rows), want)
        assert np.array_equal(session.predict(eval_rows), want)
        # No hull settles anything; a row the first subspace's
        # classifier answers 0 is skipped, not scored, in the second.
        assert manager.metrics.value(SETTLED) == 0
        assert manager.metrics.value(SCORED) + \
            manager.metrics.value(SKIPPED) == \
            len(eval_rows) * len(serve_subspaces)
        dead, skipped = np.zeros(len(eval_rows), dtype=bool), 0
        for subspace, subsession in session._subsessions.items():
            skipped += int(dead.sum())
            dead |= oracle.predict_subspace(
                subsession, subspace.project(eval_rows)) == 0
        assert manager.metrics.value(SKIPPED) == skipped


def test_every_variant_in_one_predict_many_group(serve_lte, serve_subspaces,
                                                 make_oracle, eval_rows):
    """basic and meta sessions (no optimizer) ride in the same group as
    meta_star ones; basic's model configuration differs from theirs."""
    manager = SessionManager(serve_lte)
    sids = [manager.open_session(variant=variant, subspaces=serve_subspaces,
                                 seed=i)
            for i, variant in enumerate(
                ["basic", "meta_star", "meta", "meta_star", "basic"])]
    for i, sid in enumerate(sids):
        feed(manager, make_oracle(20 + i), sid)
    manager.flush()
    got = manager.predict_many(sids, eval_rows)
    want = oracle.predict_many([manager.session(sid) for sid in sids],
                               eval_rows)
    for sid, expected in zip(sids, want):
        assert is_answer(got[sid], len(eval_rows))
        assert np.array_equal(got[sid], expected)
    settled = manager.metrics.value(SETTLED)
    assert 0 < settled <= 2 * len(serve_subspaces) * len(eval_rows)
    assert settled + manager.metrics.value(SCORED) + \
        manager.metrics.value(SKIPPED) == \
        len(sids) * len(serve_subspaces) * len(eval_rows)
    assert manager.metrics.value(SCORED) > 0
    assert manager.metrics.value(SKIPPED) > 0


@pytest.mark.parametrize("missing", ["inner", "outer"])
def test_optimizer_with_one_region_from_an_old_checkpoint(
        served, serve_lte, eval_rows, missing):
    manager, sid, _ = served
    state = copy.deepcopy(manager.session(sid).state_dict())
    for sub_state in state["sessions"]:
        sub_state["optimizer"][missing] = None
    restored = ExplorationSession.from_state_dict(serve_lte, state)
    for subsession in restored._subsessions.values():
        assert getattr(subsession.optimizer, missing + "_region") is None
    want = oracle.predict_session(restored, eval_rows)
    got = restored.predict(eval_rows)
    assert is_answer(got, len(eval_rows))
    assert np.array_equal(got, want)
    # refine keeps its classifier-first meaning on the half optimizer.
    for subspace, subsession in restored._subsessions.items():
        scaled = subsession.state.to_scaled(subspace.project(eval_rows))
        for raw in (np.zeros(len(scaled), dtype=int),
                    np.ones(len(scaled), dtype=int)):
            assert np.array_equal(
                refine_oracle.refine(subsession.optimizer, scaled, raw),
                oracle.refine_batch([subsession.optimizer], scaled,
                                    [raw])[0])
            assert np.array_equal(
                refine_oracle.refine_batch(
                    [subsession.optimizer, None], scaled, [raw, raw])[0],
                refine_oracle.refine(subsession.optimizer, scaled, raw))


@pytest.mark.parametrize("n_rows", [0, 1])
def test_zero_and_one_row_inputs(served, serve_lte, n_rows):
    manager, sid, subspaces = served
    session = manager.session(sid)
    rows = serve_lte.table.data[:n_rows]
    want = oracle.predict_session(session, rows)
    assert is_answer(manager.predict(sid, rows), n_rows)
    assert np.array_equal(manager.predict(sid, rows), want)
    assert np.array_equal(manager.predict_many([sid], rows)[sid], want)
    assert np.array_equal(session.predict(rows), want)
    for subspace in subspaces:
        points = subspace.project(rows)
        expected = oracle.predict_subspace(session._subsessions[subspace],
                                           points)
        for got in (manager.predict_subspace(sid, subspace, points),
                    session.predict_subspace(subspace, points)):
            assert is_answer(got, n_rows)
            assert np.array_equal(got, expected)
    store = Table("CAR", serve_lte.table.attributes, rows) \
        .to_store(chunk_rows=64)
    for got in (manager.predict_many_store([sid], store)[sid],
                manager.predict_many([sid], store)[sid],
                session.predict_store(store)):
        assert is_answer(got, n_rows)
        assert np.array_equal(got, want)
    if n_rows:
        assert np.array_equal(manager.predict(sid, rows[0]), want)


def test_one_dimensional_subspace_through_the_whole_serve_path(
        serve_lte, make_oracle):
    """car's odd attribute count leaves a 1-D trailing subspace: label,
    adapt, preview, re-adapt, scan a store, snapshot and restore, and
    serve it from a gateway worker."""
    subspace = list(serve_lte.states)[-1]
    assert subspace.dim == 1
    truth = make_oracle(5, subspaces=[subspace])
    rows = serve_lte.table.data[:700]

    def drive(front):
        sid = front.open_session(variant="meta_star", subspaces=[subspace],
                                 seed=2)
        feed(front, truth, sid)
        return sid

    manager = SessionManager(serve_lte)
    sid = drive(manager)
    manager.flush()
    session = manager.session(sid)
    assert session._subsessions[subspace].optimizer.outer_region is not None
    first = manager.predict(sid, rows)
    assert is_answer(first, len(rows)) and 0 < first.sum() < len(rows)
    assert np.array_equal(first, oracle.predict_session(session, rows))
    assert manager.metrics.value(SETTLED) > 0

    with ShardGateway(serve_lte, n_workers=2) as gateway:
        remote = drive(gateway)
        gateway.flush_all()
        assert np.array_equal(gateway.predict(remote, rows), first)

    extra = subspace.project(rows[:6])
    manager.add_labels(sid, subspace, extra,
                       truth.label_subspace(subspace, extra))
    manager.flush()
    want = oracle.predict_session(session, rows)
    assert np.array_equal(manager.predict(sid, rows), want)
    assert np.array_equal(
        manager.predict_subspace(sid, subspace, subspace.project(rows)),
        want)
    store = Table("CAR", serve_lte.table.attributes, rows[:500]) \
        .to_store(chunk_rows=128)
    assert np.array_equal(manager.predict_many_store([sid], store)[sid],
                          want[:500])
    store.append_blocks([rows[500:]])
    assert np.array_equal(manager.predict_many_store([sid], store)[sid],
                          want)
    restored = SessionManager.restore(serve_lte, manager.snapshot())
    assert np.array_equal(restored.predict(sid, rows[::-1]), want[::-1])


def test_a_row_with_a_non_finite_coordinate_is_in_no_region(
        serve_lte, serve_subspaces, make_oracle):
    """NaN and ±inf are coordinates a store may hold; such a row is in
    no region whatever the variant.  A session without hulls used to
    send it to the encoder, whose scaler clips ±inf to a finite feature,
    and *answer*.  Every front, rows and stores alike, answers 0 —
    without a warning — and answers the finite rows (1e300 included) as
    before."""
    import warnings

    variants = ["basic", "meta", "meta_star"]
    truth = make_oracle(3)

    def drive(front):
        sids = [front.open_session(variant=variant,
                                   subspaces=serve_subspaces, seed=i)
                for i, variant in enumerate(variants)]
        for sid in sids:
            feed(front, truth, sid)
        return sids

    manager = SessionManager(serve_lte)
    sids = drive(manager)
    manager.flush()
    sessions = [manager.session(sid) for sid in sids]
    columns = sorted({c for s in serve_subspaces for c in s.columns})
    width = serve_lte.table.n_attributes

    # Rows every session answers 1, four copies each with one explored
    # coordinate replaced; then a finite stretch with 1e300 outliers.
    table = serve_lte.table.data
    positive = table[np.flatnonzero(np.all(
        [session.predict(table) == 1 for session in sessions], axis=0))]
    assert len(positive) >= 5
    rng = np.random.default_rng(0)
    broken = np.repeat(positive, 4, axis=0)
    broken[np.arange(len(broken)), rng.choice(columns, size=len(broken))] = \
        np.tile([np.nan, np.inf, -np.inf, np.nan], len(positive))
    finite = table[:300].copy()
    finite[rng.integers(300, size=40), rng.choice(columns, size=40)] = 1e300
    mixed = np.vstack([broken, finite])
    rng.shuffle(mixed)
    all_nan = np.full((130, width), np.nan)
    bad = ~np.isfinite(mixed[:, columns]).all(axis=1)
    assert bad.sum() == len(broken)
    want = oracle.predict_many(sessions, mixed[~bad])
    assert all(answers.any() for answers in want)   # finite rows: a test

    def store_of(rows, chunk_rows):
        return Table("CAR", serve_lte.table.attributes, rows) \
            .to_store(chunk_rows=chunk_rows)

    # A store whose middle chunk is all NaN; later grown by a block.
    store = store_of(np.vstack([mixed[:260], all_nan]), 130)
    cases = [(mixed, mixed), (all_nan, all_nan), (store, store.data),
             (store, np.vstack([store.data, mixed[260:]])),
             (store_of(mixed[:0], 64), mixed[:0])]
    with ShardGateway(serve_lte, n_workers=2) as gateway, \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        remote = drive(gateway)
        gateway.flush_all()
        for rows, block in cases:
            if len(block) > len(rows):
                store.append_blocks([mixed[260:]])
            dead = ~np.isfinite(block[:, columns]).all(axis=1)
            served = manager.predict_many(sids, rows)
            sharded = gateway.predict_many(remote, rows)
            for i, session in enumerate(sessions):
                expected = oracle.predict_session(session, block[~dead])
                for got in (session.predict(rows), served[sids[i]],
                            sharded[remote[i]]):
                    assert is_answer(got, len(block))
                    assert not got[dead].any()
                    assert np.array_equal(got[~dead], expected)
