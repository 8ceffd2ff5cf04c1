"""Incremental serving over appended stores: watermarks, drift, rollout.

Freshness contract: a session that already answered at store version N
scans only chunks past its watermark when the store grows, and the
merged result is bit-for-bit what a full rescan produces — for every
variant, sequentially and through the serving engine.  Drift past the
fitted scaler range triggers an artifact refresh that rolls out through
the sharded gateway without dropping a live session.
"""

import copy

import numpy as np
import pytest

from repro.data.schema import Table
from repro.serve import SessionManager

pytestmark = pytest.mark.ingest


def grow(store_table, extra_rows):
    return np.array(store_table.data[:extra_rows])


def feed(manager, sid, oracle):
    for subspace, tuples in manager.initial_tuples(sid).items():
        manager.submit_labels(sid, subspace,
                              oracle.label_subspace(subspace, tuples))


def forget_marks(manager, sids):
    for sid in sids:
        manager.session(sid)._store_marks.clear()


# ----------------------------------------------------------------------
# Session-level watermarks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant", ["basic", "meta", "meta_star"])
def test_incremental_predict_matches_full_rescan(store_lte, store_subspaces,
                                                 store_table, make_oracle,
                                                 variant):
    store = store_table.to_store(chunk_rows=256)
    oracle = make_oracle(seed=5)
    session = store_lte.start_session(variant=variant,
                                      subspaces=store_subspaces, seed=7)
    for subspace, tuples in session.initial_tuples().items():
        session.submit_labels(subspace,
                              oracle.label_subspace(subspace, tuples))

    first = session.predict_store(store)
    assert session.last_store_scan["watermark_skipped"] == 0

    closed_before = store.closed_chunks
    extra = grow(store_table, 300)
    store.append_blocks([extra])

    incremental = session.predict_store(store)
    scan = dict(session.last_store_scan)
    # Only chunks past the watermark were eligible for scanning.
    assert scan["watermark_skipped"] == closed_before > 0
    assert scan["chunk_evals"] <= scan["chunks"] - closed_before

    # ... and the merged answer is bit-identical to a full rescan ...
    session._store_marks.clear()
    full = session.predict_store(store)
    assert session.last_store_scan["watermark_skipped"] == 0
    assert np.array_equal(incremental, full)

    # ... and to a from-scratch store over the concatenated rows.
    scratch = Table("CAR", store_table.attributes,
                    np.vstack([store_table.data, extra])).to_store(
                        chunk_rows=256)
    assert np.array_equal(full, session.predict_store(scratch))

    # A repeat at the same version is served wholesale from the mark.
    repeat = session.predict_store(store)
    assert np.array_equal(repeat, incremental)
    assert session.last_store_scan["chunk_evals"] == 0
    assert session.last_store_scan["watermark_skipped"] == store.n_chunks
    assert session.last_store_scan["sessions_served_from_mark"] == 1


# ----------------------------------------------------------------------
# Watermarks through the serving engine (kept on each session)
# ----------------------------------------------------------------------
def test_manager_incremental_parity_and_accounting(store_lte,
                                                   store_subspaces,
                                                   store_table, make_oracle):
    store = store_table.to_store(chunk_rows=256)
    manager = SessionManager(store_lte)
    oracles = make_oracle(seed=31, count=3)
    sids = [manager.open_session(variant="meta_star",
                                 subspaces=store_subspaces, seed=i)
            for i in range(3)]
    for sid, oracle in zip(sids, oracles):
        feed(manager, sid, oracle)
    manager.flush()

    first = manager.predict_many_store(sids, store)
    closed_before = store.closed_chunks
    store.append_blocks([grow(store_table, 400)])

    incremental = manager.predict_many_store(sids, store)
    scan = dict(manager.last_store_scan)
    assert scan["sessions"] == 3
    assert scan["watermark_skipped"] > 0        # closed prefix not re-run
    assert scan["chunk_evals"] < scan["chunk_evals_possible"]
    # At most the chunks past the watermark, for every session.
    assert scan["chunk_evals"] <= 3 * (store.n_chunks - closed_before)
    assert scan["sessions_served_from_mark"] == 0   # the store did grow

    forget_marks(manager, sids)
    full = manager.predict_many_store(sids, store)
    for sid in sids:
        assert np.array_equal(incremental[sid], full[sid])
        # The pre-append rows' predictions are stable across the append.
        assert np.array_equal(incremental[sid][:len(first[sid])],
                              first[sid])

    # A repeat at the same version touches zero chunks for every session.
    repeat = manager.predict_many_store(sids, store)
    assert manager.last_store_scan["chunk_evals"] == 0
    assert manager.last_store_scan["sessions_served_from_mark"] == 3
    for sid in sids:
        assert np.array_equal(repeat[sid], full[sid])


def test_lone_and_managed_sessions_report_the_same_scan(store_lte,
                                                       store_subspaces,
                                                       store_table,
                                                       make_oracle):
    """A lone session and a one-session manager run one scan: cold, then
    over an append, they answer alike and report equal accounting."""
    store = store_table.to_store(chunk_rows=256)
    oracle = make_oracle(seed=5)
    lone = store_lte.start_session(variant="meta_star",
                                   subspaces=store_subspaces, seed=7)
    for subspace, tuples in lone.initial_tuples().items():
        lone.submit_labels(subspace, oracle.label_subspace(subspace, tuples))
    manager = SessionManager(store_lte)
    sid = manager.open_session(variant="meta_star",
                               subspaces=store_subspaces, seed=7)
    feed(manager, sid, oracle)
    manager.flush()
    for step in range(2):
        if step:
            store.append_blocks([grow(store_table, 300)])
        answers = lone.predict_store(store)
        assert np.array_equal(manager.predict_store(sid, store), answers)
        assert lone.last_store_scan == manager.last_store_scan
    assert lone.last_store_scan["watermark_skipped"] > 0


def test_snapshot_restores_store_watermarks(tmp_path, store_lte,
                                            store_subspaces, store_table,
                                            make_oracle):
    """A restored manager resumes incremental scanning from each
    session's persisted per-store watermarks instead of paying one full
    rescan per session."""
    from repro import persist

    store = store_table.to_store(chunk_rows=256)
    manager = SessionManager(store_lte)
    oracles = make_oracle(seed=11, count=2)
    sids = [manager.open_session(variant="meta_star",
                                 subspaces=store_subspaces, seed=i)
            for i in range(2)]
    for sid, oracle in zip(sids, oracles):
        feed(manager, sid, oracle)
    manager.flush()
    before = manager.predict_many_store(sids, store)

    # Round-trip through the on-disk codec, not just the dict.
    persist.save_manager(tmp_path / "serving", manager)
    restored = persist.load_manager(tmp_path / "serving", store_lte)

    # Unchanged store: served wholesale from the restored marks —
    # zero chunks touched, answers bit-identical.
    served = restored.predict_many_store(sids, store)
    scan = dict(restored.last_store_scan)
    assert scan["sessions_served_from_mark"] == len(sids)
    assert scan["chunk_evals"] == 0
    for sid in sids:
        assert np.array_equal(served[sid], before[sid])

    # Appended store: the restored marks bound the scan to the new
    # chunks, and the merged result matches a from-scratch rescan.
    closed_before = store.closed_chunks
    assert closed_before > 0
    store.append_blocks([grow(store_table, 300)])
    incremental_mgr = SessionManager.restore(store_lte, manager.snapshot())
    incremental = incremental_mgr.predict_many_store(sids, store)
    scan = dict(incremental_mgr.last_store_scan)
    assert scan["sessions_served_from_mark"] == 0   # the store did grow
    assert scan["watermark_skipped"] == closed_before * len(sids)
    assert scan["chunk_evals"] < scan["chunk_evals_possible"]
    forget_marks(incremental_mgr, sids)
    full = incremental_mgr.predict_many_store(sids, store)
    for sid in sids:
        assert np.array_equal(incremental[sid], full[sid])


def test_readaptation_invalidates_only_that_sessions_mark(store_lte,
                                                          store_subspaces,
                                                          store_table,
                                                          make_oracle):
    store = store_table.to_store(chunk_rows=256)
    manager = SessionManager(store_lte)
    oracles = make_oracle(seed=43, count=2)
    sids = [manager.open_session(variant="meta_star",
                                 subspaces=store_subspaces, seed=i)
            for i in range(2)]
    for sid, oracle in zip(sids, oracles):
        feed(manager, sid, oracle)
    manager.flush()
    manager.predict_many_store(sids, store)

    # One more label round for session 0 bumps its model versions.
    subspace = store_subspaces[0]
    state = store_lte.states[subspace]
    extra = state.to_raw(state.data[60:64])
    manager.add_labels(sids[0], subspace, extra,
                       oracles[0].label_subspace(subspace, extra))
    manager.flush()

    results = manager.predict_many_store(sids, store)
    scan = dict(manager.last_store_scan)
    # Session 1's mark still serves; session 0's is stale and rescans.
    assert scan["sessions_served_from_mark"] == 1
    assert scan["chunk_evals"] == store.n_chunks

    forget_marks(manager, sids)
    full = manager.predict_many_store(sids, store)
    for sid in sids:
        assert np.array_equal(results[sid], full[sid])


def test_a_lost_watermark_rescans_only_that_session(store_lte,
                                                   store_subspaces,
                                                   store_table,
                                                   make_oracle):
    """Nothing else remembers a session's chunk answers: once its
    watermark is gone it rescans the whole store, while the others
    still skip their closed prefix — and all answer as a full rescan."""
    store = store_table.to_store(chunk_rows=256)
    manager = SessionManager(store_lte)
    oracles = make_oracle(seed=47, count=2)
    sids = [manager.open_session(variant="meta_star",
                                 subspaces=store_subspaces, seed=i)
            for i in range(2)]
    for sid, oracle in zip(sids, oracles):
        feed(manager, sid, oracle)
    manager.flush()
    manager.predict_many_store(sids, store)
    closed_before = store.closed_chunks
    assert closed_before > 0

    del manager.session(sids[0])._store_marks[store.uid]
    store.append_blocks([grow(store_table, 300)])
    results = manager.predict_many_store(sids, store)
    scan = dict(manager.last_store_scan)
    assert scan["sessions_served_from_mark"] == 0
    assert scan["watermark_skipped"] == closed_before
    assert scan["chunk_evals"] == 2 * store.n_chunks - closed_before

    forget_marks(manager, sids)
    full = manager.predict_many_store(sids, store)
    for sid in sids:
        assert np.array_equal(results[sid], full[sid])


def test_predict_group_spans_artifact_generations(store_lte,
                                                  store_subspaces,
                                                  store_table, make_oracle):
    """Sessions adapted under different artifact generations (before and
    after a refresh_subspace) must each encode with their *own* state —
    grouped serving stays bit-identical to per-session prediction."""
    lte = copy.deepcopy(store_lte)
    manager = SessionManager(lte)
    oracles = make_oracle(seed=47, count=2)

    old_sid = manager.open_session(variant="meta_star",
                                   subspaces=store_subspaces, seed=1)
    feed(manager, old_sid, oracles[0])
    manager.flush()

    lte.refresh_subspace(store_table, store_subspaces[0], train=True)

    new_sid = manager.open_session(variant="meta_star",
                                   subspaces=store_subspaces, seed=2)
    feed(manager, new_sid, oracles[1])
    manager.flush()

    rows = store_table.data[:400]
    grouped = manager.predict_many([old_sid, new_sid], rows)
    for sid in (old_sid, new_sid):
        reference = manager.session(sid).predict(rows)
        assert np.array_equal(grouped[sid], reference)


# ----------------------------------------------------------------------
# Drift-triggered refresh
# ----------------------------------------------------------------------
def test_drift_triggers_subspace_refresh(store_lte, store_subspaces,
                                         store_table, make_oracle):
    lte = copy.deepcopy(store_lte)
    store = store_table.to_store(chunk_rows=256)
    monitor = lte.freshness_monitor(threshold=0.2)
    monitor.observe(store)
    assert monitor.drifted() == []

    # Live sessions, adapted and watermarked before the drift.
    manager = SessionManager(lte)
    oracles = make_oracle(seed=53, count=2)
    sids = [manager.open_session(variant="meta_star",
                                 subspaces=store_subspaces, seed=i)
            for i in range(2)]
    for sid, oracle in zip(sids, oracles):
        feed(manager, sid, oracle)
    manager.flush()
    manager.predict_many_store(sids, store)
    closed_before = store.closed_chunks
    assert closed_before > 0

    target = store_subspaces[0]
    drifting = grow(store_table, 200)
    cols = list(target.columns)
    drifting[:, cols] = drifting[:, cols] * 4.0 + 100.0
    store.append_blocks([drifting])
    monitor.observe(store)
    assert monitor.drifted() == [target]

    old_state = lte.states[target]
    refreshed = lte.refresh_drifted(store, monitor, train=True)
    assert refreshed == [target]
    # Zero-downtime half: the state is replaced, never mutated.
    assert lte.states[target] is not old_state
    assert old_state.scaler is not lte.states[target].scaler
    # The refreshed scaler covers the drifted rows; the monitor is
    # re-armed against the new fit.
    assert monitor.drifted() == []
    monitor.observe(store)
    assert monitor.drifted() == []

    # The live sessions keep serving across the swap: their incremental
    # scan skips the closed prefix and equals a cold full rescan.
    incremental = manager.predict_many_store(sids, store)
    assert manager.last_store_scan["watermark_skipped"] == \
        closed_before * len(sids)
    forget_marks(manager, sids)
    full = manager.predict_many_store(sids, store)
    for sid in sids:
        assert np.array_equal(incremental[sid], full[sid])


def test_gateway_refresh_model_rolls_out_live(tmp_path, store_config,
                                              store_table):
    """The full streaming story through the sharded tier: append, detect
    drift, refresh + re-pretrain, broadcast — zero dropped sessions,
    already-adapted predictions bit-identical across the roll."""
    from repro.bench.workloads import convex_oracles
    from repro.core import LTE
    from repro.shard import ShardGateway

    store = store_table.to_store(chunk_rows=256,
                                 directory=str(tmp_path / "car"))
    lte = LTE(store_config)
    lte.fit_offline(store, subspaces=None)
    subspaces = list(lte.states)[:2]
    oracle = convex_oracles(lte, subspaces, 1, psi_choices=(12, 10),
                            seed=5)[0]
    eval_rows = store.sample_rows(200, seed=5)

    with ShardGateway(lte, n_workers=2) as gateway:
        old_version = gateway.model_version
        sids = [gateway.open_session(variant="meta_star",
                                     subspaces=subspaces, seed=i)
                for i in range(3)]
        for sid in sids:
            for subspace, tuples in gateway.initial_tuples(sid).items():
                gateway.submit_labels(sid, subspace,
                                      oracle.label_subspace(subspace,
                                                            tuples))
        gateway.flush_all()
        before = gateway.predict_many(sids, eval_rows)

        monitor = lte.freshness_monitor(threshold=0.2)
        monitor.observe(store)
        drifting = grow(store_table, 200)
        cols = list(subspaces[0].columns)
        drifting[:, cols] = drifting[:, cols] * 4.0 + 100.0
        store.append_blocks([drifting])
        monitor.observe(store)
        drifted = monitor.drifted()
        assert drifted == [subspaces[0]]

        new_version = gateway.refresh_model(drifted, train=True)
        assert new_version != old_version
        assert gateway.model_version == new_version
        stats = gateway.stats()
        assert all(w["model"] == new_version for w in stats["workers"])

        # Zero dropped sessions: every live session still serves, and
        # its already-adapted predictions are bit-identical.
        after = gateway.predict_many(sids, eval_rows)
        for sid in sids:
            assert gateway.poll(sid)["errors"] == []
            assert np.array_equal(after[sid], before[sid])

        # Sessions opened after the roll adapt under the fresh artifacts.
        fresh = gateway.open_session(variant="meta_star",
                                     subspaces=subspaces, seed=9)
        for subspace, tuples in gateway.initial_tuples(fresh).items():
            gateway.submit_labels(fresh, subspace,
                                  oracle.label_subspace(subspace, tuples))
        gateway.flush_all()
        assert gateway.predict(fresh, eval_rows).shape == (200,)
        assert gateway.poll(fresh)["errors"] == []
