"""Store-scan watermarks survive both checkpoint kinds.

A session keeps, per store uid, the store version it last answered at
and that answer; the next scan of an unchanged store evaluates no chunk,
and the next scan of an appended one only the chunks past its closed
prefix.  The watermarks are part of the session's state, so a session
restored with ``load_session`` and a manager restored with
``load_manager`` both resume incremental scanning.  A checkpoint in the
layout that kept them elsewhere (or not at all) is refused with a
``CheckpointError`` naming the missing field, never silently rescanned.
"""

import numpy as np
import pytest

from repro import persist
from repro.data.schema import Table
from repro.persist import CheckpointError
from repro.persist.cli import main as persist_cli
from repro.serve import SessionManager

pytestmark = pytest.mark.smoke


def _store(lte, rows):
    return Table("CAR", lte.table.attributes, rows).to_store(chunk_rows=64)


def _fed_session(lte, subspaces, make_oracle):
    session = lte.start_session(variant="meta_star", subspaces=subspaces,
                                seed=3)
    oracle = make_oracle(710)
    for subspace, tuples in session.initial_tuples().items():
        session.submit_labels(subspace,
                              oracle.label_subspace(subspace, tuples))
    return session


def _fed_manager(lte, subspaces, make_oracle, n_sessions):
    manager = SessionManager(lte)
    sids = []
    for k in range(n_sessions):
        sid = manager.open_session(variant="meta_star",
                                   subspaces=subspaces, seed=k)
        oracle = make_oracle(720 + k)
        for subspace, tuples in manager.initial_tuples(sid).items():
            manager.submit_labels(sid, subspace,
                                  oracle.label_subspace(subspace, tuples))
        sids.append(sid)
    return manager, sids


def assert_same_marks(mine, theirs):
    assert mine.keys() == theirs.keys()
    for uid, mark in mine.items():
        assert mark.keys() == theirs[uid].keys()
        for field, value in mark.items():
            if field == "result":
                assert value.dtype == theirs[uid][field].dtype == np.int8
                assert np.array_equal(value, theirs[uid][field])
            else:
                assert value == theirs[uid][field], field


def test_a_restored_lone_session_answers_an_unchanged_store_from_its_marks(
        tmp_path, persist_lte, persist_subspaces, make_oracle):
    rows = persist_lte.table.sample_rows(700, seed=9)
    store = _store(persist_lte, rows[:500])
    session = _fed_session(persist_lte, persist_subspaces, make_oracle)
    before = session.predict_store(store)
    assert session.last_store_scan["chunk_evals"] > 0

    persist.save_session(tmp_path / "session", session)
    restored = persist.load_session(tmp_path / "session", persist_lte)
    assert_same_marks(restored._store_marks, session._store_marks)
    served = restored.predict_store(store)
    assert np.array_equal(served, before)
    scan = restored.last_store_scan
    assert scan["chunk_evals"] == 0
    assert scan["watermark_skipped"] == store.n_chunks
    assert scan["sessions_served_from_mark"] == 1

    # Over an append both scan only past the closed prefix, alike.
    store.append_blocks([rows[500:]])
    live = session.predict_store(store)
    assert np.array_equal(restored.predict_store(store), live)
    assert restored.last_store_scan == session.last_store_scan
    assert restored.last_store_scan["watermark_skipped"] > 0


def test_a_restored_manager_keeps_every_sessions_marks(
        tmp_path, persist_lte, persist_subspaces, make_oracle):
    manager, sids = _fed_manager(persist_lte, persist_subspaces,
                                 make_oracle, 2)
    store = _store(persist_lte, persist_lte.table.sample_rows(500, seed=9))
    before = manager.predict_many_store(sids, store)
    persist.save_manager(tmp_path / "serving", manager)
    restored = persist.load_manager(tmp_path / "serving", persist_lte)
    for sid in sids:
        assert_same_marks(restored.session(sid)._store_marks,
                          manager.session(sid)._store_marks)
    served = restored.predict_many_store(sids, store)
    assert restored.last_store_scan["chunk_evals"] == 0
    assert restored.last_store_scan["sessions_served_from_mark"] == 2
    for sid in sids:
        assert np.array_equal(served[sid], before[sid])


def test_parent_layout_checkpoints_are_refused(
        tmp_path, persist_lte, persist_subspaces, make_oracle, capsys):
    """The parent layout: a session's state without its marks, and a
    manager snapshot keeping them in a table of its own beside the
    adaptation counts its metrics also carry."""
    store = _store(persist_lte, persist_lte.table.sample_rows(300, seed=9))
    session = _fed_session(persist_lte, persist_subspaces, make_oracle)
    session.predict_store(store)
    persist.save_session(tmp_path / "session", session)
    state, info = persist.load_checkpoint(tmp_path / "session")
    del state["session"]["store_marks"]
    persist.save_checkpoint(tmp_path / "parent-session",
                            "exploration-session", state, meta=info["meta"])
    with pytest.raises(CheckpointError, match="'store_marks'"):
        persist.load_session(tmp_path / "parent-session", persist_lte)

    manager, sids = _fed_manager(persist_lte, persist_subspaces,
                                 make_oracle, 2)
    manager.predict_many_store(sids, store)
    persist.save_manager(tmp_path / "serving", manager)
    state, info = persist.load_checkpoint(tmp_path / "serving")
    snapshot = state["snapshot"]
    snapshot["store_marks"] = []
    for entry in snapshot["sessions"]:
        for uid, mark in entry["state"].pop("store_marks").items():
            snapshot["store_marks"].append(
                dict(mark, session_id=entry["id"], uid=uid,
                     models=list(mark["models"])))
    snapshot["adapt_batches"] = manager.adapt_batches
    snapshot["adapted_total"] = manager.adapted_total
    parent = tmp_path / "parent-serving"
    persist.save_checkpoint(parent, "session-manager", state,
                            meta=info["meta"])
    with pytest.raises(CheckpointError, match="'store_marks'"):
        persist.load_manager(parent, persist_lte)
    assert persist_cli(["load", str(parent)]) == 2
    assert "'store_marks'" in capsys.readouterr().err


def test_load_counts_no_watermarks_before_a_store_scan(
        tmp_path, persist_lte, persist_subspaces, make_oracle, capsys):
    manager, sids = _fed_manager(persist_lte, persist_subspaces,
                                 make_oracle, 2)
    persist.save_manager(tmp_path / "serving", manager)
    assert persist_cli(["load", str(tmp_path / "serving")]) == 0
    out = capsys.readouterr().out
    assert "sessions: {}   queued: {}   watermarks: 0 (stores 0)".format(
        len(sids), 2 * len(persist_subspaces)) in out


def test_load_counts_watermarks_per_store(
        tmp_path, persist_lte, persist_subspaces, make_oracle, capsys):
    manager, sids = _fed_manager(persist_lte, persist_subspaces,
                                 make_oracle, 3)
    rows = persist_lte.table.sample_rows(300, seed=11)
    stores = [_store(persist_lte, part) for part in (rows[:200], rows[200:])]
    manager.predict_many_store(sids, stores[0])
    manager.predict_many_store(sids[:2], stores[1])
    persist.save_manager(tmp_path / "serving", manager)
    assert persist_cli(["inspect", str(tmp_path / "serving")]) == 0
    assert persist_cli(["load", str(tmp_path / "serving")]) == 0
    out = capsys.readouterr().out
    assert "kind: session-manager" in out
    assert "sessions: 3   queued: 0   watermarks: 5 (stores 2)" in out
