"""A serving checkpoint in the format the prediction cache left behind.

Until the versioned prediction cache was deleted, every
``session-manager`` snapshot carried a ``"cache"`` field: its capacity,
hit and miss counts and entries — one per (session, model versions,
rows digest) with ``"models"``, or, in older checkpoints, one per
(session, subspace) without.  Such a checkpoint still loads: the field
is ignored (no answer depended on it), and the restored manager answers
like the manager it was taken from, its store-scan watermarks included.
"""

import numpy as np
import pytest

from repro import persist
from repro.data.schema import Table
from repro.persist.cli import main as persist_cli
from repro.serve import SessionManager

pytestmark = pytest.mark.smoke


def _parent_cache(manager, sids, rows):
    """The ``"cache"`` field as the parent format wrote it: one entry
    with ``"models"`` and one without."""
    session = manager.session(sids[0])
    subspace, subsession = next(iter(session._subsessions.items()))
    return {
        "capacity": 1024, "hits": 3, "misses": 5,
        "entries": [
            {"session": sids[0],
             "models": [{"subspace": list(s.names),
                         "version": int(ss.model_version)}
                        for s, ss in session._subsessions.items()],
             "digest": "0" * 32,
             "value": manager.predict(sids[0], rows)},
            {"session": sids[1], "subspace": list(subspace.names),
             "version": int(subsession.model_version),
             "digest": "1" * 32,
             "value": np.zeros(len(rows), dtype=np.int64)},
        ],
    }


def test_a_parent_format_checkpoint_restores_and_answers_alike(
        tmp_path, persist_lte, persist_subspaces, make_oracle, eval_rows,
        capsys):
    lte = persist_lte
    manager = SessionManager(lte)
    sids = []
    for k in range(2):
        sid = manager.open_session(variant="meta_star",
                                   subspaces=persist_subspaces, seed=k)
        oracle = make_oracle(700 + k)
        for subspace, tuples in manager.initial_tuples(sid).items():
            manager.submit_labels(sid, subspace,
                                  oracle.label_subspace(subspace, tuples))
        sids.append(sid)
    rows = lte.table.sample_rows(600, seed=9)
    store = Table("CAR", lte.table.attributes, rows[:500]) \
        .to_store(chunk_rows=64)
    manager.predict_many_store(sids, store)
    assert len(manager._store_marks) == len(sids)

    # Today's checkpoint, re-written with the parent's "cache" field.
    persist.save_manager(tmp_path / "today", manager)
    state, info = persist.load_checkpoint(tmp_path / "today")
    assert "cache" not in state["snapshot"]
    state["snapshot"]["cache"] = _parent_cache(manager, sids, eval_rows)
    parent = tmp_path / "parent"
    persist.save_checkpoint(parent, "session-manager", state,
                            meta=info["meta"])

    restored = persist.load_manager(parent, lte)
    assert restored._store_marks.keys() == manager._store_marks.keys()
    for key, mark in manager._store_marks.items():
        for field, value in mark.items():
            if field == "result":
                assert np.array_equal(restored._store_marks[key][field],
                                      value)
            else:
                assert restored._store_marks[key][field] == value, field

    # Served from the watermarks, then incrementally over an append.
    for front in (manager, restored):
        front.predict_many_store(sids, store)
        assert front.last_store_scan["sessions_served_from_mark"] == \
            len(sids)
    live_rows = manager.predict_many(sids, eval_rows)
    served_rows = restored.predict_many(sids, eval_rows)
    store.append_blocks([rows[500:]])
    live = manager.predict_many_store(sids, store)
    served = restored.predict_many_store(sids, store)
    assert restored.last_store_scan == manager.last_store_scan
    assert restored.last_store_scan["watermark_skipped"] > 0
    for sid in sids:
        assert np.array_equal(served_rows[sid], live_rows[sid])
        assert np.array_equal(served[sid], live[sid])

    # The command-line tool reads it too.
    assert persist_cli(["inspect", str(parent)]) == 0
    assert persist_cli(["load", str(parent)]) == 0
    out = capsys.readouterr().out
    assert "kind: session-manager" in out
    assert "watermarks: {} (stores 1)".format(len(sids)) in out


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


def test_a_parent_format_snapshot_with_queued_work_flushes_alike(
        persist_lte, persist_subspaces, make_oracle, eval_rows):
    """The parent's ``"cache"`` field rides along with a queue that was
    never flushed: the restored queue adapts exactly as the live one."""
    manager, sids = _fed_manager(persist_lte, persist_subspaces,
                                 make_oracle, 2)
    snapshot = manager.snapshot()
    assert len(snapshot["queue"]) == 2 * len(persist_subspaces)
    snapshot["cache"] = {"capacity": 1024, "hits": 0, "misses": 0,
                         "entries": []}
    restored = SessionManager.restore(persist_lte, snapshot)
    assert restored.pending() == manager.pending()
    assert restored.flush() == manager.flush()
    for sid in sids:
        assert np.array_equal(restored.predict(sid, eval_rows),
                              manager.predict(sid, eval_rows))


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
    stores = [Table("CAR", persist_lte.table.attributes, part)
              .to_store(chunk_rows=64) for part in (rows[:200], rows[200:])]
    manager.predict_many_store(sids, stores[0])
    manager.predict_many_store(sids[:2], stores[1])
    persist.save_manager(tmp_path / "serving", manager)
    assert persist_cli(["load", str(tmp_path / "serving")]) == 0
    out = capsys.readouterr().out
    assert "sessions: 3   queued: 0   watermarks: 5 (stores 2)" in out
