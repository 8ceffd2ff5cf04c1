"""Mid-run interruption parity: restore-and-continue == never interrupted.

The acceptance property of the persist subsystem: a
:class:`~repro.serve.SessionManager` snapshotted mid-workload — adapted
sessions, a *pending* (unflushed) label batch, its serving counters —
and restored through an actual disk round trip must serve bit-identical
predictions AND continue its counters exactly like the manager that was
never interrupted, for all three variants.
"""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro import persist
from repro.explore import score_session
from repro.serve import SessionManager


def _label_initial(manager, sid, oracle):
    for subspace, tuples in manager.initial_tuples(sid).items():
        manager.submit_labels(sid, subspace,
                              oracle.label_subspace(subspace, tuples))


def _extra_round(manager, sid, subspace, oracle, lte, n=4):
    state = lte.states[subspace]
    tuples = state.to_raw(state.data[10:10 + n])
    manager.add_labels(sid, subspace, tuples,
                       oracle.label_subspace(subspace, tuples))


def _counters(manager):
    """The manager's own counters and gauges (``serve.manager.*``); the
    pack cache's are left out, as a restored manager recompiles its
    packs."""
    return {name: entry["value"]
            for name, entry in manager.metrics.snapshot().items()
            if name.startswith("serve.manager.")
            and entry["kind"] in ("counter", "gauge")}


def _continue_workload(manager, sids, subspace, oracles, lte, eval_rows,
                       fresh_rows):
    """The post-snapshot half of the workload; returns every observable."""
    out = {}
    # Retrieval at the snapshotted model versions first.
    out["repeated"] = {sid: manager.predict(sid, eval_rows) for sid in sids}
    # Re-adaptation round for session 0 (drains the snapshotted pending
    # batch too), then fresh predictions under the bumped model version.
    _extra_round(manager, sids[0], subspace, oracles[0], lte)
    out["polls"] = {sid: manager.poll(sid) for sid in sids}
    out["readapted"] = {sid: manager.predict(sid, eval_rows)
                        for sid in sids}
    out["fresh"] = {sid: manager.predict(sid, fresh_rows) for sid in sids}
    out["counters"] = _counters(manager)
    out["sessions"], out["queued"] = manager.n_sessions, manager.pending()
    return out


@pytest.mark.slow
@pytest.mark.parametrize("variant", ["basic", "meta", "meta_star"])
def test_snapshot_restore_parity(tmp_path, persist_lte, persist_subspaces,
                                 make_oracle, eval_rows, variant):
    lte = persist_lte
    oracles = [make_oracle(100), make_oracle(200)]
    fresh_rows = lte.table.sample_rows(150, seed=77)
    subspace = persist_subspaces[0]

    def build_to_snapshot_point():
        """N submit/flush cycles + a pending batch left in the queue."""
        manager = SessionManager(lte)
        sids = [manager.open_session(variant=variant,
                                     subspaces=persist_subspaces,
                                     seed=10 + k) for k in range(2)]
        for sid, oracle in zip(sids, oracles):
            _label_initial(manager, sid, oracle)
        manager.flush()
        for sid in sids:
            manager.predict(sid, eval_rows)
        manager.predict(sids[0], eval_rows)    # and once more
        # Leave session 1's next label round *pending* at snapshot time.
        state = lte.states[subspace]
        tuples = state.to_raw(state.data[30:33])
        manager.add_labels(sids[1], subspace, tuples,
                           oracles[1].label_subspace(subspace, tuples))
        return manager, sids

    # Interrupted path: snapshot -> disk -> restore -> continue.
    manager_a, sids = build_to_snapshot_point()
    assert manager_a.pending(sids[1])          # snapshot catches real work
    persist.save_manager(tmp_path / "snap", manager_a,
                         meta={"variant": variant})
    restored = persist.load_manager(tmp_path / "snap", lte)
    assert restored.pending(sids[1]) == manager_a.pending(sids[1])
    continued = _continue_workload(restored, sids, subspace, oracles, lte,
                                   eval_rows, fresh_rows)

    # Uninterrupted control: identical workload, no snapshot/restore.
    manager_b, sids_b = build_to_snapshot_point()
    assert sids_b == sids                      # deterministic session ids
    control = _continue_workload(manager_b, sids, subspace, oracles, lte,
                                 eval_rows, fresh_rows)

    for phase in ("repeated", "readapted", "fresh"):
        for sid in sids:
            assert np.array_equal(continued[phase][sid],
                                  control[phase][sid]), (phase, sid)
    assert continued["polls"] == control["polls"]
    # The counters continue from the snapshot: the restored manager
    # opened no session itself, yet counts both.
    assert continued["counters"] == control["counters"]
    assert continued["counters"]["serve.manager.sessions.opened"] == 2
    assert (continued["sessions"], continued["queued"]) == \
        (control["sessions"], control["queued"]) == (2, [])


@pytest.mark.parametrize("variant", ["meta", "meta_star"])
def test_session_checkpoint_resume(tmp_path, persist_lte, persist_subspaces,
                                   make_oracle, eval_rows, variant):
    """Sequential sessions are resumable too: save -> load -> continue."""
    lte = persist_lte
    oracle = make_oracle(300)
    session = lte.start_session(variant=variant,
                                subspaces=persist_subspaces, seed=3)
    for subspace, tuples in session.initial_tuples().items():
        session.submit_labels(subspace, oracle.label_subspace(subspace,
                                                              tuples))
    persist.save_session(tmp_path / "sess", session)
    resumed = persist.load_session(tmp_path / "sess", lte)

    assert np.array_equal(session.predict(eval_rows),
                          resumed.predict(eval_rows))
    result_live = score_session(session, oracle, eval_rows)
    result_resumed = score_session(resumed, oracle, eval_rows)
    assert result_live.f1 == result_resumed.f1
    assert result_live.labels_used == result_resumed.labels_used

    # Continue with an extra labelled round on both; still bit-identical.
    subspace = persist_subspaces[0]
    state = lte.states[subspace]
    tuples = state.to_raw(state.data[5:9])
    labels = oracle.label_subspace(subspace, tuples)
    session.add_labels(subspace, tuples, labels)
    resumed.add_labels(subspace, tuples, labels)
    assert np.array_equal(session.predict(eval_rows),
                          resumed.predict(eval_rows))


def test_restore_against_reloaded_pretrained_lte(tmp_path, persist_table,
                                                 persist_config,
                                                 persist_subspaces,
                                                 persist_lte, make_oracle,
                                                 eval_rows):
    """The full restart story: pretrained artifact + serving snapshot
    restored into a *separately prepared* LTE give identical serving."""
    from repro.core import LTE

    oracle = make_oracle(400)
    manager = SessionManager(persist_lte)
    sid = manager.open_session(variant="meta_star",
                               subspaces=persist_subspaces, seed=4)
    _label_initial(manager, sid, oracle)
    manager.flush()
    expected = manager.predict(sid, eval_rows)
    persist.save_pretrained(tmp_path / "lte", persist_lte)
    persist.save_manager(tmp_path / "serving", manager)

    # "New process": prepare offline artifacts cheaply, restore weights.
    lte2 = LTE(persist_config)
    lte2.fit_offline(persist_table, subspaces=persist_subspaces,
                     train=False)
    persist.load_pretrained(tmp_path / "lte", lte2)
    manager2 = persist.load_manager(tmp_path / "serving", lte2)
    assert np.array_equal(manager2.predict(sid, eval_rows), expected)
    # Rows never predicted before the snapshot force the restored weights
    # (not just the restored cache) through the full serving path.
    fresh_rows = persist_lte.table.sample_rows(120, seed=91)
    assert np.array_equal(manager2.predict(sid, fresh_rows),
                          manager.predict(sid, fresh_rows))


_FIT_AND_SAVE = """
import pickle
import sys

from repro import persist
from repro.core import LTE

with open(sys.argv[1], "rb") as fh:
    config, table, subspaces = pickle.load(fh)
lte = LTE(config)
lte.fit_offline(table, subspaces=subspaces)
persist.save_pretrained(sys.argv[2], lte)
"""


def test_pretrained_checkpoint_outlives_its_process(tmp_path, persist_table,
                                                    persist_config,
                                                    persist_subspaces,
                                                    persist_lte, make_oracle,
                                                    eval_rows):
    """Save -> exit -> restore: a checkpoint a child process fits and
    writes, loaded into a system prepared with ``train=False``, serves
    exactly what the system trained in this process serves."""
    from repro.core import LTE

    system = tmp_path / "system.pkl"
    with open(system, "wb") as fh:
        pickle.dump((persist_config, persist_table, persist_subspaces), fh)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", _FIT_AND_SAVE, str(system),
                    str(tmp_path / "lte")], env=env, check=True,
                   capture_output=True, text=True)

    restored = LTE(persist_config)
    restored.fit_offline(persist_table, subspaces=persist_subspaces,
                         train=False)
    persist.load_pretrained(tmp_path / "lte", restored)

    oracle = make_oracle(410)
    answers = []
    for lte in (persist_lte, restored):
        manager = SessionManager(lte)
        sids = [manager.open_session(variant=variant,
                                     subspaces=persist_subspaces, seed=6)
                for variant in ("meta", "meta_star")]
        for sid in sids:
            _label_initial(manager, sid, oracle)
        manager.flush()
        answers.append([manager.predict_many(sids, eval_rows)[sid]
                        for sid in sids])
    for trained, loaded in zip(*answers):
        assert np.array_equal(trained, loaded)
