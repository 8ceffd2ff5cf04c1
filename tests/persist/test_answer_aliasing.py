"""Mutable-state sharing audit: an answer cannot be changed through an
alias.

The manager's public API returns writable arrays of the caller's own,
and checkpoint restore deep-copies, so neither a caller scribbling on an
answer nor on a snapshot reaches the manager's later answers.
"""

import numpy as np
import pytest

from repro.serve import SessionManager


pytestmark = pytest.mark.smoke


@pytest.fixture()
def adapted_manager(persist_lte, persist_subspaces, make_oracle):
    manager = SessionManager(persist_lte)
    sid = manager.open_session(variant="meta_star",
                               subspaces=persist_subspaces, seed=2)
    oracle = make_oracle(500)
    for subspace, tuples in manager.initial_tuples(sid).items():
        manager.submit_labels(sid, subspace,
                              oracle.label_subspace(subspace, tuples))
    manager.flush()
    return manager, sid


class TestManagerAliasing:
    def test_mutating_returned_prediction_cannot_change_later_answers(
            self, adapted_manager, eval_rows):
        manager, sid = adapted_manager
        first = manager.predict(sid, eval_rows)
        original = first.copy()
        first[:] = 9                    # caller scribbles on the result
        again = manager.predict(sid, eval_rows)
        assert np.array_equal(again, original)

    def test_mutating_subspace_prediction_cannot_change_later_answers(
            self, adapted_manager, persist_subspaces, persist_lte):
        manager, sid = adapted_manager
        subspace = persist_subspaces[0]
        points = persist_lte.states[subspace].to_raw(
            persist_lte.states[subspace].data[:20])
        first = manager.predict_subspace(sid, subspace, points)
        original = first.copy()
        first[:] = 9
        assert np.array_equal(
            manager.predict_subspace(sid, subspace, points), original)

    def test_restore_does_not_alias_snapshot(self, adapted_manager,
                                             persist_lte, eval_rows):
        manager, sid = adapted_manager
        expected = manager.predict(sid, eval_rows)
        snapshot = manager.snapshot()
        restored = SessionManager.restore(persist_lte, snapshot)
        # Scribble over every array in the snapshot itself...
        for entry in snapshot["sessions"]:
            for sub_state in entry["state"]["sessions"]:
                sub_state["initial_scaled"][:] = 9
        # ...the restored manager must be unaffected.
        assert np.array_equal(restored.predict(sid, eval_rows), expected)
