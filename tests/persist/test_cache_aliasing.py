"""Mutable-state sharing audit: caches cannot be poisoned through aliases.

Three layers of the contract (ISSUE 2, satellite 4):

* ``core.memory.LRUStore`` stores references by design — that sharing is
  now *documented*, and the layers above it must compensate;
* ``serve.cache.PredictionCache`` freezes a private copy on ``put``, so
  neither the producer's array nor an in-place write through a returned
  reference can change a cached prediction;
* the manager's public API returns writable copies, and checkpoint
  restore deep-copies, so a restored manager never aliases its snapshot.
"""

import numpy as np
import pytest

from repro.core.memory import LRUStore
from repro.serve import PredictionCache, SessionManager
from repro.serve.cache import rows_digest


pytestmark = pytest.mark.smoke


class TestLRUStoreSharing:
    def test_store_holds_references_as_documented(self):
        store = LRUStore(4)
        value = np.arange(3)
        store.put("k", value)
        assert store.get("k") is value  # the documented aliasing contract

    def test_items_does_not_touch_recency(self):
        store = LRUStore(2)
        store.put("old", 1)
        store.put("new", 2)
        list(store.items())
        store.put("third", 3)           # evicts "old", not "new"
        assert "old" not in store
        assert "new" in store

    def test_items_order_replays_lru(self):
        store = LRUStore(3)
        for key in ("a", "b", "c"):
            store.put(key, key)
        store.get("a")                  # bump recency
        replay = LRUStore(3)
        for key, value in store.items():
            replay.put(key, value)
        replay.put("d", "d")            # evicts the true LRU entry: "b"
        assert "b" not in replay
        assert "a" in replay


class TestPredictionCacheFreezing:
    def test_producer_mutation_cannot_reach_cache(self):
        cache = PredictionCache(4)
        value = np.array([1, 0, 1])
        cache.put("k", value)
        value[:] = 9
        assert np.array_equal(cache.get("k"), [1, 0, 1])

    def test_returned_array_is_frozen(self):
        cache = PredictionCache(4)
        cache.put("k", np.array([1, 0, 1]))
        returned = cache.get("k")
        with pytest.raises(ValueError):
            returned[:] = 9
        assert np.array_equal(cache.get("k"), [1, 0, 1])

    def test_state_dict_is_deep(self):
        cache = PredictionCache(4)
        key = (0, ((("a", "b"), 1), (("c",), 2)), "d")
        cache.put(key, np.array([1, 0]))
        state = cache.state_dict()
        state["entries"][0]["value"][:] = 9     # mutate the snapshot
        assert np.array_equal(cache.get(key), [1, 0])
        restored = PredictionCache(4)
        restored.load_state_dict(cache.state_dict())
        assert np.array_equal(restored.get(key), [1, 0])


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
    def test_mutating_returned_prediction_cannot_poison_cache(
            self, adapted_manager, eval_rows):
        manager, sid = adapted_manager
        first = manager.predict(sid, eval_rows)
        original = first.copy()
        first[:] = 9                    # caller scribbles on the result
        again = manager.predict(sid, eval_rows)
        assert np.array_equal(again, original)

    def test_mutating_subspace_prediction_cannot_poison_cache(
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
        expected = manager.predict(sid, eval_rows)  # warm the cache
        snapshot = manager.snapshot()
        restored = SessionManager.restore(persist_lte, snapshot)
        # Scribble over every array in the snapshot itself...
        for entry in snapshot["cache"]["entries"]:
            entry["value"][:] = 9
        for entry in snapshot["sessions"]:
            for sub_state in entry["state"]["sessions"]:
                sub_state["initial_scaled"][:] = 9
        # ...the restored manager must be unaffected.
        assert np.array_equal(restored.predict(sid, eval_rows), expected)
        digest = rows_digest(np.atleast_2d(
            np.asarray(eval_rows, dtype=np.float64)))
        assert isinstance(digest, str)
