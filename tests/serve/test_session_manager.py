"""SessionManager behaviour: queueing, isolation, determinism, counters."""

import numpy as np
import pytest

from repro.serve import SessionManager

pytestmark = pytest.mark.smoke


@pytest.fixture()
def manager(serve_lte):
    return SessionManager(serve_lte)


class TestLifecycle:
    def test_requires_fitted_lte(self):
        with pytest.raises(TypeError):
            SessionManager(object())

    def test_open_close(self, manager, serve_subspaces):
        sid = manager.open_session(subspaces=serve_subspaces)
        assert manager.n_sessions == 1
        manager.close_session(sid)
        assert manager.n_sessions == 0
        with pytest.raises(KeyError):
            manager.session(sid)

    def test_unknown_session_rejected(self, manager):
        with pytest.raises(KeyError):
            manager.submit_labels(999, None, [])

    def test_close_drops_queued_work(self, manager, serve_subspaces,
                                     make_oracle):
        oracle = make_oracle(1)
        sid = manager.open_session(subspaces=serve_subspaces)
        for subspace, tuples in manager.initial_tuples(sid).items():
            manager.submit_labels(sid, subspace,
                                  oracle.label_subspace(subspace, tuples))
        assert len(manager.pending(sid)) == len(serve_subspaces)
        manager.close_session(sid)
        assert manager.pending() == []
        assert manager.flush() == 0


class TestQueueing:
    def test_submit_validates_immediately(self, manager, serve_subspaces):
        sid = manager.open_session(subspaces=serve_subspaces)
        with pytest.raises(ValueError):
            manager.submit_labels(sid, serve_subspaces[0], np.ones(3))
        assert manager.pending(sid) == []

    def test_hostile_labels_raise_at_enqueue(self, manager, serve_lte,
                                             serve_subspaces, make_oracle):
        """NaN / out-of-range labels and non-finite tuples raise from
        submit_labels / add_labels themselves: nothing is queued and
        another session's pending work is untouched."""
        oracle = make_oracle(9)
        subspace = serve_subspaces[0]
        state = serve_lte.states[subspace]
        other = manager.open_session(subspaces=[subspace])
        tuples = manager.initial_tuples(other)[subspace]
        good = oracle.label_subspace(subspace, tuples)
        manager.submit_labels(other, subspace, good)

        sid = manager.open_session(subspaces=[subspace])
        for bad in (np.nan, 2, -1, 0.7):
            labels = np.asarray(good, dtype=np.float64)
            labels[2] = bad
            with pytest.raises(ValueError, match="position 2"):
                manager.submit_labels(sid, subspace, labels)
        assert manager.pending() == [(other, subspace)]

        manager.submit_labels(sid, subspace, good)
        assert manager.flush() == 2
        extra = state.to_raw(state.data[5:7])
        with pytest.raises(ValueError, match="position 0"):
            manager.add_labels(sid, subspace, extra, [np.nan, 1])
        with pytest.raises(ValueError, match="non-finite"):
            manager.add_labels(sid, subspace, extra * np.inf, [0, 1])
        assert manager.pending() == []
        manager.add_labels(sid, subspace, extra, [0, 1])
        assert manager.flush() == 1

    def test_rows_of_the_wrong_width_raise_before_any_flush(
            self, manager, serve_lte, serve_subspaces, make_oracle):
        """A leading id column (d+1) used to shift every attribute
        silently, a missing column to end in an ``IndexError``; both
        raise from predict / predict_many themselves, with the queue
        still unflushed."""
        subspace = serve_subspaces[0]
        sid = manager.open_session(subspaces=[subspace])
        tuples = manager.initial_tuples(sid)[subspace]
        manager.submit_labels(sid, subspace,
                              make_oracle(9).label_subspace(subspace, tuples))
        rows = serve_lte.table.data[:12]
        d = rows.shape[1]
        with_id = np.column_stack([np.arange(12.0), rows])
        message = "rows have {} columns, the fitted table has {}"
        with pytest.raises(ValueError, match=message.format(d + 1, d)):
            manager.predict_many([sid], with_id)
        with pytest.raises(ValueError, match=message.format(d + 1, d)):
            manager.predict(sid, with_id)
        with pytest.raises(ValueError, match=message.format(d - 1, d)):
            manager.predict(sid, rows[:, 1:])
        assert manager.pending() == [(sid, subspace)]
        assert manager.predict(sid, rows[0]).shape == (1,)    # one 1-D row
        assert manager.predict(sid, rows[:0]).shape == (0,)
        assert manager.pending() == []

    def test_subspace_points_of_the_wrong_width_raise_before_any_flush(
            self, manager, serve_lte, serve_subspaces, make_oracle):
        """A ``(n, 1)`` array for a 2-D subspace used to be broadcast by
        the scaler into two equal columns and answered."""
        subspace = serve_subspaces[0]
        assert subspace.dim == 2
        sid = manager.open_session(subspaces=[subspace])
        tuples = manager.initial_tuples(sid)[subspace]
        manager.submit_labels(sid, subspace,
                              make_oracle(9).label_subspace(subspace, tuples))
        points = subspace.project(serve_lte.table.data[:50])
        message = r"points have {} columns, subspace \(" + \
            ", ".join(subspace.names) + r"\) has 2"
        with pytest.raises(ValueError, match=message.format(1)):
            manager.predict_subspace(sid, subspace, points[:, :1])
        with pytest.raises(ValueError, match=message.format(3)):
            manager.predict_subspace(
                sid, subspace, np.column_stack([points, points[:, 0]]))
        assert manager.pending() == [(sid, subspace)]
        answers = manager.predict_subspace(sid, subspace, points)
        assert answers.shape == (50,)
        assert manager.pending() == []
        assert np.array_equal(
            manager.predict_subspace(sid, subspace, points[0]), answers[:1])
        assert manager.predict_subspace(sid, subspace,
                                        points[:0]).shape == (0,)

    def test_add_labels_requires_initial(self, manager, serve_subspaces):
        sid = manager.open_session(subspaces=[serve_subspaces[0]])
        with pytest.raises(RuntimeError):
            manager.add_labels(sid, serve_subspaces[0],
                               np.zeros((1, 2)), [1])

    def test_add_labels_validates_tuple_width(self, manager, serve_subspaces,
                                              make_oracle, serve_lte):
        """Mis-shaped extra tuples are rejected at enqueue and never
        poison the subsession's accumulated label state."""
        oracle = make_oracle(7)
        subspace = serve_subspaces[0]
        state = serve_lte.states[subspace]
        sid = manager.open_session(subspaces=[subspace])
        tuples = manager.initial_tuples(sid)[subspace]
        manager.submit_labels(sid, subspace,
                              oracle.label_subspace(subspace, tuples))
        manager.flush()
        with pytest.raises(ValueError):
            manager.add_labels(sid, subspace, np.zeros((2, 9)), [0, 1])
        # A later valid round must still work (no poisoned extra_x).
        extra = state.to_raw(state.data[5:7])
        manager.add_labels(sid, subspace, extra,
                           oracle.label_subspace(subspace, extra))
        assert manager.flush() == 1

    def test_flush_isolates_failing_item(self, manager, serve_lte,
                                         serve_subspaces, make_oracle):
        """One bad queued item must not discard other sessions' work."""
        oracle = make_oracle(8)
        subspace = serve_subspaces[0]
        sid_bad = manager.open_session(subspaces=[subspace])
        sid_good = manager.open_session(subspaces=[subspace])
        tuples = manager.initial_tuples(sid_bad)[subspace]
        labels = oracle.label_subspace(subspace, tuples)
        manager.submit_labels(sid_bad, subspace, labels)
        manager.submit_labels(sid_good, subspace, labels)
        # Make the bad session's request-building fail at flush time
        # (simulating state that passed enqueue validation but cannot
        # build), without touching the shared subspace state.
        def boom(labels):
            raise RuntimeError("corrupt session")
        manager.session(sid_bad)._subsessions[subspace] \
            .build_initial_request = boom
        with pytest.raises(RuntimeError, match="corrupt session"):
            manager.flush()
        # The good session still adapted despite the bad item.
        assert manager.session(sid_good)._subsessions[subspace].adapted \
            is not None
        assert manager.session(sid_bad)._subsessions[subspace].adapted \
            is None

    def test_training_failure_requeues_and_retries(self, manager, serve_lte,
                                                   serve_subspaces,
                                                   make_oracle,
                                                   monkeypatch):
        """A mid-training crash installs nothing; the queue survives and
        a retry lands exactly where an undisturbed run would."""
        import repro.serve.manager as manager_module

        oracle = make_oracle(9)
        subspace = serve_subspaces[0]
        state = serve_lte.states[subspace]
        sid = manager.open_session(subspaces=[subspace])
        manager.submit_labels(
            sid, subspace,
            oracle.label_subspace(subspace,
                                  manager.initial_tuples(sid)[subspace]))
        extra = state.to_raw(state.data[5:7])
        manager.add_labels(sid, subspace, extra,
                           oracle.label_subspace(subspace, extra))

        real = manager_module.run_adapt_requests
        calls = {"n": 0}

        def flaky(requests):
            calls["n"] += 1
            if calls["n"] == 1:
                raise MemoryError("simulated")
            return real(requests)

        monkeypatch.setattr(manager_module, "run_adapt_requests", flaky)
        with pytest.raises(MemoryError):
            manager.flush()
        assert len(manager.pending(sid)) == 2   # both items back in queue
        subsession = manager.session(sid)._subsessions[subspace]
        assert subsession.adapted is None and subsession.extra_x is None

        assert manager.flush() == 2             # retry succeeds
        assert subsession.model_version == 2
        assert len(subsession.extra_x) == 2     # extras recorded exactly once

    def test_submission_is_deferred_until_flush(self, manager,
                                                serve_subspaces,
                                                make_oracle):
        oracle = make_oracle(2)
        sid = manager.open_session(subspaces=serve_subspaces)
        for subspace, tuples in manager.initial_tuples(sid).items():
            manager.submit_labels(sid, subspace,
                                  oracle.label_subspace(subspace, tuples))
        session = manager.session(sid)
        assert all(ss.adapted is None
                   for ss in session._subsessions.values())
        done = manager.flush()
        assert done == len(serve_subspaces)
        assert all(ss.adapted is not None
                   for ss in session._subsessions.values())

    def test_poll_flushes_and_reports(self, manager, serve_subspaces,
                                      make_oracle):
        oracle = make_oracle(3)
        sid = manager.open_session(subspaces=serve_subspaces)
        status = manager.poll(sid)
        assert status["ready"] == [] and status["pending"] == []
        for subspace, tuples in manager.initial_tuples(sid).items():
            manager.submit_labels(sid, subspace,
                                  oracle.label_subspace(subspace, tuples))
        peeked = manager.poll(sid, advance=False)
        assert sorted(peeked["pending"], key=str) == \
            sorted(serve_subspaces, key=str)
        assert peeked["ready"] == []
        status = manager.poll(sid)
        assert sorted(status["ready"], key=str) == \
            sorted(serve_subspaces, key=str)
        assert status["pending"] == []
        assert all(v == 1 for v in status["versions"].values())

    def test_initial_and_extra_in_one_flush(self, manager, serve_subspaces,
                                            make_oracle, serve_lte):
        """Wave scheduling: queued initial + extra rounds stay ordered."""
        oracle = make_oracle(4)
        subspace = serve_subspaces[0]
        state = serve_lte.states[subspace]
        sid = manager.open_session(subspaces=[subspace])
        tuples = manager.initial_tuples(sid)[subspace]
        manager.submit_labels(sid, subspace,
                              oracle.label_subspace(subspace, tuples))
        extra = state.to_raw(state.data[10:13])
        manager.add_labels(sid, subspace, extra,
                           oracle.label_subspace(subspace, extra))
        assert manager.flush() == 2
        subsession = manager.session(sid)._subsessions[subspace]
        assert subsession.model_version == 2
        assert len(subsession.extra_x) == 3


class TestIsolation:
    def test_interleaved_sessions_do_not_leak(self, manager, serve_lte,
                                              serve_subspaces, make_oracle,
                                              eval_rows):
        """Interleaved submissions across sessions with different oracles
        give each session exactly what a solo run would."""
        oracle_a, oracle_b = make_oracle(10), make_oracle(20)
        sid_a = manager.open_session(subspaces=serve_subspaces)
        sid_b = manager.open_session(subspaces=serve_subspaces)
        tuples_a = manager.initial_tuples(sid_a)
        tuples_b = manager.initial_tuples(sid_b)
        # Interleave: a's first subspace, b's first, a's second, b's second.
        for subspace in serve_subspaces:
            manager.submit_labels(
                sid_a, subspace,
                oracle_a.label_subspace(subspace, tuples_a[subspace]))
            manager.submit_labels(
                sid_b, subspace,
                oracle_b.label_subspace(subspace, tuples_b[subspace]))
        manager.flush()

        for oracle, sid in ((oracle_a, sid_a), (oracle_b, sid_b)):
            solo = serve_lte.start_session(subspaces=serve_subspaces)
            for subspace, tuples in solo.initial_tuples().items():
                solo.submit_labels(subspace,
                                   oracle.label_subspace(subspace, tuples))
            assert np.array_equal(manager.predict(sid, eval_rows),
                                  solo.predict(eval_rows))

    def test_per_session_label_state_is_private(self, manager,
                                                serve_subspaces,
                                                make_oracle):
        oracle = make_oracle(11)
        subspace = serve_subspaces[0]
        sid_a = manager.open_session(subspaces=[subspace])
        sid_b = manager.open_session(subspaces=[subspace])
        tuples = manager.initial_tuples(sid_a)[subspace]
        labels = oracle.label_subspace(subspace, tuples)
        manager.submit_labels(sid_a, subspace, labels)
        manager.flush()
        ss_a = manager.session(sid_a)._subsessions[subspace]
        ss_b = manager.session(sid_b)._subsessions[subspace]
        assert ss_a.labels is not None
        assert ss_b.labels is None and ss_b.adapted is None
        assert ss_b.model_version == 0


class TestRepeatedPredictions:
    """Nothing is memoized per answer: a repeat recomputes, so what a
    session answers follows its models at the moment it is asked."""

    def test_new_labels_bump_the_version_and_answer_like_a_solo_session(
            self, manager, serve_lte, serve_subspaces, make_oracle,
            eval_rows):
        oracle = make_oracle(31)
        subspace = serve_subspaces[0]
        state = serve_lte.states[subspace]
        sid = manager.open_session(subspaces=[subspace])
        tuples = manager.initial_tuples(sid)[subspace]
        manager.submit_labels(sid, subspace,
                              oracle.label_subspace(subspace, tuples))
        manager.predict(sid, eval_rows)
        version = manager.session(sid)._subsessions[subspace].model_version

        extra = state.to_raw(state.data[30:36])
        manager.add_labels(sid, subspace, extra,
                           oracle.label_subspace(subspace, extra))
        refreshed = manager.predict(sid, eval_rows)
        assert manager.session(sid)._subsessions[subspace].model_version \
            == version + 1

        solo = serve_lte.start_session(subspaces=[subspace])
        solo.submit_labels(subspace, oracle.label_subspace(
            subspace, solo.initial_tuples()[subspace]))
        solo.add_labels(subspace, extra,
                        oracle.label_subspace(subspace, extra))
        assert np.array_equal(refreshed, solo.predict(eval_rows))

    def test_predict_many_answers_each_session_as_predict_does(
            self, manager, serve_subspaces, make_oracle, eval_rows):
        subspace = serve_subspaces[0]
        sids = []
        for seed in (32, 42):
            oracle = make_oracle(seed)
            sid = manager.open_session(subspaces=[subspace])
            tuples = manager.initial_tuples(sid)[subspace]
            manager.submit_labels(sid, subspace,
                                  oracle.label_subspace(subspace, tuples))
            sids.append(sid)
        results = manager.predict_many(sids, eval_rows)
        assert set(results) == set(sids)
        assert results[sids[0]] is not results[sids[1]]
        for sid in sids:
            assert np.array_equal(results[sid],
                                  manager.predict(sid, eval_rows))

    def test_a_closed_session_leaves_the_others_answers_alike(
            self, manager, serve_subspaces, make_oracle, eval_rows):
        sids = []
        for seed in (33, 43):
            oracle = make_oracle(seed)
            sid = manager.open_session(subspaces=serve_subspaces)
            for subspace, tuples in manager.initial_tuples(sid).items():
                manager.submit_labels(
                    sid, subspace, oracle.label_subspace(subspace, tuples))
            sids.append(sid)
        before = manager.predict_many(sids, eval_rows)
        manager.close_session(sids[0])
        with pytest.raises(KeyError):
            manager.predict(sids[0], eval_rows)
        assert np.array_equal(manager.predict(sids[1], eval_rows),
                              before[sids[1]])


class TestDeterminism:
    def test_hundred_adapt_cycles_deterministic(self, serve_lte,
                                                serve_subspaces,
                                                make_oracle):
        """A session surviving 100 re-adapt cycles stays reproducible."""
        subspace = serve_subspaces[0]
        state = serve_lte.states[subspace]
        oracle = make_oracle(50)
        raw = state.to_raw(state.data)

        def run():
            manager = SessionManager(serve_lte)
            sid = manager.open_session(variant="meta", subspaces=[subspace])
            tuples = manager.initial_tuples(sid)[subspace]
            manager.submit_labels(sid, subspace,
                                  oracle.label_subspace(subspace, tuples))
            manager.flush()
            rng = np.random.default_rng(123)
            for _ in range(100):
                idx = rng.integers(0, len(raw), size=2)
                pts = raw[idx]
                manager.add_labels(sid, subspace, pts,
                                   oracle.label_subspace(subspace, pts))
                manager.flush()
            subsession = manager.session(sid)._subsessions[subspace]
            assert subsession.model_version == 101
            assert len(subsession.extra_x) == 200
            return manager.predict_subspace(sid, subspace, raw[:300])

        first, second = run(), run()
        assert np.array_equal(first, second)


class TestStats:
    def test_stats_counters(self, manager, serve_subspaces, make_oracle,
                            eval_rows):
        oracle = make_oracle(60)
        sid = manager.open_session(subspaces=serve_subspaces)
        for subspace, tuples in manager.initial_tuples(sid).items():
            manager.submit_labels(sid, subspace,
                                  oracle.label_subspace(subspace, tuples))
        value = manager.metrics.value
        assert value("serve.manager.sessions.live") == 1
        assert value("serve.manager.queue.depth") == len(serve_subspaces)
        manager.flush()
        manager.predict(sid, eval_rows)
        assert value("serve.manager.queue.depth") == 0
        assert value("serve.manager.adapt.batches") == 1
        assert value("serve.manager.adapt.total") == len(serve_subspaces)

    def test_a_snapshot_carries_no_prediction_cache(
            self, manager, serve_lte, serve_subspaces, make_oracle,
            eval_rows):
        oracle = make_oracle(63)
        sid = manager.open_session(subspaces=serve_subspaces)
        for subspace, tuples in manager.initial_tuples(sid).items():
            manager.submit_labels(sid, subspace,
                                  oracle.label_subspace(subspace, tuples))
        expected = manager.predict(sid, eval_rows)
        snapshot = manager.snapshot()
        assert set(snapshot) == {
            "next_id", "metrics", "sessions", "queue", "session_errors",
            "hulls"}
        restored = SessionManager.restore(serve_lte, snapshot)
        assert restored.metrics.snapshot() == manager.metrics.snapshot()
        assert np.array_equal(restored.predict(sid, eval_rows), expected)

    def test_region_packs_reused_across_model_versions(
            self, manager, serve_subspaces, make_oracle, eval_rows):
        """Re-adaptation bumps model versions but never hull geometry,
        so the refine group's compiled pack is a cache hit on the next
        predict instead of a recompile."""
        oracle = make_oracle(62)
        sid = manager.open_session(variant="meta_star",
                                   subspaces=serve_subspaces)
        for subspace, tuples in manager.initial_tuples(sid).items():
            manager.submit_labels(sid, subspace,
                                  oracle.label_subspace(subspace, tuples))
        manager.flush()
        manager.predict(sid, eval_rows)
        misses = manager.metrics.value("geometry.pack_cache.misses")
        assert misses > 0
        # An iterative round re-adapts every subspace (version bump).
        subspace = serve_subspaces[0]
        raw = manager.session(sid)._subsessions[subspace] \
            .state.to_raw(manager.session(sid)
                          ._subsessions[subspace].state.data[40:43])
        manager.add_labels(sid, subspace, raw,
                           oracle.label_subspace(subspace, raw))
        manager.flush()
        manager.predict(sid, eval_rows)
        # No recompilation.
        assert manager.metrics.value("geometry.pack_cache.misses") == misses
        assert manager.metrics.value("geometry.pack_cache.hits") > 0

    def test_retrieve_returns_interesting_rows(self, manager,
                                               serve_subspaces,
                                               make_oracle):
        oracle = make_oracle(61)
        sid = manager.open_session(subspaces=serve_subspaces)
        for subspace, tuples in manager.initial_tuples(sid).items():
            manager.submit_labels(sid, subspace,
                                  oracle.label_subspace(subspace, tuples))
        rows = manager.retrieve(sid, limit=10)
        assert rows.ndim == 2 and len(rows) <= 10
        if len(rows):
            assert np.all(manager.predict(sid, rows) == 1)
        # A managed session refuses what a lone one does.
        with pytest.raises(ValueError, match="limit"):
            manager.retrieve(sid, limit=-1)
        with pytest.raises(ValueError, match="k must"):
            manager.session(sid).most_uncertain(subspace, tuples, k=-1)
