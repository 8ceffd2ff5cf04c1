"""Gateway behavior: routing, parity, backpressure, crash isolation,
shutdown, the workers' share of the cores."""

import gc
import os
import sys
import warnings

import numpy as np
import pytest
from _helpers import feed_session, perturb_phi

from repro.nn import cores
from repro.serve import SessionManager
from repro.shard import (Overloaded, ShardError, ShardGateway, WorkerCrashed,
                         assign_worker, home_worker)

pytestmark = pytest.mark.shard


class TestRouting:
    def test_home_worker_is_modulo(self):
        assert [home_worker(i, 3) for i in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_home_worker_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            home_worker(0, 0)

    def test_assign_probes_past_dead_workers(self):
        alive = [True, False, True]
        assert assign_worker(0, alive) == 0
        assert assign_worker(1, alive) == 2    # home 1 dead -> probe on
        assert assign_worker(2, alive) == 2
        assert assign_worker(4, alive) == 2

    def test_assign_none_when_all_dead(self):
        assert assign_worker(7, [False, False]) is None


class TestGatewayProtocol:
    def test_sessions_spread_across_workers(self, shard_lte,
                                            shard_subspaces, make_oracle):
        with ShardGateway(shard_lte, n_workers=2) as gateway:
            sids = [gateway.open_session(subspaces=shard_subspaces, seed=i)
                    for i in range(4)]
            owners = {gateway._sessions[sid] for sid in sids}
            assert owners == {0, 1}
            oracle = make_oracle(3)
            for sid in sids:
                feed_session(gateway, oracle, sid)
            assert gateway.flush_all() > 0
            for sid in sids:
                result = gateway.poll(sid)
                assert result["pending"] == []
                assert result["errors"] == []
                assert len(result["ready"]) == 2

    def test_parity_with_single_process_manager(self, shard_lte,
                                                shard_subspaces,
                                                make_oracle, eval_rows):
        """Gateway predictions must be bit-identical to an unsharded
        SessionManager fed the same sessions, labels and seeds."""
        oracle = make_oracle(11)
        seeds = list(range(6))
        with ShardGateway(shard_lte, n_workers=2) as gateway:
            sids = [gateway.open_session(variant="meta_star",
                                         subspaces=shard_subspaces, seed=s)
                    for s in seeds]
            for sid in sids:
                feed_session(gateway, oracle, sid)
            gateway.flush_all()
            sharded = gateway.predict_many(sids, eval_rows)
            single = {sid: gateway.predict(sid, eval_rows)
                      for sid in sids}

        manager = SessionManager(shard_lte)
        ref_sids = [manager.open_session(variant="meta_star",
                                         subspaces=shard_subspaces, seed=s)
                    for s in seeds]
        for sid in ref_sids:
            for subspace, tuples in manager.initial_tuples(sid).items():
                manager.submit_labels(
                    sid, subspace, oracle.label_subspace(subspace, tuples))
        manager.flush()
        reference = manager.predict_many(ref_sids, eval_rows)

        for sid, ref_sid in zip(sids, ref_sids):
            assert np.array_equal(sharded[sid], reference[ref_sid])
            assert np.array_equal(single[sid], reference[ref_sid])

    def test_iterative_rounds_and_retrieve(self, shard_lte, shard_subspaces,
                                           make_oracle, eval_rows):
        oracle = make_oracle(5)
        subspace = shard_subspaces[0]
        state = shard_lte.states[subspace]
        with ShardGateway(shard_lte, n_workers=2) as gateway:
            sid = gateway.open_session(subspaces=[subspace], seed=1)
            feed_session(gateway, oracle, sid)
            gateway.flush_all()
            extra = state.to_raw(state.data[10:14])
            gateway.add_labels(sid, subspace, extra,
                               oracle.label_subspace(subspace, extra))
            gateway.flush_all()
            predictions = gateway.predict(sid, eval_rows)
            retrieved = gateway.retrieve(sid, rows=eval_rows)
            assert len(retrieved) == int(predictions.sum())

    def test_every_reply_carries_the_workers_pending_count(
            self, shard_lte, shard_subspaces, make_oracle):
        """Submit, add, close, flush and poll replies each report the
        worker's queued label batches, which the gateway keeps as that
        worker's pending count."""
        oracle = make_oracle(13)
        subspace = shard_subspaces[0]
        state = shard_lte.states[subspace]
        with ShardGateway(shard_lte, n_workers=1) as gateway:
            def pending():
                return gateway.stats()["pending"][0]

            sid_a, sid_b = (gateway.open_session(subspaces=shard_subspaces,
                                                 seed=s) for s in (0, 1))
            feed_session(gateway, oracle, sid_a)
            assert pending() == len(shard_subspaces)
            feed_session(gateway, oracle, sid_b)
            assert pending() == 2 * len(shard_subspaces)
            gateway.close_session(sid_a)
            assert pending() == len(shard_subspaces)
            assert gateway.flush_all() == len(shard_subspaces)
            assert pending() == 0
            extra = state.to_raw(state.data[10:14])
            gateway.add_labels(sid_b, subspace, extra,
                               oracle.label_subspace(subspace, extra))
            assert pending() == 1
            assert gateway.poll(sid_b, advance=False)["pending"] != []
            assert pending() == 1
            assert gateway.poll(sid_b)["pending"] == []
            assert pending() == 0

    def test_worker_stats_carry_the_managers_counts(self, shard_lte,
                                                    shard_subspaces,
                                                    make_oracle):
        oracle = make_oracle(17)
        with ShardGateway(shard_lte, n_workers=2) as gateway:
            sids = [gateway.open_session(subspaces=shard_subspaces, seed=s)
                    for s in range(2)]
            for sid in sids:
                feed_session(gateway, oracle, sid)
            gateway.flush_all()
            stats = gateway.stats()
        assert stats["sessions"] == len(sids)
        for index, entry in enumerate(stats["workers"]):
            assert set(entry) == {
                "sessions", "queued", "adapt_batches", "adapted_total",
                "worker", "model", "alive", "queue_depth",
                "last_rpc_seconds", "last_rpc_method"}
            assert entry["worker"] == index
            assert (entry["sessions"], entry["queued"],
                    entry["adapt_batches"], entry["adapted_total"]) == \
                (1, 0, 1, len(shard_subspaces))
            assert entry["model"] == stats["model"]

    def test_hostile_labels_rejected_by_the_worker(self, shard_lte,
                                                   shard_subspaces,
                                                   make_oracle, eval_rows):
        """A NaN / out-of-range label reaches the caller as the worker's
        ValueError; nothing is queued and the session stays usable."""
        oracle = make_oracle(17)
        subspace = shard_subspaces[0]
        with ShardGateway(shard_lte, n_workers=1) as gateway:
            sid = gateway.open_session(subspaces=[subspace], seed=2)
            tuples = gateway.initial_tuples(sid)[subspace]
            good = oracle.label_subspace(subspace, tuples)
            for bad in (np.nan, 2):
                labels = np.asarray(good, dtype=np.float64)
                labels[1] = bad
                with pytest.raises(ValueError, match="position 1"):
                    gateway.submit_labels(sid, subspace, labels)
            assert gateway.poll(sid)["pending"] == []
            gateway.submit_labels(sid, subspace, good)
            gateway.flush_all()
            result = gateway.poll(sid)
            assert result["errors"] == [] and len(result["ready"]) == 1
            assert gateway.predict(sid, eval_rows).shape == (len(eval_rows),)

    def test_rows_of_the_wrong_width_rejected_by_the_worker(
            self, shard_lte, shard_subspaces, make_oracle, eval_rows):
        """An id column too many (or an attribute too few) reaches the
        caller as the worker's ValueError, not as shifted answers or an
        IndexError; the sessions stay usable."""
        oracle = make_oracle(18)
        d = eval_rows.shape[1]
        with_id = np.column_stack([np.arange(float(len(eval_rows))),
                                   eval_rows])
        message = "rows have {} columns, the fitted table has {}"
        with ShardGateway(shard_lte, n_workers=2) as gateway:
            sids = [gateway.open_session(subspaces=shard_subspaces,
                                         seed=seed) for seed in (3, 4)]
            for sid in sids:
                feed_session(gateway, oracle, sid)
            gateway.flush_all()
            with pytest.raises(ValueError, match=message.format(d + 1, d)):
                gateway.predict_many(sids, with_id)
            with pytest.raises(ValueError, match=message.format(d - 1, d)):
                gateway.predict(sids[0], eval_rows[:, :-1])
            answers = gateway.predict_many(sids, eval_rows)
            assert all(answers[sid].shape == (len(eval_rows),)
                       for sid in sids)
            assert gateway.predict(sids[0], eval_rows[:0]).shape == (0,)

    def test_subspace_points_of_the_wrong_width_rejected_before_any_rpc(
            self, shard_lte, shard_subspaces, make_oracle, eval_rows):
        """The gateway knows the subspace's width: a mis-shaped array
        costs no round trip (and is no longer broadcast into an
        answer by the worker's scaler)."""
        oracle = make_oracle(19)
        subspace = shard_subspaces[0]
        assert subspace.dim == 2
        points = subspace.project(eval_rows)
        message = r"points have {} columns, subspace \(" + \
            ", ".join(subspace.names) + r"\) has 2"
        with ShardGateway(shard_lte, n_workers=2) as gateway:
            sid = gateway.open_session(subspaces=shard_subspaces, seed=5)
            feed_session(gateway, oracle, sid)
            gateway.flush_all()
            def calls():
                return gateway.gateway_metrics.value(
                    "shard.gateway.rpc.calls")

            before = calls()
            with pytest.raises(ValueError, match=message.format(1)):
                gateway.predict_subspace(sid, subspace, points[:, :1])
            with pytest.raises(ValueError, match=message.format(3)):
                gateway.predict_subspace(
                    sid, subspace, np.column_stack([points, points[:, 0]]))
            assert calls() == before
            answers = gateway.predict_subspace(sid, subspace, points)
            assert answers.shape == (len(points),)
            assert np.array_equal(
                gateway.predict_subspace(sid, subspace, points[0]),
                answers[:1])
            assert gateway.predict_subspace(sid, subspace,
                                            points[:0]).shape == (0,)

    def test_errors_attributed_across_sessions(self, shard_lte,
                                               shard_subspaces,
                                               make_oracle):
        """One session's bad flush stays in its own poll, even when both
        sessions share a worker."""
        oracle = make_oracle(13)
        with ShardGateway(shard_lte, n_workers=1) as gateway:
            sid_bad = gateway.open_session(subspaces=shard_subspaces,
                                           seed=0)
            sid_good = gateway.open_session(subspaces=shard_subspaces,
                                            seed=1)
            worker = gateway._workers[0]
            gateway._call(worker, "_debug",
                          {"corrupt_session":
                           worker.local_by_global[sid_bad]})
            feed_session(gateway, oracle, sid_bad)
            feed_session(gateway, oracle, sid_good)
            good = gateway.poll(sid_good)        # flushes the worker
            assert good["errors"] == []
            assert len(good["ready"]) == 2
            bad = gateway.poll(sid_bad)
            assert len(bad["errors"]) == 2       # one per subspace
            assert all("corrupt session" in e["error"]
                       for e in bad["errors"])
            assert gateway.poll(sid_bad)["errors"] == []


class TestAdmissionControl:
    def test_backpressure_rejects_before_enqueue(self, shard_lte,
                                                 shard_subspaces,
                                                 make_oracle):
        oracle = make_oracle(17)
        subspace = shard_subspaces[0]
        with ShardGateway(shard_lte, n_workers=1,
                          max_pending_per_worker=1) as gateway:
            first = gateway.open_session(subspaces=[subspace], seed=0)
            second = gateway.open_session(subspaces=[subspace], seed=1)
            tuples = gateway.initial_tuples(first)[subspace]
            labels = oracle.label_subspace(subspace, tuples)
            gateway.submit_labels(first, subspace, labels)
            with pytest.raises(Overloaded):
                gateway.submit_labels(second, subspace, labels)
            # Draining restores admission; the rejected batch was never
            # partially enqueued.
            gateway.flush_all()
            gateway.submit_labels(second, subspace, labels)
            gateway.flush_all()
            assert gateway.poll(second)["ready"] == [subspace]

    def test_session_cap(self, shard_lte):
        with ShardGateway(shard_lte, n_workers=1,
                          max_sessions_per_worker=1) as gateway:
            gateway.open_session(seed=0)
            with pytest.raises(Overloaded):
                gateway.open_session(seed=1)


class TestCrashIsolation:
    def test_worker_crash_mid_flush(self, shard_lte, shard_subspaces,
                                    make_oracle):
        """A worker dying mid-flush raises a typed error promptly (no
        hang); survivors keep serving and new sessions re-route."""
        oracle = make_oracle(19)
        with ShardGateway(shard_lte, n_workers=2) as gateway:
            sids = [gateway.open_session(subspaces=shard_subspaces, seed=i)
                    for i in range(4)]
            doomed = gateway._workers[0]
            victims = [s for s in sids if gateway._sessions[s] == 0]
            survivors = [s for s in sids if gateway._sessions[s] == 1]
            for sid in sids:
                feed_session(gateway, oracle, sid)
            gateway._call(doomed, "_debug", {"crash_on_flush": True})
            with pytest.raises(WorkerCrashed):
                gateway.flush_all()
            assert not doomed.alive
            # Sessions that lived on the dead worker fail typed…
            with pytest.raises(WorkerCrashed):
                gateway.poll(victims[0])
            # …survivors are untouched…
            gateway.flush_all()
            for sid in survivors:
                assert len(gateway.poll(sid)["ready"]) == 2
            # …and new sessions re-route onto the live worker.
            fresh = gateway.open_session(subspaces=shard_subspaces, seed=9)
            assert gateway._sessions[fresh] == 1
            feed_session(gateway, oracle, fresh)
            gateway.flush_all()
            assert len(gateway.poll(fresh)["ready"]) == 2

    def test_all_workers_dead_rejects_new_sessions(self, shard_lte):
        with ShardGateway(shard_lte, n_workers=1) as gateway:
            gateway._call(gateway._workers[0], "_debug",
                          {"crash_on_flush": True})
            with pytest.raises(WorkerCrashed):
                gateway.flush_all()
            with pytest.raises(WorkerCrashed):
                gateway.open_session(seed=0)


class TestShutdown:
    def test_close_drains_and_is_idempotent(self, shard_lte,
                                            shard_subspaces, make_oracle):
        oracle = make_oracle(23)
        gateway = ShardGateway(shard_lte, n_workers=2)
        sid = gateway.open_session(subspaces=shard_subspaces, seed=0)
        feed_session(gateway, oracle, sid)
        gateway.close()                          # graceful drain
        gateway.close()                          # idempotent
        assert all(not w.process.is_alive() for w in gateway._workers)
        from repro.shard import ShardError
        with pytest.raises(ShardError, match="closed"):
            gateway.open_session(seed=1)

    def test_context_manager_cleans_up_checkpoint_root(self, shard_lte):
        import os
        with ShardGateway(shard_lte, n_workers=1) as gateway:
            root = gateway._root
            assert os.path.isdir(root)
        assert not os.path.exists(root)

    @staticmethod
    def _armed_gateway(shard_lte, shard_subspaces, make_oracle):
        """Two workers; one holds a queued session and fails every flush
        (systemically: its whole wave stays queued)."""
        gateway = ShardGateway(shard_lte, n_workers=2)
        sid = gateway.open_session(subspaces=shard_subspaces, seed=0)
        feed_session(gateway, make_oracle(29), sid)
        owner = gateway._workers[gateway._sessions[sid]]
        gateway._call(owner, "_debug", {"fail_training": True})
        return gateway, owner

    def test_close_without_drain_leaves_the_queue(self, shard_lte,
                                                  shard_subspaces,
                                                  make_oracle):
        """``drain=False`` drops the queue: the armed flush never runs,
        so no worker answers with its error and every one exits
        cleanly."""
        gateway, _ = self._armed_gateway(shard_lte, shard_subspaces,
                                         make_oracle)
        gateway.close(drain=False)
        assert [w.process.exitcode for w in gateway._workers] == [0, 0]
        assert not os.path.exists(gateway._root)

    def test_a_failed_drain_raises_once_every_worker_is_down(
            self, shard_lte, shard_subspaces, make_oracle):
        """A systemic flush failure while draining comes back as a typed
        error reply; ``close`` still shuts every worker down and removes
        its checkpoint root, then raises ``ShardError`` naming the
        worker.  A second ``close`` is a no-op."""
        gateway, owner = self._armed_gateway(shard_lte, shard_subspaces,
                                             make_oracle)
        message = r"worker {} \(RuntimeError: adaptation failed\)".format(
            owner.index)
        with pytest.raises(ShardError, match=message):
            gateway.close()
        assert all(not w.process.is_alive() for w in gateway._workers)
        assert not os.path.exists(gateway._root)
        gateway.close()
        gateway.close(drain=False)

    def test_an_unclosed_gateway_warns_and_reaps_when_collected(
            self, shard_lte):
        """Dropped without ``close``: collecting it raises a
        ``ResourceWarning``, and the workers are reaped and the owned
        checkpoint root removed all the same."""
        gateway = ShardGateway(shard_lte, n_workers=2)
        processes = [worker.process for worker in gateway._workers]
        root = gateway._root
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del gateway
            gc.collect()
        assert [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)] == \
            ["unclosed ShardGateway with 2 workers; close() it or use it "
             "as a context manager"]
        assert all(process.exitcode is not None for process in processes)
        assert not os.path.exists(root)

    def test_a_failed_init_is_collected_quietly(self, monkeypatch):
        """An ``__init__`` that raised before owning anything leaves
        nothing to close: no warning, no error while collecting."""
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TypeError):
                ShardGateway("not a fitted LTE")
            gc.collect()
        assert not caught and not unraisable


class TestWorkerShare:
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_each_worker_owns_its_share_of_the_cores(self, shard_lte,
                                                     n_workers):
        """``max(1, cores // n_workers)`` compute threads a worker — one
        each for two workers on two cores — and the gateway's process
        keeps all of its own."""
        share = max(1, cores._affinity() // n_workers)
        with ShardGateway(shard_lte, n_workers=n_workers) as gateway:
            for worker in gateway._workers:
                assert gateway._call(worker, "ping", {})["threads"] == share
        assert cores.compute_threads() == cores._affinity()
