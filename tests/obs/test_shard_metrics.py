"""Cross-process telemetry: per-worker snapshots merged at the gateway.

The acceptance criterion lives here: ``gateway.metrics()`` on a
2-worker pool returns each worker's registry snapshot (shipped over
pipe RPC) plus one deterministic element-wise merge of the fleet.
"""

import pytest

from repro import obs
from repro.shard import ShardGateway, WorkerCrashed

pytestmark = [pytest.mark.obs, pytest.mark.shard]

FLUSH = "serve.manager.flush.seconds"


def _feed(gateway, oracle, session_id):
    for subspace, tuples in gateway.initial_tuples(session_id).items():
        gateway.submit_labels(session_id, subspace,
                              oracle.label_subspace(subspace, tuples))


def _serve_fleet(gateway, oracle, obs_subspaces, n_sessions=4):
    sids = [gateway.open_session(subspaces=obs_subspaces, seed=i)
            for i in range(n_sessions)]
    for sid in sids:
        _feed(gateway, oracle, sid)
    gateway.flush_all()
    return sids


class TestFleetMetrics:
    def test_two_worker_merge(self, obs_lte, obs_subspaces, make_oracle,
                              eval_rows):
        with ShardGateway(obs_lte, n_workers=2) as gateway:
            sids = _serve_fleet(gateway, make_oracle(67), obs_subspaces)
            gateway.predict_many(sids, eval_rows)
            fleet = gateway.metrics()
        assert sorted(fleet["workers"]) == [0, 1]
        for index in (0, 1):
            snap = fleet["workers"][index]
            assert snap[FLUSH]["kind"] == "histogram"
            assert snap[FLUSH]["count"] >= 1
            assert snap["serve.manager.sessions.opened"]["value"] == 2
        # The merged histogram is the element-wise sum of the workers'.
        merged = fleet["merged"][FLUSH]
        per_worker = [fleet["workers"][i][FLUSH] for i in (0, 1)]
        assert merged["count"] == sum(s["count"] for s in per_worker)
        for i in range(len(merged["counts"])):
            assert merged["counts"][i] == sum(s["counts"][i]
                                              for s in per_worker)
        assert fleet["merged"]["serve.manager.sessions.opened"]["value"] \
            == 4

    def test_merge_is_reply_order_independent(self, obs_lte, obs_subspaces,
                                              make_oracle):
        with ShardGateway(obs_lte, n_workers=2) as gateway:
            _serve_fleet(gateway, make_oracle(71), obs_subspaces)
            fleet = gateway.metrics()
        snaps = [fleet["workers"][0], fleet["workers"][1],
                 fleet["gateway"]]
        assert obs.merge_snapshots(snaps) == fleet["merged"]
        # Reversed merge order: identical integer state (histogram
        # ``sum`` floats may differ in the last ulp, so compare the
        # deterministic fields).
        reversed_merge = obs.merge_snapshots(list(reversed(snaps)))
        assert sorted(reversed_merge) == sorted(fleet["merged"])
        for name, entry in fleet["merged"].items():
            other = dict(reversed_merge[name])
            entry = dict(entry)
            if entry["kind"] == "histogram":
                assert entry.pop("sum") == pytest.approx(other.pop("sum"))
            assert entry == other, name

    def test_gateway_side_rpc_metrics(self, obs_lte, obs_subspaces,
                                      make_oracle):
        with ShardGateway(obs_lte, n_workers=2) as gateway:
            _serve_fleet(gateway, make_oracle(73), obs_subspaces)
            snap = gateway.metrics()["gateway"]
            assert snap["shard.gateway.workers.alive"]["value"] == 2
            assert snap["shard.gateway.rpc.calls"]["value"] >= 1
            rpc = snap["shard.gateway.rpc.seconds"]
            assert rpc["count"] == snap["shard.gateway.rpc.calls"]["value"]
            assert rpc["min"] > 0.0

    def test_stats_carries_per_worker_rpc_view(self, obs_lte,
                                               obs_subspaces, make_oracle):
        with ShardGateway(obs_lte, n_workers=2) as gateway:
            _serve_fleet(gateway, make_oracle(79), obs_subspaces)
            stats = gateway.stats()
        assert [w["worker"] for w in stats["workers"]] == [0, 1]
        for entry in stats["workers"]:
            assert entry["alive"] is True
            assert entry["queue_depth"] == 0          # drained
            # The stats fan-out itself is the last finished RPC.
            assert entry["last_rpc_method"] == "stats"
            assert entry["last_rpc_seconds"] > 0.0


class TestDeadWorkers:
    def test_tombstones_not_silent_omission(self, obs_lte, obs_subspaces,
                                            make_oracle):
        with ShardGateway(obs_lte, n_workers=2) as gateway:
            sids = [gateway.open_session(subspaces=obs_subspaces, seed=i)
                    for i in range(4)]
            lost = sum(1 for s in sids if gateway._sessions[s] == 0)
            oracle = make_oracle(83)
            for sid in sids:
                _feed(gateway, oracle, sid)
            gateway._call(gateway._workers[0], "_debug",
                          {"crash_on_flush": True})
            with pytest.raises(WorkerCrashed):
                gateway.flush_all()

            stats = gateway.stats()
            dead = stats["workers"][0]
            assert dead["alive"] is False
            assert dead["model"] is None
            assert dead["sessions_lost"] == lost
            assert "queue_depth" in dead and "last_rpc_seconds" in dead
            assert stats["workers"][1]["alive"] is True
            assert stats["alive_workers"] == 1

            fleet = gateway.metrics()
            assert fleet["workers"][0] == {"dead": True,
                                           "sessions_lost": lost}
            assert fleet["workers"][1][FLUSH]["count"] >= 1
            # The tombstone contributes nothing to the merge.
            assert fleet["merged"][FLUSH]["count"] == \
                fleet["workers"][1][FLUSH]["count"]
            gateway_snap = fleet["gateway"]
            assert gateway_snap["shard.gateway.workers.alive"]["value"] == 1
            assert gateway_snap["shard.gateway.workers.crashed"]["value"] \
                == 1
