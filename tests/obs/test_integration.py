"""End-to-end: a serving wave populates the registry — and the
instrumentation never changes a prediction bit (the no-interference
guarantee)."""

import numpy as np
import pytest

from repro import obs
from repro.serve import SessionManager

pytestmark = pytest.mark.obs


def _feed(manager, oracle, session_id):
    for subspace, tuples in manager.initial_tuples(session_id).items():
        manager.submit_labels(session_id, subspace,
                              oracle.label_subspace(subspace, tuples))


def _open_fed(manager, oracle, obs_subspaces, n_sessions):
    """``n_sessions`` Meta* sessions, labelled and adapted; their ids."""
    sids = [manager.open_session(subspaces=obs_subspaces, seed=i)
            for i in range(n_sessions)]
    for sid in sids:
        _feed(manager, oracle, sid)
    manager.flush()
    return sids


def _serve_wave(manager, oracle, obs_subspaces, eval_rows, n_sessions=3):
    sids = _open_fed(manager, oracle, obs_subspaces, n_sessions)
    return sids, manager.predict_many(sids, eval_rows)


class TestServingWaveMetrics:
    def test_wave_populates_latency_breakdown(self, obs_lte, obs_subspaces,
                                              make_oracle, eval_rows):
        manager = SessionManager(obs_lte)
        sids, _ = _serve_wave(manager, make_oracle(31), obs_subspaces,
                              eval_rows)
        snap = manager.metrics.snapshot()
        assert snap["serve.manager.sessions.opened"]["value"] == len(sids)
        assert snap["serve.manager.sessions.live"]["value"] == len(sids)
        assert snap["serve.manager.queue.depth"]["value"] == 0
        # One queue-wait sample per submitted label batch, and every
        # stage of the per-request breakdown saw the wave.
        n_batches = len(sids) * len(obs_subspaces)
        assert snap["serve.manager.queue.wait.seconds"]["count"] == n_batches
        for stage in ("flush", "adapt.build", "adapt.train",
                      "adapt.install"):
            name = "serve.manager.{}.seconds".format(stage)
            assert snap[name]["count"] >= 1, name
        for stage in ("encode", "forward", "refine"):
            name = "serve.manager.predict.{}.seconds".format(stage)
            assert snap[name]["count"] >= 1, name
        assert snap["serve.manager.adapt.batches"]["value"] == \
            manager.adapt_batches

    def test_a_repeated_prediction_recalls_every_hull_decision(
            self, obs_lte, obs_subspaces, make_oracle, eval_rows):
        """``core.optimizer.memo.*`` count caller-row blocks too: the
        first ``predict_many`` over a block misses once per subspace
        and optimizer with a subregion, the second over the same rows
        hits as often and misses never — and answers alike."""
        manager = SessionManager(obs_lte)
        sids = _open_fed(manager, make_oracle(37), obs_subspaces, 3)
        registry = obs.default_registry()
        lookups = sum(
            ss.optimizer is not None and (
                ss.optimizer.outer_region is not None
                or ss.optimizer.inner_region is not None)
            for sid in sids
            for ss in manager.session(sid)._subsessions.values())
        assert lookups > 0
        first = manager.predict_many(sids, eval_rows)
        assert registry.value("core.optimizer.memo.hits") == 0
        assert registry.value("core.optimizer.memo.misses") == lookups
        again = manager.predict_many(sids, eval_rows)
        assert registry.value("core.optimizer.memo.hits") == lookups
        assert registry.value("core.optimizer.memo.misses") == lookups
        for sid in sids:
            assert np.array_equal(again[sid], first[sid])

    def test_settled_and_scored_rows_account_for_every_row_session(
            self, obs_lte, obs_subspaces, make_oracle, eval_rows):
        """Where a row·session·subspace goes is three counters: answered
        by the subspace's own hulls (``rows.settled``), by its
        classifier (``rows.scored``), or open there but never scored
        because the session's conjunction was already 0
        (``rows.skipped``)."""
        from repro.obs import registry
        names = ["serve.manager.predict.rows." + kind
                 for kind in ("settled", "scored", "skipped")]
        assert all(name in registry.__doc__ for name in names)
        assert len(obs_subspaces) >= 2

        manager = SessionManager(obs_lte)
        sids, _ = _serve_wave(manager, make_oracle(31), obs_subspaces,
                              eval_rows)
        metrics = manager.metrics

        def counts():
            return [metrics.value(name) for name in names]

        row_sessions = len(sids) * len(obs_subspaces) * len(eval_rows)
        assert sum(counts()) == row_sessions
        # A two-subspace Meta* wave: each class has members.
        assert all(count > 0 for count in counts())

        # A repeat at unchanged model versions recomputes every answer ...
        once = counts()
        manager.predict_many(sids, eval_rows)
        before = counts()
        assert before == [2 * count for count in once]
        # ... and a session without an optimizer settles nothing: every
        # row is open in every subspace, scored or skipped.
        basic = manager.open_session(variant="basic",
                                     subspaces=obs_subspaces, seed=9)
        _feed(manager, make_oracle(31), basic)
        manager.predict(basic, eval_rows)
        settled, scored, skipped = counts()
        assert settled == before[0]
        assert scored + skipped == before[1] + before[2] + \
            len(obs_subspaces) * len(eval_rows)
        assert scored >= before[1] + len(eval_rows)

    def test_raster_counters_account_for_rows_asked_of_rastered_packs(
            self, obs_lte, obs_subspaces, make_oracle, monkeypatch):
        """A pack that scans keep asking grows a raster; from then on
        each row asked of it is either settled by a table read or sent
        to the exact kernel.  A wave's small previews never get there."""
        from repro.data.schema import Table
        from repro.geometry.engine import PackedHulls
        from repro.obs import registry
        names = ["geometry.raster." + kind
                 for kind in ("built", "rows.settled", "rows.exact")]
        assert all("``{}``".format(name) in registry.__doc__
                   for name in names)

        asked = {"rastered": 0, "packs": set()}
        unions = PackedHulls.unions

        def counted(pack, points, columns):
            masks = unions(pack, points, columns)
            if pack._raster is not None:
                asked["rastered"] += len(points)
                asked["packs"].add(id(pack))
            return masks
        monkeypatch.setattr(PackedHulls, "unions", counted)

        manager = SessionManager(obs_lte)
        sids = _open_fed(manager, make_oracle(31), obs_subspaces, 2)
        metrics = manager.metrics
        for seed in range(3):       # a wave's rounds of 100-row previews
            manager.predict_many(
                sids, obs_lte.table.sample_rows(100, seed=seed))
        assert [metrics.value(name) for name in names] == [0, 0, 0]
        assert not asked["rastered"]

        # Three blocks of the scan: a pack rasters on the first call
        # after it has been asked 4 096 rows.
        rows = np.tile(obs_lte.table.data, (12, 1))
        store = Table("CAR", obs_lte.table.attributes, rows) \
            .to_store(chunk_rows=512)
        manager.predict_many_store(sids, store)
        assert manager.metrics.value(
            "serve.manager.store_scan.blocks") >= 3
        built, settled, exact = (metrics.value(name) for name in names)
        assert built == len(asked["packs"]) >= 1
        assert settled + exact == asked["rastered"] > 0
        assert settled > 0 and exact > 0

    def test_counter_properties_read_the_registry(self, obs_lte,
                                                  obs_subspaces,
                                                  make_oracle, eval_rows):
        manager = SessionManager(obs_lte)
        _serve_wave(manager, make_oracle(37), obs_subspaces, eval_rows)
        metrics = manager.metrics
        assert manager.adapt_batches == \
            metrics.value("serve.manager.adapt.batches") == 1
        assert manager.adapted_total == \
            metrics.value("serve.manager.adapt.total") > 0

    def test_a_repeated_wave_records_no_answer_cache(self, obs_lte,
                                                     obs_subspaces,
                                                     make_oracle,
                                                     eval_rows):
        """No registry — the manager's or the process-wide merge —
        carries a per-answer cache row, even after a repeat that such a
        cache would have answered."""
        manager = SessionManager(obs_lte)
        sids, first = _serve_wave(manager, make_oracle(41), obs_subspaces,
                                  eval_rows)
        again = manager.predict_many(sids, eval_rows)
        for sid in sids:
            assert np.array_equal(again[sid], first[sid])
        for names in (manager.metrics.snapshot(), obs.aggregate()):
            assert names
            assert not [name for name in names
                        if name.startswith("serve.cache.")]

    def test_spans_cover_adapt_and_predict(self, obs_lte, obs_subspaces,
                                           make_oracle, eval_rows):
        manager = SessionManager(obs_lte)
        with obs.capture() as events:
            _serve_wave(manager, make_oracle(43), obs_subspaces, eval_rows)
        names = [e["name"] for e in events]
        assert "serve.manager.adapt" in names
        assert "serve.manager.predict_many" in names
        adapt = next(e for e in events
                     if e["name"] == "serve.manager.adapt")
        assert adapt["requests"] >= 1
        assert adapt["seconds"] > 0.0


class TestStoreScanMetrics:
    """A store scan is counted once, where it happened: per
    chunk·session under ``store.scan.chunks.*`` in the process registry,
    and — chunk·sessions and blocks — under
    ``serve.manager.store_scan.*`` in the manager's."""

    CHUNKS = ["store.scan.chunks." + kind
              for kind in ("scanned", "pruned", "watermark_skipped")]

    def test_chunk_counters_say_what_the_scan_did(
            self, obs_lte, obs_subspaces, make_oracle):
        """Consulting the zone maps is not a scan: an incremental scan
        that evaluates 2 chunk·sessions of a 17-chunk store used to
        report 8 plans and 136 chunks scanned, none skipped."""
        from repro.data.schema import Table
        process = obs.default_registry()

        def counts():
            return [process.value(name) for name in self.CHUNKS]

        manager = SessionManager(obs_lte)
        sids = _open_fed(manager, make_oracle(31), obs_subspaces, 2)
        rows = obs_lte.table.data
        store = Table("CAR", obs_lte.table.attributes, rows[:16 * 64]) \
            .to_store(chunk_rows=64)
        manager.predict_many_store(sids, store)
        cold = counts()
        scan = manager.last_store_scan
        assert cold == [scan["chunk_evals"], scan["pruned_skipped"], 0]
        assert sum(cold) == scan["chunk_evals_possible"] == 2 * 16

        store.append_blocks([rows[16 * 64:17 * 64]])
        manager.predict_many_store(sids, store)
        assert [b - a for a, b in zip(cold, counts())] == [2, 0, 32]
        assert manager.last_store_scan["chunk_evals_possible"] == 2 + 32
        assert process.value("store.scan.plans") == 0

        # A lone session's scan is the same scan, counted the same way.
        before = counts()
        session = manager.session(sids[0])
        session.predict_store(store)
        scan = session.last_store_scan
        assert [b - a for a, b in zip(before, counts())] == \
            [scan["chunk_evals"], scan["pruned_skipped"],
             scan["watermark_skipped"]]
        assert scan.keys() == manager.last_store_scan.keys()
        # The managed scan left the session its mark: nothing is owed.
        assert scan["watermark_skipped"] == 17
        session._store_marks.clear()
        before = counts()
        session.predict_store(store)
        scan = session.last_store_scan
        assert [b - a for a, b in zip(before, counts())] == \
            [scan["chunk_evals"], scan["pruned_skipped"], 0]
        assert scan["chunk_evals"] + scan["pruned_skipped"] == 17
        # ... and a ChunkScan still is one plan.
        store.scan(session._subsessions[obs_subspaces[0]]
                   .optimizer.outer_region, columns=obs_subspaces[0].columns)
        assert process.value("store.scan.plans") == 1

    def test_blocks_are_counted_and_sized(self, obs_lte, obs_subspaces,
                                          make_oracle):
        from repro.data.schema import Table
        from repro.obs import registry
        from repro.store.scan import session_chunk_keep
        blocks, block_rows = ("serve.manager.store_scan." + kind
                              for kind in ("blocks", "block_rows"))
        assert all("``{}``".format(name) in registry.__doc__
                   for name in (blocks, block_rows))

        manager = SessionManager(obs_lte)
        sids = _open_fed(manager, make_oracle(31), obs_subspaces, 2)
        rows = np.tile(obs_lte.table.data, (12, 1))
        rows[5000:7000] *= 50.0         # chunks no hull reaches
        store = Table("CAR", obs_lte.table.attributes, rows) \
            .to_store(chunk_rows=512)
        manager.predict_many_store(sids, store)
        snap = manager.metrics.snapshot()
        scan = manager.last_store_scan
        assert scan["pruned_skipped"] > 0
        assert 3 <= snap[blocks]["value"] <= scan["chunk_evals"]
        assert snap[block_rows]["count"] == snap[blocks]["value"]
        assert snap[block_rows]["max"] <= 8192
        # Block rows sum to the rows evaluated: those of every chunk
        # some session owed.
        owed = np.any([session_chunk_keep(
            store, manager.session(sid)._subsessions) for sid in sids],
            axis=0)
        assert snap[block_rows]["sum"] == store.zone_maps.counts[owed].sum()
        assert snap[block_rows]["sum"] < len(rows)

        # A repeat at the same version is served from marks: no block.
        manager.predict_many_store(sids, store)
        again = manager.metrics.snapshot()
        assert again[blocks] == snap[blocks]
        assert again[block_rows] == snap[block_rows]


class TestSnapshotRestore:
    def test_counters_survive_snapshot_roundtrip(self, obs_lte,
                                                 obs_subspaces,
                                                 make_oracle, eval_rows):
        manager = SessionManager(obs_lte)
        sids, reference = _serve_wave(manager, make_oracle(47),
                                      obs_subspaces, eval_rows)
        snapshot = manager.snapshot()
        assert snapshot["metrics"] == manager.metrics.snapshot()
        restored = SessionManager.restore(obs_lte, snapshot)
        # The full telemetry state (counters AND histogram buckets)
        # continues where the snapshot left off.
        assert restored.metrics.snapshot() == snapshot["metrics"]
        assert restored.adapt_batches == manager.adapt_batches
        for sid in sids:
            assert np.array_equal(restored.predict(sid, eval_rows),
                                  reference[sid])

    def test_a_snapshot_without_metrics_is_refused(self, obs_lte,
                                                   obs_subspaces,
                                                   make_oracle, eval_rows):
        """The adaptation counts live in the metrics alone: a snapshot
        without them (one from before repro.obs) cannot restore them."""
        manager = SessionManager(obs_lte)
        _serve_wave(manager, make_oracle(53), obs_subspaces, eval_rows,
                    n_sessions=1)
        snapshot = manager.snapshot()
        del snapshot["metrics"]
        with pytest.raises(KeyError, match="metrics"):
            SessionManager.restore(obs_lte, snapshot)


class TestNoInterference:
    def test_predictions_bit_identical_with_and_without_sink(
            self, obs_lte, obs_subspaces, make_oracle, eval_rows):
        """The acceptance guarantee: tracing a wave into a sink changes
        no prediction by a single bit, and with no sink installed the
        tracer builds no span at all."""
        from repro.obs import trace
        oracle = make_oracle(59)
        traced = SessionManager(obs_lte)
        with obs.capture() as events:
            _, with_sink = _serve_wave(traced, oracle, obs_subspaces,
                                       eval_rows)
        assert events                       # the spans were really live
        plain = SessionManager(obs_lte)
        first_id = next(trace._IDS)
        _, without_sink = _serve_wave(plain, oracle, obs_subspaces,
                                      eval_rows)
        assert next(trace._IDS) == first_id + 1   # no Span was created
        # Metrics count either way.
        assert plain.metrics.value("serve.manager.adapt.batches") == \
            traced.metrics.value("serve.manager.adapt.batches") >= 1
        assert sorted(with_sink) == sorted(without_sink)
        for sid in with_sink:
            assert np.array_equal(with_sink[sid], without_sink[sid])


class TestOfflinePreparationMetrics:
    """Preparation — most of a warm start, a refresh and a set-up fit —
    is visible from inside the program, not only to a ``progress=``
    callback."""

    NAMES = ("core.offline.prepare.seconds", "ml.kmeans.iterations")

    @staticmethod
    def _prepare():
        from repro.core import LTE, LTEConfig
        from repro.data import make_car
        lte = LTE(LTEConfig(budget=20, ku=25, kq=30, n_tasks=6))
        return lte.fit_offline(make_car(n_rows=800, seed=2), train=False)

    def test_emitted_during_fit_offline(self):
        lte = self._prepare()
        snap = obs.default_registry().snapshot()
        prepare = snap["core.offline.prepare.seconds"]
        assert prepare["kind"] == "histogram"
        assert prepare["count"] == len(lte.states)     # one a subspace
        assert 0 < prepare["sum"] <= lte.offline_seconds_
        # Three clustering rounds a subspace, at least one iteration each.
        assert snap["ml.kmeans.iterations"]["kind"] == "counter"
        assert snap["ml.kmeans.iterations"]["value"] >= 3 * len(lte.states)

    def test_listed_in_the_catalogue(self):
        from repro.obs import registry
        for name in self.NAMES:
            assert "``{}``".format(name) in registry.__doc__


class TestHullBuildAndGenerationMetrics:
    """Meta-task generation sits between ``core.offline.prepare`` and the
    training epochs; it has a histogram of its own, and every
    full-dimensional hull build — offline or in a flush — is counted
    where it happens."""

    NAMES = ("core.offline.generate.seconds", "geometry.hull.builds")

    def test_a_fit_generates_once_and_builds_each_seed_hull_once(self):
        from repro.core import LTE, LTEConfig
        from repro.core.meta_training import MetaHyperParams
        from repro.data import make_car
        cfg = LTEConfig(budget=20, ku=25, kq=30, n_tasks=40,
                        meta=MetaHyperParams(epochs=1, local_steps=2,
                                             batch_size=8,
                                             pretrain_epochs=1))
        lte = LTE(cfg).fit_offline(make_car(n_rows=800, seed=2))
        snap = obs.default_registry().snapshot()
        generate = snap["core.offline.generate.seconds"]
        assert generate["kind"] == "histogram"
        assert generate["count"] == len(lte.states)   # one a subspace
        assert 0 < generate["sum"] <= lte.offline_seconds_
        # 40 tasks x 4 parts draw 160 seeds a subspace out of 25: the
        # per-draw construction built 320 full-dimensional hulls over the
        # two 2-D subspaces (the 1-D one builds intervals).
        full_dim = sum(subspace.dim > 1 for subspace in lte.states)
        builds = snap["geometry.hull.builds"]
        assert builds["kind"] == "counter"
        assert 0 < builds["value"] <= full_dim * min(
            cfg.n_tasks * cfg.task_mode.alpha, cfg.ku)

    def test_a_second_flush_over_the_same_anchors_builds_nothing(
            self, obs_lte, obs_subspaces, make_oracle):
        import copy
        lte = copy.deepcopy(obs_lte)     # its own memos, emptied: the
        for subspace in obs_subspaces:   # fixture has served other tests
            lte.states[subspace].summary.anchor_hulls.clear()
        builds = obs.default_registry().counter("geometry.hull.builds")
        oracle = make_oracle(31)
        first = SessionManager(lte)
        _open_fed(first, oracle, obs_subspaces, n_sessions=3)
        cold = builds.value
        assert cold > 0
        _open_fed(first, oracle, obs_subspaces, n_sessions=3)
        _open_fed(SessionManager(lte), oracle, obs_subspaces, n_sessions=2)
        assert builds.value == cold

    def test_listed_in_the_catalogue(self):
        from repro.obs import registry
        for name in self.NAMES:
            assert "``{}``".format(name) in registry.__doc__


class TestFanOutMetrics:
    """A flush's adapt bucket trains as two halves on two threads once
    its estimated multiply-adds a step reach ``repro.nn.cores.SPLIT_MACS``:
    a paper-size bucket of 16 does, a small-net bucket of 32 does not."""

    NAMES = ("nn.fan_out.split", "nn.fan_out.whole",
             "nn.fan_out.wait.seconds")

    @staticmethod
    def _flush_one_bucket(k, **nets):
        """Counter and histogram deltas of one flush of ``k`` sessions on
        one 2-D subspace — one bucket of ``k`` tasks."""
        from repro.core import LTE, LTEConfig
        from repro.core.meta_training import MetaHyperParams
        from repro.data import make_sdss, random_decomposition
        table = make_sdss(2000, seed=3)
        subspace = next(s for s in random_decomposition(table, dim=2, seed=0)
                        if s.dim == 2)
        lte = LTE(LTEConfig(n_tasks=3, meta=MetaHyperParams(
            epochs=1, local_steps=1, pretrain_epochs=0), **nets))
        lte.fit_offline(table, subspaces=[subspace])
        manager = SessionManager(lte)
        rng = np.random.default_rng(0)
        for seed in range(k):
            sid = manager.open_session(subspaces=[subspace], seed=seed)
            tuples = manager.initial_tuples(sid)[subspace]
            manager.submit_labels(sid, subspace,
                                  (rng.random(len(tuples)) < 0.4).astype(int))
        registry = obs.default_registry()
        wait = registry.histogram("nn.fan_out.wait.seconds")
        before = [registry.value(name) for name in
                  TestFanOutMetrics.NAMES[:2]] + [wait.count]
        assert manager.flush() == k
        after = [registry.value(name) for name in
                 TestFanOutMetrics.NAMES[:2]] + [wait.count]
        return [b - a for a, b in zip(before, after)]

    def test_a_paper_size_flush_of_16_splits(self):
        from repro.nn import cores
        if cores._BLAS is not None and cores.compute_threads() >= 2:
            assert self._flush_one_bucket(16) == [1, 0, 1]
        else:
            assert self._flush_one_bucket(16) == [0, 1, 0]

    def test_a_small_net_flush_of_32_runs_whole(self):
        assert self._flush_one_bucket(
            32, embed_size=32, hidden_size=32, ku=40, kq=60,
            n_components=4) == [0, 1, 0]

    def test_listed_in_the_catalogue(self):
        from repro.obs import registry
        for name in self.NAMES:
            assert "``{}``".format(name) in registry.__doc__
