"""Pool-vs-in-process bit-identity of the data-parallel training tier.

``workers=N`` makes ``ParallelTrainEngine`` partition fused meta-batches
and pretrain fusion groups across N forked worker processes; its
determinism contract (see the :mod:`repro.train.parallel` docstring)
says phi, memories, pretrain-Adam moments and loss histories are
**bit-identical to the in-process run at any worker count** — and
therefore so is every downstream online session.  These tests pin that
contract at workers=1/2/4, fuzz it over the axes that change the stacked
program, prove progress-event order is master-side deterministic under
shuffled worker reply timing, and exercise the typed crash and telemetry
paths.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LTE, LTEConfig
from repro.core.meta_training import MetaHyperParams, MetaTrainer
from repro.train import (OfflineRun, ParallelTrainEngine, TrainerSchedule,
                         TrainWorkerCrashed, encode_task_sets)

pytestmark = [pytest.mark.train, pytest.mark.train_parallel]


def small_config():
    return LTEConfig(budget=20, ku=20, kq=25, n_tasks=5,
                     meta=MetaHyperParams(epochs=2, local_steps=2,
                                          batch_size=3, pretrain_epochs=1),
                     basic_steps=10, online_steps=3)


def build_trainer(task_generator, preprocessor, use_memories=True, seed=0,
                  **overrides):
    params = dict(epochs=2, local_steps=3, batch_size=4, pretrain_epochs=1,
                  rho=0.02, lam=1e-3)
    params.update(overrides)
    return MetaTrainer(ku=task_generator.summary.ku,
                       input_width=preprocessor.width,
                       embed_size=12, hidden_size=8,
                       params=MetaHyperParams(**params),
                       use_memories=use_memories, seed=seed)


def assert_trainers_identical(a, b):
    assert np.array_equal(a.model.flat_parameters(),
                          b.model.flat_parameters())
    assert a.history == b.history
    if a.memories is not None:
        sa, sb = a.memories.state_dict(), b.memories.state_dict()
        for key in ("M_vR", "M_R", "M_CP"):
            assert np.array_equal(sa[key], sb[key]), key


def train_parallel(trainer, encoded, workers):
    """One full offline run of ``trainer`` over a worker pool."""
    run = OfflineRun([TrainerSchedule(trainer, encoded)], workers=workers)
    try:
        run.run()
    finally:
        run.close()
    return trainer


# ----------------------------------------------------------------------
# End-to-end fit_offline parity (phi + memories + history + sessions)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def parallel_pair(car_small):
    table = car_small
    batched = LTE(small_config()).fit_offline(table)
    parallel = LTE(small_config()).fit_offline(table, workers=2)
    return table, batched, parallel


@pytest.mark.parametrize("workers", [1, 4])
def test_fit_offline_bit_identical_any_worker_count(parallel_pair, workers):
    table, batched, _ = parallel_pair
    parallel = LTE(small_config()).fit_offline(table, workers=workers)
    for subspace in batched.states:
        a = batched.states[subspace].trainer
        b = parallel.states[subspace].trainer
        assert_trainers_identical(a, b)


def test_fit_offline_bit_identical_two_workers(parallel_pair):
    _, batched, parallel = parallel_pair
    assert list(batched.states) == list(parallel.states)
    for subspace in batched.states:
        assert_trainers_identical(batched.states[subspace].trainer,
                                  parallel.states[subspace].trainer)


@pytest.mark.parametrize("variant", ["basic", "meta", "meta_star"])
def test_downstream_sessions_identical(parallel_pair, variant):
    from repro.bench import subspace_region
    from repro.core.uis import UISMode
    from repro.explore import ConjunctiveOracle, run_lte_exploration

    table, batched, parallel = parallel_pair
    subspaces = list(batched.states)[:2]
    eval_rows = table.sample_rows(250, seed=5)
    results = []
    for lte in (batched, parallel):
        oracle = ConjunctiveOracle({
            s: subspace_region(lte.states[s], UISMode(1, 8), seed=23 + i)
            for i, s in enumerate(subspaces)})
        results.append(run_lte_exploration(lte, oracle, eval_rows,
                                           variant=variant,
                                           subspaces=subspaces))
    assert results[0].f1 == results[1].f1
    assert np.array_equal(results[0].predictions, results[1].predictions)


# ----------------------------------------------------------------------
# Fuzzed engine-level parity (single-trainer schedules)
# ----------------------------------------------------------------------
@settings(max_examples=6, deadline=None)
@given(st.integers(0, 10 ** 6),
       st.integers(1, 9),           # n_tasks
       st.integers(1, 5),           # batch_size (often uneven tails)
       st.sampled_from(["adam", "sgd"]),
       st.booleans(),               # use_memories
       st.booleans(),               # balance_classes
       st.integers(0, 1),           # pretrain_epochs
       st.sampled_from([2, 3]))     # workers
def test_parallel_parity_property(task_generator, preprocessor, meta_tasks,
                                  seed, n_tasks, batch_size, optimizer,
                                  use_memories, balance, pretrain, workers):
    tasks = meta_tasks[:n_tasks]
    kwargs = dict(use_memories=use_memories, seed=seed,
                  local_optimizer=optimizer, balance_classes=balance,
                  batch_size=batch_size, pretrain_epochs=pretrain,
                  epochs=1, local_steps=2)
    reference = build_trainer(task_generator, preprocessor, **kwargs)
    reference.train(tasks, preprocessor.transform)
    candidate = build_trainer(task_generator, preprocessor, **kwargs)
    train_parallel(candidate,
                   encode_task_sets(tasks, preprocessor.transform),
                   workers)
    assert_trainers_identical(reference, candidate)


# ----------------------------------------------------------------------
# Deterministic event order under shuffled worker reply timing
# ----------------------------------------------------------------------
def test_progress_events_deterministic_under_reply_shuffle(
        task_generator, preprocessor, meta_tasks):
    """Per-worker reply delays cannot reorder progress events: the
    master collects spans in fixed order and emits after its ordered
    reduction, so the event log is byte-identical with and without a
    deliberately skewed reply schedule."""
    logs = []
    for stagger in (False, True):
        events = []
        # Two same-shape schedules fuse into one group, so every epoch
        # spans both workers.
        schedules = [
            TrainerSchedule(
                build_trainer(task_generator, preprocessor, seed=seed),
                encode_task_sets(meta_tasks[:6], preprocessor.transform))
            for seed in (0, 1)]
        run = OfflineRun(
            schedules, workers=2,
            on_epoch=lambda s, kind, e, loss:
                events.append((schedules.index(s), kind, e, loss)))
        try:
            engine = run.parallel
            if stagger:
                # Slow the FIRST-posted worker only: later spans reply
                # first, exercising the wait-in-order path for real.
                engine._rpc.call(engine._workers[0], "_debug",
                                 {"delay_seconds": 0.05})
            run.run()
        finally:
            run.close()
        logs.append(events)
    assert logs[0] == logs[1]
    assert any(kind == "meta" for _, kind, _, _ in logs[0])


# ----------------------------------------------------------------------
# Typed crash detection
# ----------------------------------------------------------------------
def test_worker_crash_raises_typed_error(task_generator, preprocessor,
                                         meta_tasks):
    trainer = build_trainer(task_generator, preprocessor,
                            pretrain_epochs=0, epochs=1)
    encoded = encode_task_sets(meta_tasks[:6], preprocessor.transform)
    schedule = TrainerSchedule(trainer, encoded)
    with ParallelTrainEngine([schedule], workers=2) as engine:
        engine.debug(crash_on_compute=True)
        run = OfflineRun([schedule], workers=2)
        run._parallel = engine
        with pytest.raises(TrainWorkerCrashed):
            run.step_epoch()
        # telemetry after the crash: tombstones, never an exception
        report = engine.metrics()
        assert all(entry == {"dead": True}
                   for entry in report["workers"].values())
        snap = engine.master_metrics.snapshot()
        assert snap["train.parallel.workers.crashed"]["value"] >= 1
        assert snap["train.parallel.workers.alive"]["value"] == 0


def test_crashed_engine_state_resumes_cleanly(task_generator, preprocessor,
                                              meta_tasks):
    """After a crash mid-epoch the master state is untouched (no partial
    reduction leaked), so re-running on a fresh pool converges to the
    single-process result."""
    tasks = meta_tasks[:6]
    reference = build_trainer(task_generator, preprocessor)
    reference.train(tasks, preprocessor.transform)

    trainer = build_trainer(task_generator, preprocessor)
    encoded = encode_task_sets(tasks, preprocessor.transform)
    schedule = TrainerSchedule(trainer, encoded)
    with ParallelTrainEngine([schedule], workers=2) as engine:
        engine.debug(crash_on_compute=True)
        run = OfflineRun([schedule], workers=2)
        run._parallel = engine
        with pytest.raises(TrainWorkerCrashed):
            while not run.done:
                run.step_epoch()
    # The crashed meta epoch applied nothing (state updates happen only
    # after all spans returned); a fresh pool over a fresh trainer still
    # converges to the single-process result.
    fresh = build_trainer(task_generator, preprocessor)
    train_parallel(fresh, encode_task_sets(tasks, preprocessor.transform),
                   2)
    assert_trainers_identical(reference, fresh)


# ----------------------------------------------------------------------
# Telemetry: per-worker registries merged on the master
# ----------------------------------------------------------------------
def test_metrics_merge_across_workers(task_generator, preprocessor,
                                      meta_tasks):
    trainer = build_trainer(task_generator, preprocessor, epochs=1)
    encoded = encode_task_sets(meta_tasks[:8], preprocessor.transform)
    schedule = TrainerSchedule(trainer, encoded)
    run = OfflineRun([schedule], workers=2)
    try:
        run.run()
        report = run.parallel.metrics()
    finally:
        run.close()
    assert set(report) == {"workers", "master", "merged"}
    assert sorted(report["workers"]) == [0, 1]

    def value(snap, name):
        entry = snap.get(name)
        return 0 if entry is None else entry["value"]

    per_worker = [value(snap, "train.worker.batches")
                  for snap in report["workers"].values()]
    assert sum(per_worker) >= 1
    merged = report["merged"]
    assert value(merged, "train.worker.batches") == sum(per_worker)
    assert value(merged, "train.parallel.rpc.calls") \
        == value(report["master"], "train.parallel.rpc.calls") > 0
    # gauges returned to idle after the run
    assert value(report["master"], "train.worker.busy") == 0
    assert "train.reduce.latency" in report["master"]
    assert report["master"]["train.reduce.seconds"]["count"] >= 1
    assert value(merged, "train.parallel.workers.alive") == 2


# ----------------------------------------------------------------------
# Store-streamed encoded task sets
# ----------------------------------------------------------------------
def test_streamed_tasks_bit_equal_materialized(task_generator, preprocessor,
                                               meta_tasks, tmp_path):
    tasks = meta_tasks[:7]
    materialized = encode_task_sets(tasks, preprocessor.transform)
    streamed = encode_task_sets(tasks, preprocessor.transform,
                                spill=str(tmp_path / "enc"))
    assert len(streamed) == len(materialized)
    assert streamed.shape_signature == (materialized[0][1].shape,
                                        materialized[0][3].shape)
    for row_a, row_b in zip(materialized, streamed):
        for part_a, part_b in zip(row_a, row_b):
            assert np.array_equal(np.asarray(part_a, dtype=np.float64),
                                  part_b)
    view = streamed.pretrain_view()
    assert len(view) == len(tasks)
    v_r, xs, ys = view[0]
    assert xs.shape[0] == materialized[0][1].shape[0] \
        + materialized[0][3].shape[0]
    assert ys.dtype == np.float64


def test_streamed_training_parity(task_generator, preprocessor, meta_tasks,
                                  tmp_path):
    tasks = meta_tasks[:6]
    reference = build_trainer(task_generator, preprocessor)
    reference.train(tasks, preprocessor.transform)
    for workers in (None, 2):   # None = in-process batched over the store
        trainer = build_trainer(task_generator, preprocessor)
        encoded = encode_task_sets(
            tasks, preprocessor.transform,
            spill=str(tmp_path / "spill-{}".format(workers)))
        if workers is None:
            OfflineRun([TrainerSchedule(trainer, encoded)]).run()
        else:
            train_parallel(trainer, encoded, workers)
        assert_trainers_identical(reference, trainer)


class _SyntheticTask:
    """Minimal task shim for the memory-bound test: big uniform blocks."""

    def __init__(self, rng, ku, kq, width):
        self.support_x = rng.standard_normal((ku, width))
        self.query_x = rng.standard_normal((kq, width))
        self.support_y = (rng.random(ku) > 0.5).astype(np.float64)
        self.query_y = (rng.random(kq) > 0.5).astype(np.float64)
        self.feature_vector = rng.standard_normal(8)


def test_streamed_spill_bounds_peak_memory(tmp_path):
    """Spilling a task set much larger than one store chunk keeps peak
    allocation bounded by the encode block / chunk size, not the total
    encoded volume (the whole point of the streamed path)."""
    rng = np.random.default_rng(0)
    tasks = [_SyntheticTask(rng, ku=50, kq=75, width=200)
             for _ in range(384)]
    row_bytes = 8 * (8 + 50 * 200 + 50 + 75 * 200 + 75)
    # ~77 MB materialized vs an O(chunk-size) streaming footprint (the
    # builder holds a small constant number of ~4 MiB chunk buffers).
    total_bytes = row_bytes * len(tasks)

    tracemalloc.start()
    encoded = encode_task_sets(tasks, lambda block: np.asarray(block),
                               rows_per_block=256,
                               spill=str(tmp_path / "big"))
    _, peak_write = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert encoded.store.n_chunks > 1   # genuinely multi-chunk
    assert peak_write < total_bytes / 2, \
        "spill peak {} vs materialized {}".format(peak_write, total_bytes)

    tracemalloc.start()
    checksum = 0.0
    for v_r, sx, sy, qx, qy in encoded:
        checksum += float(sx[0, 0]) + float(qx[0, 0])
    _, peak_read = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert np.isfinite(checksum)
    assert peak_read < total_bytes / 2, \
        "read peak {} vs materialized {}".format(peak_read, total_bytes)


def test_spill_falls_back_for_nonuniform_shapes(tmp_path):
    rng = np.random.default_rng(1)
    tasks = [_SyntheticTask(rng, ku=10, kq=12, width=6),
             _SyntheticTask(rng, ku=11, kq=12, width=6)]
    encoded = encode_task_sets(tasks, lambda block: np.asarray(block),
                               spill=str(tmp_path / "mixed"))
    assert isinstance(encoded, list)   # materialized fallback
    assert len(encoded) == 2


# ----------------------------------------------------------------------
# Worker-count resolution / configuration plumbing
# ----------------------------------------------------------------------
def test_resolve_workers(task_generator, preprocessor, meta_tasks):
    """``workers`` is the one selector: None / 0 train in process, N >= 1
    is a pool of N, anything else fails typed."""
    schedule = TrainerSchedule(
        build_trainer(task_generator, preprocessor),
        encode_task_sets(meta_tasks[:2], preprocessor.transform))
    for in_process in (None, 0):
        run = OfflineRun([schedule], workers=in_process)
        assert run.workers == 0 and run.parallel is None
    assert OfflineRun([schedule], workers=3).workers == 3
    assert OfflineRun([schedule], workers=np.int64(2)).workers == 2
    for bad in (-1, 1.5, "2"):
        with pytest.raises(ValueError):
            OfflineRun([schedule], workers=bad)
    with pytest.raises(ValueError):
        ParallelTrainEngine([schedule], workers=0)


def test_fit_offline_workers_alone_runs_a_pool(car_small, parallel_pair,
                                               monkeypatch):
    """``fit_offline(table, workers=2)`` — no other switch — trains over
    a live two-worker pool and lands on the in-process bits.  (It used
    to be ignored without ``engine="parallel"``: no pool, no error.)"""
    from repro.train import parallel as parallel_module

    built = []

    class Recording(ParallelTrainEngine):
        def __init__(self, schedules, workers, **kwargs):
            super().__init__(schedules, workers, **kwargs)
            built.append(self)

    monkeypatch.setattr(parallel_module, "ParallelTrainEngine", Recording)
    alive = []

    def progress(subspace, stage):
        if isinstance(stage, tuple):   # an epoch just reduced: pool is up
            alive.append([link.process.is_alive()
                          for engine in built for link in engine._workers])

    _, batched, _ = parallel_pair
    pooled = LTE(small_config()).fit_offline(car_small, workers=2,
                                             progress=progress)
    assert len(built) == 1 and built[0].n_workers == 2
    assert alive and all(snapshot == [True, True] for snapshot in alive)
    assert built[0]._closed   # ... and is gone when fit_offline returns
    for subspace in batched.states:
        assert_trainers_identical(batched.states[subspace].trainer,
                                  pooled.states[subspace].trainer)


@pytest.mark.parametrize("bad", [-1, 1.5, "2"])
def test_fit_offline_rejects_bad_workers_before_preparing(car_small, bad,
                                                          monkeypatch):
    lte = LTE(small_config())
    monkeypatch.setattr(
        lte, "_prepare_subspace",
        lambda *args, **kwargs: pytest.fail("a subspace was prepared"))
    with pytest.raises(ValueError, match="workers"):
        lte.fit_offline(car_small, workers=bad)
    assert not lte.states


def test_engine_rejects_use_after_close(task_generator, preprocessor,
                                        meta_tasks):
    from repro.train import TrainParallelError

    trainer = build_trainer(task_generator, preprocessor)
    encoded = encode_task_sets(meta_tasks[:4], preprocessor.transform)
    schedule = TrainerSchedule(trainer, encoded)
    engine = ParallelTrainEngine([schedule], workers=1)
    engine.close()
    engine.close()   # idempotent
    with pytest.raises(TrainParallelError):
        engine.pretrain_epoch([schedule])
