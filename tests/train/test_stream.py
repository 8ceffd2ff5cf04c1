"""Store-streamed encoded task sets (``fit_offline(stream=)``).

``encode_task_sets(..., spill=dir)`` writes each encoded task into an
on-disk chunk store and hands back a lazy ``EncodedTaskSet``.  The view
must read back the materialized list's bits, train to the same phi,
memories and history, keep peak allocation bounded by the chunk size
rather than the task count, and refuse a task set of two shapes before
spilling anything.  At the top, ``fit_offline(stream=True)``
and ``fit_offline(stream=dir)`` must fit the materialized run's
trainers and sessions, resume from a checkpoint the same way, and
remove a private spill (and only a private one) when the fit ends.
"""

import os
import tempfile
import tracemalloc

import numpy as np
import pytest

from repro.core import LTE, LTEConfig
from repro.core.meta_training import MetaHyperParams, MetaTrainer
from repro.core.uis import UISMode
from repro.data import make_car
from repro.train import OfflineRun, TrainerSchedule, encode_task_sets

pytestmark = pytest.mark.train


def build_trainer(task_generator, preprocessor):
    params = MetaHyperParams(epochs=2, local_steps=3, batch_size=4,
                             pretrain_epochs=1, rho=0.02, lam=1e-3)
    return MetaTrainer(ku=task_generator.summary.ku,
                       input_width=preprocessor.width,
                       embed_size=12, hidden_size=8, params=params,
                       use_memories=True, seed=0)


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
    trainer = build_trainer(task_generator, preprocessor)
    encoded = encode_task_sets(tasks, preprocessor.transform,
                               spill=str(tmp_path / "spill"))
    OfflineRun([TrainerSchedule(trainer, encoded)]).run()
    assert np.array_equal(reference.model.flat_parameters(),
                          trainer.model.flat_parameters())
    assert reference.history == trainer.history
    sa, sb = reference.memories.state_dict(), trainer.memories.state_dict()
    for key in ("M_vR", "M_R", "M_CP"):
        assert np.array_equal(sa[key], sb[key]), key


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


@pytest.mark.parametrize("field", ["feature_vector", "support_x",
                                   "query_x"])
def test_spill_refuses_a_task_set_of_two_shapes(tmp_path, field):
    """A task whose feature, support or query shape differs from task
    0's is named in a ``ValueError`` before anything is spilled."""
    rng = np.random.default_rng(1)
    tasks = [_SyntheticTask(rng, ku=10, kq=12, width=6) for _ in range(3)]
    setattr(tasks[2], field, getattr(tasks[2], field)[:-1])
    with pytest.raises(ValueError, match="meta-task 2 "):
        encode_task_sets(tasks, lambda block: np.asarray(block),
                         spill=str(tmp_path / "mixed"))
    assert not (tmp_path / "mixed").exists()


# ----------------------------------------------------------------------
# fit_offline(stream=)
# ----------------------------------------------------------------------
def small_config():
    return LTEConfig(budget=20, ku=20, kq=25, n_tasks=5,
                     meta=MetaHyperParams(epochs=2, local_steps=2,
                                          batch_size=3, pretrain_epochs=1),
                     basic_steps=10, online_steps=3)


class _Killed(Exception):
    pass


@pytest.fixture()
def spill_roots(monkeypatch):
    """Every private spill root a ``stream=True`` fit makes."""
    made = []
    real = tempfile.mkdtemp

    def recording(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(tempfile, "mkdtemp", recording)
    return made


@pytest.fixture(scope="module")
def stream_table():
    return make_car(n_rows=1500, seed=41)


@pytest.fixture(scope="module")
def materialized(stream_table):
    return LTE(small_config()).fit_offline(stream_table)


def assert_same_trainers(a, b):
    assert list(a.states) == list(b.states)
    for subspace in a.states:
        ta, tb = a.states[subspace].trainer, b.states[subspace].trainer
        assert np.array_equal(ta.model.flat_parameters(),
                              tb.model.flat_parameters()), subspace
        assert ta.history == tb.history
        sa, sb = ta.memories.state_dict(), tb.memories.state_dict()
        for key in ("M_vR", "M_R", "M_CP"):
            assert np.array_equal(sa[key], sb[key]), key


def test_a_streamed_fit_matches_the_materialized_one(stream_table,
                                                     materialized,
                                                     spill_roots):
    """``stream=True`` spills into one private root, trains to the
    materialized phi, memories and history, and removes the root."""
    streamed = LTE(small_config()).fit_offline(stream_table, stream=True)
    assert_same_trainers(materialized, streamed)
    assert len(spill_roots) == 1
    assert not os.path.exists(spill_roots[0])


@pytest.mark.parametrize("variant", ["basic", "meta", "meta_star"])
def test_streamed_sessions_match_the_materialized_ones(stream_table,
                                                       materialized,
                                                       variant):
    from repro.bench import subspace_region
    from repro.explore import ConjunctiveOracle, run_lte_exploration

    streamed = LTE(small_config()).fit_offline(stream_table, stream=True)
    subspaces = list(materialized.states)[:2]
    eval_rows = stream_table.sample_rows(250, seed=5)
    results = []
    for lte in (materialized, streamed):
        oracle = ConjunctiveOracle({
            s: subspace_region(lte.states[s], UISMode(1, 8), seed=23 + i)
            for i, s in enumerate(subspaces)})
        results.append(run_lte_exploration(lte, oracle, eval_rows,
                                           variant=variant,
                                           subspaces=subspaces))
    assert results[0].f1 == results[1].f1
    assert np.array_equal(results[0].predictions, results[1].predictions)


def test_a_named_spill_root_is_kept(stream_table, materialized, tmp_path,
                                    spill_roots):
    root = tmp_path / "spill"
    streamed = LTE(small_config()).fit_offline(stream_table,
                                               stream=str(root))
    assert_same_trainers(materialized, streamed)
    assert spill_roots == []
    assert sorted(os.listdir(root)) == sorted(
        "subspace-{}".format(i) for i in range(len(streamed.states)))


def test_a_killed_streamed_fit_resumes_identically(stream_table,
                                                   materialized, tmp_path,
                                                   spill_roots):
    """Killed after the first meta epoch, a streamed fit still removes
    its private spill; the streamed resume re-encodes into a new one
    and lands on the uninterrupted materialized bits."""
    checkpoint = str(tmp_path / "pretrain")

    def progress(subspace, stage):
        if isinstance(stage, tuple) and stage[:2] == ("epoch", 0):
            raise _Killed()

    with pytest.raises(_Killed):
        LTE(small_config()).fit_offline(stream_table, stream=True,
                                        checkpoint=checkpoint,
                                        progress=progress)
    assert len(spill_roots) == 1 and not os.path.exists(spill_roots[0])
    resumed = LTE(small_config()).fit_offline(stream_table, stream=True,
                                              checkpoint=checkpoint)
    assert_same_trainers(materialized, resumed)
    assert len(spill_roots) == 2 and not os.path.exists(spill_roots[1])
