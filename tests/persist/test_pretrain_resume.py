"""Kill-and-resume parity of epoch-granular pretraining checkpoints.

``fit_offline(checkpoint=dir)`` writes a ``pretrain-run`` checkpoint
(trainer weights, memories, pretrain-Adam moments, RNG state,
per-subspace epoch cursors) after every epoch.  Killing the run at any
epoch and re-invoking ``fit_offline`` against the same directory must
finish the run and converge to the *identical* phi — bit for bit — and
hence to bit-identical online sessions for every variant.
"""

import json

import numpy as np
import pytest

from repro.core import LTE, LTEConfig
from repro.core.meta_training import MetaHyperParams
from repro.core.uis import UISMode
from repro.persist import CheckpointError, inspect_checkpoint

pytestmark = pytest.mark.train


def resume_config(**meta_overrides):
    meta = dict(epochs=3, local_steps=2, batch_size=3, pretrain_epochs=2)
    meta.update(meta_overrides)
    return LTEConfig(budget=20, ku=20, kq=25, n_tasks=5,
                     meta=MetaHyperParams(**meta),
                     basic_steps=10, online_steps=3)


class _Killed(Exception):
    pass


def _fit_killed_after(table, subspaces, checkpoint, kill_epoch,
                      kill_phase="epoch", kill_count=None):
    """fit_offline that dies once ``kill_count`` subspaces (default:
    all) finished ``kill_epoch`` of ``kill_phase`` ("pretrain" or
    "epoch" = the meta loop).  ``kill_count < len(subspaces)`` kills
    *mid-tick* — after one fusion group's epoch but before the tick's
    checkpoint."""
    finished = set()
    target = len(subspaces) if kill_count is None else kill_count

    def progress(subspace, stage):
        if isinstance(stage, tuple) and stage[0] == kill_phase \
                and stage[1] == kill_epoch:
            finished.add(subspace)
            if len(finished) == target:
                raise _Killed()

    lte = LTE(resume_config())
    with pytest.raises(_Killed):
        lte.fit_offline(table, subspaces=subspaces, progress=progress,
                        checkpoint=str(checkpoint))


def assert_identical_trainers(a, b):
    for subspace in a.states:
        ta, tb = a.states[subspace].trainer, b.states[subspace].trainer
        assert np.array_equal(ta.model.flat_parameters(),
                              tb.model.flat_parameters()), subspace
        assert ta.history == tb.history
        if ta.memories is not None:
            sa, sb = ta.memories.state_dict(), tb.memories.state_dict()
            for key in ("M_vR", "M_R", "M_CP"):
                assert np.array_equal(sa[key], sb[key])


@pytest.fixture(scope="module")
def uninterrupted(persist_table, persist_subspaces):
    lte = LTE(resume_config())
    lte.fit_offline(persist_table, subspaces=persist_subspaces)
    return lte


# killing at pretrain epoch 1 resumes from a mid-pretrain checkpoint
# (cursor 1/2, carried Adam moments); the meta-phase kills resume from a
# mid-meta checkpoint.  Epoch 0 of the first phase has no prior
# checkpoint yet — that path is plain cold-start and needs no case here.
@pytest.mark.parametrize("kill_phase,kill_epoch",
                         [("pretrain", 1), ("epoch", 0), ("epoch", 1)])
def test_kill_and_resume_is_bit_identical(tmp_path, persist_table,
                                          persist_subspaces, uninterrupted,
                                          kill_phase, kill_epoch):
    checkpoint = tmp_path / "pretrain"
    _fit_killed_after(persist_table, persist_subspaces, checkpoint,
                      kill_epoch, kill_phase=kill_phase)
    summary = inspect_checkpoint(str(checkpoint))
    assert summary["kind"] == "pretrain-run"
    assert summary["digest_ok"]
    cursors = summary["meta"]["epoch_cursor"]
    assert len(cursors) == len(persist_subspaces)

    resumed = LTE(resume_config())
    resumed.fit_offline(persist_table, subspaces=persist_subspaces,
                        checkpoint=str(checkpoint))
    assert_identical_trainers(uninterrupted, resumed)
    # the finished run's checkpoint records completed cursors
    done = inspect_checkpoint(str(checkpoint))["meta"]["epoch_cursor"]
    for cursor in done.values():
        assert cursor["pretrain"] == "2/2"
        assert cursor["meta"] == "3/3"


@pytest.mark.parametrize("variant", ["basic", "meta", "meta_star"])
def test_resumed_sessions_match_uninterrupted(tmp_path, persist_table,
                                              persist_subspaces,
                                              uninterrupted, variant):
    from repro.bench import subspace_region
    from repro.explore import ConjunctiveOracle, run_lte_exploration

    checkpoint = tmp_path / "pretrain"
    _fit_killed_after(persist_table, persist_subspaces, checkpoint, 0)
    resumed = LTE(resume_config())
    resumed.fit_offline(persist_table, subspaces=persist_subspaces,
                        checkpoint=str(checkpoint))

    eval_rows = persist_table.sample_rows(200, seed=5)
    results = []
    for lte in (uninterrupted, resumed):
        oracle = ConjunctiveOracle({
            s: subspace_region(lte.states[s], UISMode(1, 8), seed=23 + i)
            for i, s in enumerate(persist_subspaces)})
        results.append(run_lte_exploration(lte, oracle, eval_rows,
                                           variant=variant,
                                           subspaces=persist_subspaces))
    assert results[0].f1 == results[1].f1
    assert np.array_equal(results[0].predictions, results[1].predictions)


def test_mid_tick_kill_resumes_identically(tmp_path, persist_table,
                                           persist_subspaces,
                                           uninterrupted):
    """Killed after one fusion group's epoch but before the tick's
    checkpoint: the half-finished tick is discarded and the resume
    replays it from the last checkpoint, bit-identically."""
    checkpoint = tmp_path / "pretrain"
    _fit_killed_after(persist_table, persist_subspaces, checkpoint, 1,
                      kill_count=1)
    resumed = LTE(resume_config())
    resumed.fit_offline(persist_table, subspaces=persist_subspaces,
                        checkpoint=str(checkpoint))
    assert_identical_trainers(uninterrupted, resumed)


def test_finished_checkpoint_resumes_instantly(tmp_path, persist_table,
                                               persist_subspaces,
                                               uninterrupted):
    checkpoint = tmp_path / "pretrain"
    first = LTE(resume_config())
    first.fit_offline(persist_table, subspaces=persist_subspaces,
                      checkpoint=str(checkpoint))
    again = LTE(resume_config())
    again.fit_offline(persist_table, subspaces=persist_subspaces,
                      checkpoint=str(checkpoint))
    assert_identical_trainers(uninterrupted, again)


def test_checkpoint_naming_an_nn_backend_still_resumes(tmp_path,
                                                      persist_table,
                                                      persist_subspaces,
                                                      uninterrupted):
    """Runs checkpointed while a second nn executor existed recorded
    ``nn_backend`` in the manifest meta, runs checkpointed while
    ``engine=`` chose between training executors recorded ``engine``,
    and runs checkpointed by a forked worker pool recorded ``workers``;
    all three keys were provenance only, are never read, and such a
    checkpoint resumes to the identical phi."""
    checkpoint = tmp_path / "pretrain"
    _fit_killed_after(persist_table, persist_subspaces, checkpoint, 1)
    manifest_path = checkpoint / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert not {"nn_backend", "engine", "workers"} & set(manifest["meta"])
    manifest["meta"]["nn_backend"] = "fused"
    manifest["meta"]["engine"] = "sequential"
    manifest["meta"]["workers"] = 2
    manifest_path.write_text(json.dumps(manifest))
    meta = inspect_checkpoint(str(checkpoint))["meta"]
    assert (meta["nn_backend"], meta["engine"], meta["workers"]) == \
        ("fused", "sequential", 2)

    resumed = LTE(resume_config())
    resumed.fit_offline(persist_table, subspaces=persist_subspaces,
                        checkpoint=str(checkpoint))
    assert_identical_trainers(uninterrupted, resumed)


def test_resume_rejects_changed_epoch_plan(tmp_path, persist_table,
                                           persist_subspaces):
    checkpoint = tmp_path / "pretrain"
    _fit_killed_after(persist_table, persist_subspaces, checkpoint, 0)
    changed = LTE(resume_config(epochs=5))
    with pytest.raises(CheckpointError):
        changed.fit_offline(persist_table, subspaces=persist_subspaces,
                            checkpoint=str(checkpoint))


def test_resume_rejects_foreign_system(tmp_path, persist_table,
                                       persist_subspaces):
    from repro.data import make_car

    checkpoint = tmp_path / "pretrain"
    _fit_killed_after(persist_table, persist_subspaces, checkpoint, 0)
    other_table = make_car(n_rows=1400, seed=99)
    foreign = LTE(resume_config())
    with pytest.raises(CheckpointError):
        foreign.fit_offline(other_table, checkpoint=str(checkpoint))
