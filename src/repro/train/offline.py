"""Pooled, resumable offline meta-training across meta-subspaces.

:class:`TrainerSchedule` wraps one
:class:`~repro.core.meta_training.MetaTrainer` with everything its
training run owns — the encoded task set, the epoch RNG, the phase
cursors (pretrain epochs / meta epochs completed) and the carried
pretrain-Adam state.  :class:`OfflineRun` advances a set of schedules
**one epoch per tick**, pooling shape-compatible subspaces into shared
fused programs (:mod:`repro.train.engine`): instead of finishing
subspace i before starting i+1, every tick interleaves one epoch of
every unfinished subspace, so a meta-batch stacks
``batch_size x n_subspaces`` tasks and a pretrain step stacks one task
per subspace.  Because the subspaces' trainers are independent (separate
phi, memories and RNG streams), any interleaving — and any fusion — is
bit-identical to training them one after another.

Epoch granularity is also the **resume granularity**:
:func:`run_offline_training` checkpoints every schedule's cursor, RNG
state, trainer weights and pretrain-optimizer moments after every tick
(via :func:`repro.persist.save_pretrain_run`), so a killed pretraining
run resumes from the last completed epoch and converges to the identical
phi, bit for bit (``tests/persist``).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time

import numpy as np

from ..obs import default_registry
from .engine import (MetaBatchSlot, run_meta_batch_fused,
                     run_pretrain_group, encode_task_sets)

__all__ = ["TrainerSchedule", "OfflineRun", "run_offline_training"]


class TrainerSchedule:
    """Resumable training state of ONE trainer over its encoded tasks.

    ``encoded=None`` marks a schedule restored from a *finished*
    checkpoint: no epochs remain, so the (expensive) meta-tasks are
    never regenerated or encoded — :meth:`load_state_dict` enforces
    that such a schedule really is complete.
    """

    def __init__(self, trainer, encoded):
        self.trainer = trainer
        if encoded is None or hasattr(encoded, "shape_signature"):
            # None, or a store-streamed EncodedTaskSet — keep the lazy
            # view; list() would materialize every task it exists to
            # keep out of memory.
            self.encoded = encoded
        else:
            self.encoded = list(encoded)
        self.n_tasks = None if encoded is None else len(self.encoded)
        self.rng = np.random.default_rng(trainer.seed)
        params = trainer.params
        self.pretrain_total = int(params.pretrain_epochs)
        self.meta_total = int(params.epochs)
        self.pretrain_done = 0
        self.meta_done = 0
        self.pretrain_opt_state = None
        self._pretrain_sets = None

    # -- phase bookkeeping ---------------------------------------------
    @property
    def phase(self):
        if self.pretrain_done < self.pretrain_total:
            return "pretrain"
        if self.meta_done < self.meta_total:
            return "meta"
        return "done"

    @property
    def done(self):
        return self.phase == "done"

    def next_pretrain_order(self):
        return self.rng.permutation(len(self.encoded))

    def next_meta_order(self):
        return self.rng.permutation(len(self.encoded))

    # -- pretrain working set ------------------------------------------
    @property
    def pretrain_sets(self):
        """Per-task ``(v_R, support+query tuples, labels)`` for joint
        pretraining (built lazily, cached)."""
        if self._pretrain_sets is None:
            view = getattr(self.encoded, "pretrain_view", None)
            if view is not None:
                # Store-streamed task set: serve the lazy projection so
                # a pretrain epoch touches one task at a time.
                self._pretrain_sets = view()
            else:
                self._pretrain_sets = [
                    (v_r, np.vstack([sx, qx]),
                     np.concatenate([sy, qy]).astype(np.float64))
                    for v_r, sx, sy, qx, qy in self.encoded]
        return self._pretrain_sets

    # -- fusion grouping ------------------------------------------------
    def _shape_signature(self):
        """The ``(support, query)`` shapes every task of the set shares
        (:func:`~repro.train.engine.encode_task_sets` admits one), None
        for an empty set."""
        signature = getattr(self.encoded, "shape_signature", None)
        if signature is not None:
            return signature
        return next(((sx.shape, qx.shape)
                     for _, sx, _, qx, _ in self.encoded), None)

    def pretrain_group_key(self):
        """Schedules sharing this key can pretrain in lockstep fusion."""
        params = self.trainer.params
        return (tuple(sorted(self.trainer.model.config.items())),
                self._shape_signature(), len(self.encoded),
                float(params.pretrain_lr), bool(params.balance_classes))

    def meta_group_key(self):
        """Schedules sharing this key can fuse their meta-batches."""
        params = self.trainer.params
        return (tuple(sorted(self.trainer.model.config.items())),
                self._shape_signature(), int(params.batch_size),
                int(params.local_steps), float(params.rho),
                str(params.local_optimizer), bool(params.balance_classes))

    # -- checkpointing --------------------------------------------------
    def state_dict(self):
        """Everything needed to resume this schedule bit-identically."""
        return {
            "n_tasks": int(self.n_tasks),
            "pretrain_total": int(self.pretrain_total),
            "meta_total": int(self.meta_total),
            "pretrain_done": int(self.pretrain_done),
            "meta_done": int(self.meta_done),
            "rng_state": _encode_rng_state(self.rng),
            "trainer": self.trainer.state_dict(),
            "pretrain_optimizer": self.pretrain_opt_state,
        }

    def load_state_dict(self, state):
        from ..persist.checkpoint import CheckpointError

        expected = {"pretrain_total": self.pretrain_total,
                    "meta_total": self.meta_total}
        if self.encoded is not None:
            expected["n_tasks"] = len(self.encoded)
        for field, value in expected.items():
            if int(state[field]) != int(value):
                raise CheckpointError(
                    "pretrain-run checkpoint has {}={} but the resuming "
                    "run was configured with {}; resume with the exact "
                    "original configuration".format(
                        field, state[field], value))
        self.pretrain_done = int(state["pretrain_done"])
        self.meta_done = int(state["meta_done"])
        self.n_tasks = int(state["n_tasks"])
        if self.encoded is None and not self.done:
            raise CheckpointError(
                "pretrain-run schedule was restored without its task set "
                "but still has epochs to run ({}/{} pretrain, {}/{} "
                "meta); this is a bug in the resume driver".format(
                    self.pretrain_done, self.pretrain_total,
                    self.meta_done, self.meta_total))
        self.trainer.load_state_dict(state["trainer"])
        self.rng = _decode_rng_state(state["rng_state"])
        self.pretrain_opt_state = state["pretrain_optimizer"]


def _encode_rng_state(rng):
    """JSON-able snapshot of a Generator's bit-generator state."""
    state = rng.bit_generator.state
    return {"bit_generator": state["bit_generator"],
            "state": {key: int(value)
                      for key, value in state["state"].items()},
            "has_uint32": int(state["has_uint32"]),
            "uinteger": int(state["uinteger"])}


def _decode_rng_state(snapshot):
    rng = np.random.default_rng(0)
    if snapshot["bit_generator"] != rng.bit_generator.state["bit_generator"]:
        from ..persist.checkpoint import CheckpointError
        raise CheckpointError(
            "pretrain-run checkpoint was written with bit generator {!r} "
            "but this numpy builds {!r}; resume on a matching numpy"
            .format(snapshot["bit_generator"],
                    rng.bit_generator.state["bit_generator"]))
    rng.bit_generator.state = {
        "bit_generator": snapshot["bit_generator"],
        "state": {key: int(value)
                  for key, value in snapshot["state"].items()},
        "has_uint32": int(snapshot["has_uint32"]),
        "uinteger": int(snapshot["uinteger"]),
    }
    return rng


class OfflineRun:
    """Drive a set of schedules to completion, one pooled epoch per tick.

    Parameters
    ----------
    schedules:
        :class:`TrainerSchedule` instances (typically one per
        meta-subspace; a single one reproduces ``MetaTrainer.train``).
    on_epoch:
        Optional callback ``(schedule, kind, epoch_index, mean_loss)``
        fired after each completed epoch — ``kind`` is ``"pretrain"``
        (``mean_loss`` is None) or ``"meta"`` (mean query loss).

    Every stacked program runs in this process; one worth two threads
    trains as two halves on two cores (:func:`repro.nn.cores.run_stack`).
    """

    def __init__(self, schedules, on_epoch=None):
        self.schedules = list(schedules)
        self.on_epoch = on_epoch

    @property
    def done(self):
        return all(schedule.done for schedule in self.schedules)

    def run(self):
        while not self.done:
            self.step_epoch()
        return self

    def step_epoch(self):
        """Advance every unfinished schedule by one epoch of its phase.

        Phase wall-clock lands in the process default ``repro.obs``
        registry (``train.offline.{pretrain,meta}_epoch.seconds``) —
        timing only, never on the training numerics.
        """
        metrics = default_registry()
        pretraining = [s for s in self.schedules if s.phase == "pretrain"]
        meta = [s for s in self.schedules if s.phase == "meta"]
        for group in _grouped(pretraining,
                              TrainerSchedule.pretrain_group_key):
            t0 = time.perf_counter()
            run_pretrain_group(group)
            metrics.histogram("train.offline.pretrain_epoch.seconds") \
                .observe(time.perf_counter() - t0)
            metrics.counter("train.offline.epochs.pretrain").inc()
            for schedule in group:
                schedule.pretrain_done += 1
                self._emit(schedule, "pretrain",
                           schedule.pretrain_done - 1, None)
        for group in _grouped(meta, TrainerSchedule.meta_group_key):
            t0 = time.perf_counter()
            losses = _run_meta_epoch(group)
            metrics.histogram("train.offline.meta_epoch.seconds") \
                .observe(time.perf_counter() - t0)
            metrics.counter("train.offline.epochs.meta").inc()
            for schedule, epoch_losses in zip(group, losses):
                mean = float(np.mean(epoch_losses)) if epoch_losses else 0.0
                schedule.trainer.history.append(mean)
                schedule.meta_done += 1
                self._emit(schedule, "meta", schedule.meta_done - 1, mean)

    def _emit(self, schedule, kind, epoch, mean_loss):
        if self.on_epoch is not None:
            self.on_epoch(schedule, kind, epoch, mean_loss)


def _grouped(schedules, key_method):
    """Schedules grouped by fusion key, preserving first-seen order."""
    groups = {}
    for schedule in schedules:
        groups.setdefault(key_method(schedule), []).append(schedule)
    return list(groups.values())


def _run_meta_epoch(schedules):
    """One meta epoch for a fusion group, batches interleaved round-robin.

    Returns per-schedule lists of query losses in task order — exactly
    the list a per-trainer epoch would produce, because the round-robin
    only reorders work *across* independent trainers.
    """
    batch_size = int(schedules[0].trainer.params.batch_size)
    orders = [schedule.next_meta_order() for schedule in schedules]
    losses = [[] for _ in schedules]
    n_batches = max((len(order) + batch_size - 1) // batch_size
                    for order in orders)
    for b in range(n_batches):
        slots, owners = [], []
        for s, schedule in enumerate(schedules):
            batch = orders[s][b * batch_size:(b + 1) * batch_size]
            if len(batch):
                slots.append(MetaBatchSlot(schedule.trainer,
                                           schedule.encoded, list(batch)))
                owners.append(s)
        if not slots:
            continue
        for s, batch_losses in zip(owners, run_meta_batch_fused(slots)):
            losses[s].extend(batch_losses)
    return losses


# ----------------------------------------------------------------------
# The LTE offline phase: pooled training over every prepared subspace
# ----------------------------------------------------------------------
def run_offline_training(lte, subspaces, progress=None, checkpoint=None,
                         stream=None):
    """Meta-train every prepared subspace of ``lte``, pooled and resumable.

    Builds one :class:`TrainerSchedule` per subspace (regenerating the
    deterministic meta-tasks and encodings), optionally resumes from an
    epoch-granular ``pretrain-run`` checkpoint at ``checkpoint``, trains
    all schedules with epochs interleaved round-robin across subspaces,
    and installs the finished trainers on the subspace states.

    ``progress`` (if given) receives ``(subspace, ("epoch",
    epoch_index, mean_query_loss))`` after every meta epoch and
    ``(subspace, "trained")`` per subspace once training completes.
    Event order is deterministic — epoch by epoch, subspaces in run
    order.

    ``stream`` bounds encode/training memory: ``True`` spills every
    subspace's encoded task set into a private on-disk
    :class:`~repro.store.ChunkStore` (removed when the run finishes), a
    path does the same under that directory (kept), and ``None``/False
    materializes in memory as ever.  Training over spilled sets is
    bit-identical to the materialized path.
    """
    cfg = lte.config
    subspaces = list(subspaces)
    saved = _load_saved_schedules(checkpoint, lte, subspaces)
    spill_root, owns_spill = None, False
    if stream:
        if stream is True:
            spill_root = tempfile.mkdtemp(prefix="repro-train-stream-")
            owns_spill = True
        else:
            spill_root = str(stream)
            os.makedirs(spill_root, exist_ok=True)
    try:
        schedules = []
        for index, subspace in enumerate(subspaces):
            state = lte.states[subspace]
            entry = saved.get(tuple(sorted(subspace.names)))
            trainer = lte.build_trainer(state)
            if entry is not None and _entry_done(entry):
                # Finished in the checkpoint: skip the (expensive) task
                # regeneration and encoding — nothing remains to train.
                schedule = TrainerSchedule(trainer, None)
            else:
                tasks = state.task_generator.generate(cfg.n_tasks)
                spill = None if spill_root is None else os.path.join(
                    spill_root, "subspace-{}".format(index))
                schedule = TrainerSchedule(
                    trainer, encode_task_sets(tasks, state.encode_scaled,
                                              spill=spill))
            if entry is not None:
                schedule.load_state_dict(entry)
            schedules.append(schedule)

        by_schedule = dict(zip(schedules, subspaces))

        def on_epoch(schedule, kind, epoch, mean_loss):
            if progress is None:
                return
            if kind == "meta":
                progress(by_schedule[schedule],
                         ("epoch", epoch, mean_loss))
            else:
                progress(by_schedule[schedule], ("pretrain", epoch))

        run = OfflineRun(schedules, on_epoch=on_epoch)
        while not run.done:
            run.step_epoch()
            # Checkpoint strictly between epochs: every fusion group of
            # the tick has applied its update, so no half-trained epoch
            # is ever captured.
            if checkpoint is not None:
                _save_run(checkpoint, lte, subspaces, schedules)

        for subspace, schedule in zip(subspaces, schedules):
            lte.states[subspace].trainer = schedule.trainer
            if progress is not None:
                progress(subspace, "trained")
        return run
    finally:
        if owns_spill:
            shutil.rmtree(spill_root, ignore_errors=True)


def _save_run(checkpoint, lte, subspaces, schedules):
    from ..persist.state import save_pretrain_run

    entries = [{"names": list(subspace.names),
                "schedule": schedule.state_dict()}
               for subspace, schedule in zip(subspaces, schedules)]
    save_pretrain_run(checkpoint, lte, entries)


def _entry_done(entry):
    return int(entry["pretrain_done"]) >= int(entry["pretrain_total"]) \
        and int(entry["meta_done"]) >= int(entry["meta_total"])


def _load_saved_schedules(checkpoint, lte, subspaces):
    """Schedule states of an existing pretrain-run checkpoint, by
    subspace key; empty when no checkpoint was requested or none exists
    yet (a fresh run)."""
    from ..persist.checkpoint import CheckpointError
    from ..persist.state import load_pretrain_run

    if checkpoint is None or \
            not os.path.isfile(os.path.join(checkpoint, "manifest.json")):
        return {}
    entries, _ = load_pretrain_run(checkpoint, lte)
    by_names = {tuple(sorted(entry["names"])): entry["schedule"]
                for entry in entries}
    expected = {tuple(sorted(s.names)) for s in subspaces}
    if set(by_names) != expected:
        raise CheckpointError(
            "pretrain-run checkpoint at {!r} covers subspaces {} but this "
            "run trains {}; resume with the original decomposition".format(
                checkpoint, sorted(by_names), sorted(expected)))
    return by_names
