"""Data-parallel offline meta-training: N workers, one deterministic phi.

:class:`ParallelTrainEngine` is what ``workers=N`` selects: the
multi-process tier over the stacked offline executors
(:mod:`repro.train.engine`).  It forks N worker
processes (``fork`` start method — every worker inherits the schedules'
encoded task sets copy-on-write, or their on-disk
:class:`~repro.train.stream.EncodedTaskSet` views), partitions each
fused meta-batch / pretrain fusion group into contiguous spans in a
fixed deterministic order, runs the pure compute of each span on a
worker, and performs every state update on the master.  The pipe-RPC
mechanics (pipelined fan-out, prompt typed crash detection, worker-side
exception rebuild) are shared with :mod:`repro.shard` via
:mod:`repro.shard.rpc`.

Determinism contract — phi, memories, pretrain-Adam moments and loss
histories are **bit-identical to the in-process run at any worker
count** (0, 1, 2, 4, ... all equal; ``tests/train`` fuzzes this).
The contract rests on four invariants:

1. **Partition-invariant compute.**  The stacked meta-batch program is
   block-diagonal, so each task's query loss, parameter gradients,
   theta_R gradients and adapted conversion are bit-identical at any
   stack size (:func:`~repro.train.engine.compute_meta_batch`); a span
   of the batch computes exactly the whole batch's slice.  Likewise a
   pooled pretrain epoch over any subset of a fusion group — one
   schedule included — equals the epoch of the whole group.
2. **Master-ordered reduction.**  Workers ship per-task results; the
   master stitches spans back in task order and reduces with the one
   fixed left-fold
   (:func:`~repro.train.engine.apply_meta_batch`) — float addition is
   non-associative, so the fold order, not just the operand set, is
   part of the contract.  Memory-EMA updates (Eqs. 14-16) stay deferred
   and run post-batch in task order on the master.
3. **Master-authoritative state.**  phi, memories, Adam moments and the
   epoch RNG streams live on the master only.  Every RPC ships the
   state a worker needs (phi flats, memory-retrieved shifts and
   conversions, shuffled task orders) and returns the state the master
   applies; worker copies are scratch that is overwritten per call, so
   forked staleness cannot leak into the numerics.
4. **Barrier-aligned checkpoints.**  ``pretrain-run`` checkpoints are
   written by the driver only after :meth:`OfflineRun.step_epoch`
   returns — i.e. after every span has reduced — so a checkpoint never
   captures a half-reduced epoch and resumes interchangeably with
   in-process runs and at any worker count.

Worker failures raise a prompt, typed :class:`TrainWorkerCrashed`
(never a hang, never a silently wrong phi): the caller resumes from the
last epoch checkpoint.

**Beside in-process halves.**  Invariant 1 is also what lets one
process train a large stack as two halves on two threads
(:func:`repro.nn.cores.run_stack`, inside
:func:`~repro.train.engine.compute_meta_batch` and
:func:`~repro.train.engine.run_pretrain_group`, so in a worker too).
The threads share phi, memories and task sets in memory — nothing
ships, nothing forks — where a worker pays pickling, a pipe and a fork
for the same split.  Each worker computes on its share of the cores,
``max(1, cores // N)`` threads (:func:`repro.nn.cores.claim_share`): on
two cores with N = 2 that is one, and its spans train whole.  Training
stacks run on one BLAS thread in every process, so the share, like the
worker count, never reaches the bits.  README ("Two cores") records a
paper-size fit at ``workers=0`` with the halves against ``workers=2``.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np

from ..nn.cores import claim_share, compute_threads
from ..obs import MetricsRegistry, aggregate, default_registry, \
    merge_snapshots, reset_all_metrics
from ..shard.rpc import PipeRpc, RpcLink, serve_rpc
from .engine import (MetaBatchResult, MetaBatchSlot, apply_meta_batch,
                     build_meta_batch_inputs, compute_meta_batch,
                     concat_meta_batch_results, run_pretrain_group)

__all__ = ["TrainParallelError", "TrainWorkerCrashed",
           "ParallelTrainEngine"]


class TrainParallelError(RuntimeError):
    """Protocol-level failure of the data-parallel training tier."""


class TrainWorkerCrashed(TrainParallelError):
    """A training worker process died; resume from the last epoch
    checkpoint (state updates are master-only and barrier-aligned, so
    no partial epoch can have leaked into a checkpoint)."""


def _worker_main(conn, schedules, worker_index, n_workers):
    """The training worker: span compute behind a pipe-RPC loop.

    Stateless between calls with respect to the training numerics —
    every request ships the phi flats / optimizer state / orders it
    needs and the reply carries everything the master applies.  The
    inherited ``schedules`` contribute only their immutable encoded
    task sets and trainer structure.  It computes on its share of the
    cores (:func:`repro.nn.cores.claim_share`).
    """
    claim_share(n_workers)
    # Forked registries carry the parent's counts; zero them so this
    # worker's aggregate() reports only its own activity.
    reset_all_metrics()
    metrics = default_registry()
    t_compute = metrics.histogram("train.worker.compute.seconds")
    n_batches = metrics.counter("train.worker.batches")
    debug = {"delay_seconds": 0.0, "crash_on_compute": False}

    def handle(method, kwargs):
        if method == "ping":
            return {"worker": int(worker_index),
                    "schedules": len(schedules),
                    "threads": compute_threads()}
        if method == "meta_compute":
            if debug["crash_on_compute"]:
                # Test hook: die exactly where a real worker would —
                # mid-epoch, with the master waiting on the span.
                os._exit(23)
            if debug["delay_seconds"]:
                # Test hook: shuffle reply timing to prove event order
                # is master-side deterministic.
                time.sleep(debug["delay_seconds"])
            t0 = time.perf_counter()
            slots = []
            for sid, indices in kwargs["spans"]:
                schedule = schedules[sid]
                schedule.trainer.model.load_flat_parameters(
                    np.asarray(kwargs["flats"][sid]))
                slots.append(MetaBatchSlot(schedule.trainer,
                                           schedule.encoded,
                                           list(indices)))
            models, inputs = build_meta_batch_inputs(
                slots, retrieval=(kwargs["shifts"],
                                  kwargs["conversions"]))
            result = compute_meta_batch(models,
                                        slots[0].trainer.params, inputs)
            t_compute.observe(time.perf_counter() - t0)
            n_batches.inc()
            return (result.losses, np.asarray(result.theta_grads),
                    result.grad_stacks, result.conversion_data)
        if method == "pretrain_epoch":
            if debug["delay_seconds"]:
                time.sleep(debug["delay_seconds"])
            t0 = time.perf_counter()
            span = []
            for sid, flat, opt_state, order in kwargs["entries"]:
                schedule = schedules[sid]
                schedule.trainer.model.load_flat_parameters(
                    np.asarray(flat))
                schedule.pretrain_opt_state = opt_state
                span.append((schedule, np.asarray(order)))
            run_pretrain_group([schedule for schedule, _ in span],
                               orders=[order for _, order in span])
            t_compute.observe(time.perf_counter() - t0)
            n_batches.inc()
            return [(schedule.trainer.model.flat_parameters(),
                     schedule.pretrain_opt_state)
                    for schedule, _ in span]
        if method == "metrics":
            # The worker's whole-process metric state (compute timings,
            # compile-plan stats); the master merges these in index
            # order — see ParallelTrainEngine.metrics.
            return aggregate()
        if method == "_debug":
            # Test hooks only: fault/delay injection the parity and
            # crash tests use to exercise these paths for real.
            debug.update(kwargs)
            return True
        raise ValueError("unknown RPC method {!r}".format(method))

    serve_rpc(conn, handle)


class ParallelTrainEngine:
    """Fan fused-epoch compute out across N forked training workers.

    Parameters
    ----------
    schedules:
        The :class:`~repro.train.offline.TrainerSchedule` list of the
        run (the master's authoritative copies).  Workers fork off the
        current process and inherit the encoded task sets; create the
        engine after the schedules are built.
    workers:
        Pool size, an integer >= 1.
    rpc_timeout:
        Seconds to wait for a single span reply before raising
        :class:`TrainParallelError` (a *dead* worker is detected
        promptly regardless); ``None`` disables the timeout.
    """

    def __init__(self, schedules, workers, rpc_timeout=600.0):
        self.schedules = list(schedules)
        self._sid = {id(schedule): index
                     for index, schedule in enumerate(self.schedules)}
        self.n_workers = int(workers)
        if self.n_workers < 1:
            raise ValueError("workers must be >= 1")
        # Master-side telemetry (train.parallel.* / train.reduce.* /
        # train.worker.busy — see repro.obs.registry); worker-side
        # registries are fetched and merged by :meth:`metrics`.
        self.master_metrics = MetricsRegistry()
        self._t_rpc = self.master_metrics.histogram(
            "train.parallel.rpc.seconds")
        self._rpc_calls = self.master_metrics.counter(
            "train.parallel.rpc.calls")
        self._workers_alive = self.master_metrics.gauge(
            "train.parallel.workers.alive")
        self._workers_crashed = self.master_metrics.counter(
            "train.parallel.workers.crashed")
        self._busy = self.master_metrics.gauge("train.worker.busy")
        self._reduce_latency = self.master_metrics.gauge(
            "train.reduce.latency")
        self._t_reduce = self.master_metrics.histogram(
            "train.reduce.seconds")
        self._rpc = PipeRpc(
            timeout=rpc_timeout, crashed_type=TrainWorkerCrashed,
            error_type=TrainParallelError,
            dead_hint="; resume from the last epoch checkpoint",
            crash_hint="; resume from the last epoch checkpoint",
            on_dead=self._on_worker_dead, on_reply=self._on_rpc_reply)
        self._closed = False
        context = multiprocessing.get_context("fork")
        self._workers = []
        for index in range(self.n_workers):
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=_worker_main,
                args=(child_conn, self.schedules, index, self.n_workers),
                daemon=True,
                name="repro-train-worker-{}".format(index))
            process.start()
            child_conn.close()
            self._workers.append(RpcLink(index, process, parent_conn))
        for link in self._workers:
            self._rpc.call(link, "ping", {})
        self._workers_alive.set(len(self._workers))

    # ------------------------------------------------------------------
    # RPC bookkeeping
    # ------------------------------------------------------------------
    def _on_rpc_reply(self, link, method, seconds):
        self._t_rpc.observe(seconds)
        self._rpc_calls.inc()

    def _on_worker_dead(self, link):
        if not self._closed:   # graceful shutdown is not a crash
            self._workers_crashed.inc()
        self._workers_alive.set(
            sum(1 for w in self._workers if w.alive))

    def _alive_required(self):
        links = [link for link in self._workers if link.alive]
        if not links:
            raise TrainWorkerCrashed(
                "all training workers are dead; resume from the last "
                "epoch checkpoint")
        return links

    def _require_open(self):
        if self._closed:
            raise TrainParallelError("the training engine is closed")

    # ------------------------------------------------------------------
    # Epoch-phase entry points (called by OfflineRun)
    # ------------------------------------------------------------------
    def meta_batch(self, slots, owners):
        """One fused meta-batch, spans computed in parallel.

        ``owners`` lists each slot's owning schedule (one of the
        engine's), in slot order.  Retrieval and reduction run on the
        master; only the partition-invariant middle phase fans out.
        Returns the per-slot loss lists, exactly as
        :func:`~repro.train.engine.run_meta_batch_fused` would.
        """
        self._require_open()
        # Memory retrievals against the authoritative master memories.
        models, inputs = build_meta_batch_inputs(slots)
        total = len(models)
        sids = [self._sid[id(owner)] for owner in owners]
        flats = {sid: self.schedules[sid].trainer.model.flat_parameters()
                 for sid in set(sids)}
        links = self._alive_required()
        n_spans = min(len(links), total)
        bounds = [(part * total) // n_spans
                  for part in range(n_spans + 1)]
        posted = []
        for part in range(n_spans):
            start, stop = bounds[part], bounds[part + 1]
            spans = _slot_spans(slots, sids, start, stop)
            payload = {
                "spans": spans,
                "flats": {sid: flats[sid] for sid, _ in spans},
                "shifts": None if inputs.shifts is None
                else np.ascontiguousarray(inputs.shifts[start:stop]),
                "conversions": list(inputs.conversions[start:stop]),
            }
            link = links[part]
            posted.append(
                (link, self._rpc.post(link, "meta_compute", payload)))
            self._busy.set(len(posted))
        # Collect in span order: reply timing cannot reorder anything
        # downstream — reduction, events, and checkpoints all follow
        # this fixed order.
        parts = []
        for link, request_id in posted:
            losses, theta_grads, stacks, conversion_data = \
                self._rpc.wait(link, request_id, "meta_compute")
            parts.append(MetaBatchResult(losses, theta_grads, stacks,
                                         conversion_data))
            self._busy.set(len(posted) - len(parts))
        t0 = time.perf_counter()
        result = concat_meta_batch_results(parts)
        out = apply_meta_batch(slots, inputs, result)
        elapsed = time.perf_counter() - t0
        self._reduce_latency.set(elapsed)
        self._t_reduce.observe(elapsed)
        return out

    def pretrain_epoch(self, group):
        """One pretrain epoch of a fusion group, schedules spanned
        across workers (each consecutive-step task loop stays whole on
        one worker — it shares phi and is inherently sequential)."""
        self._require_open()
        sids = [self._sid[id(schedule)] for schedule in group]
        # Orders come off the master's authoritative RNG streams, in
        # schedule order — the same draws, in the same sequence, as the
        # single-process engine makes.
        orders = [schedule.next_pretrain_order() for schedule in group]
        links = self._alive_required()
        n_spans = min(len(links), len(group))
        bounds = [(part * len(group)) // n_spans
                  for part in range(n_spans + 1)]
        posted = []
        for part in range(n_spans):
            start, stop = bounds[part], bounds[part + 1]
            entries = [
                (sids[position],
                 group[position].trainer.model.flat_parameters(),
                 group[position].pretrain_opt_state,
                 np.asarray(orders[position]))
                for position in range(start, stop)]
            link = links[part]
            posted.append(
                (link, self._rpc.post(link, "pretrain_epoch",
                                      {"entries": entries}),
                 list(range(start, stop))))
            self._busy.set(len(posted))
        collected = 0
        for link, request_id, positions in posted:
            replies = self._rpc.wait(link, request_id, "pretrain_epoch")
            t0 = time.perf_counter()
            for position, (flat, opt_state) in zip(positions, replies):
                schedule = group[position]
                schedule.trainer.model.load_flat_parameters(
                    np.asarray(flat))
                schedule.pretrain_opt_state = opt_state
            elapsed = time.perf_counter() - t0
            self._reduce_latency.set(elapsed)
            self._t_reduce.observe(elapsed)
            collected += 1
            self._busy.set(len(posted) - collected)

    # ------------------------------------------------------------------
    # Telemetry / lifecycle
    # ------------------------------------------------------------------
    def metrics(self):
        """One merged view of the training fleet's telemetry.

        Fans a pipelined ``metrics`` RPC out to every live worker; each
        returns its process-wide :func:`repro.obs.aggregate` snapshot.
        Returns::

            {"workers": {worker_index: snapshot | tombstone},
             "master": <master-side snapshot>,
             "merged": <element-wise merge of all of the above>}

        Because every histogram shares the same fixed bucket bounds,
        the merge is a deterministic element-wise add — workers merge
        in index order, independent of reply order.  Dead workers
        appear as ``{"dead": True}`` tombstones and contribute nothing
        to ``merged``.
        """
        self._require_open()
        posted = []
        for link in self._workers:
            if not link.alive:
                continue
            try:
                posted.append(
                    (link, self._rpc.post(link, "metrics", {})))
            except TrainWorkerCrashed:
                # Died since the last training RPC: telemetry reports
                # the death (tombstone below), it never raises for it.
                continue
        replies = {}
        for link, request_id in posted:
            try:
                replies[link.index] = self._rpc.wait(link, request_id,
                                                     "metrics")
            except TrainWorkerCrashed:
                continue
        workers = {}
        for link in self._workers:
            workers[link.index] = replies.get(link.index,
                                              {"dead": True})
        master_snap = self.master_metrics.snapshot()
        merged = merge_snapshots(
            [replies[index] for index in sorted(replies)]
            + [master_snap])
        return {"workers": workers, "master": master_snap,
                "merged": merged}

    def debug(self, **kwargs):
        """Broadcast test-only fault/delay injection to every worker."""
        for link in self._workers:
            if link.alive:
                self._rpc.call(link, "_debug", dict(kwargs))

    def close(self):
        """Shut the pool down (idempotent); workers have no state worth
        draining — every update already lives on the master."""
        if self._closed:
            return
        self._closed = True
        for link in self._workers:
            if not link.alive:
                continue
            try:
                request_id = link.next_request
                link.next_request += 1
                link.conn.send((request_id, "shutdown", {}))
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    if link.conn.poll(0.05):
                        link.conn.recv()
                        break
                    if not link.process.is_alive():
                        break
            except (BrokenPipeError, EOFError, OSError):
                pass
            link.process.join(timeout=10.0)
            if link.process.is_alive():
                link.process.terminate()
                link.process.join(timeout=5.0)
            self._rpc.mark_dead(link)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.close()
        return False

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass


def _slot_spans(slots, sids, start, stop):
    """The ``(schedule_index, indices)`` pieces of the global task span
    ``[start, stop)``, walking slots in order."""
    spans = []
    offset = 0
    for slot, sid in zip(slots, sids):
        k = len(slot.indices)
        lo = max(start, offset)
        hi = min(stop, offset + k)
        if lo < hi:
            spans.append((sid, list(slot.indices[lo - offset:
                                                 hi - offset])))
        offset += k
    return spans
