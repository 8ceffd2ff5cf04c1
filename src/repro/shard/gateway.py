"""Front-end gateway sharding sessions across worker processes.

:class:`ShardGateway` is the multi-process scaling tier over
:class:`~repro.serve.SessionManager`: it spawns a pool of worker
processes (``fork`` start method — the fitted LTE is inherited, then
warm-started from a shared :mod:`repro.persist` checkpoint so every
replica provably serves the checkpointed weights), routes each session
deterministically to one worker (:mod:`repro.shard.routing`), and
speaks the familiar submit / poll / flush / predict protocol over a
pipe RPC.

Scaling properties:

* **parallel adaptation** — ``flush_all`` broadcasts the flush to every
  worker *pipelined* (all requests sent before any reply is awaited),
  so the fused adaptation batches of all workers run concurrently on
  separate cores; the same pipelining drives ``predict_many`` scatter/
  gather.  Per-worker results are bit-identical to a single-process
  manager, so the gateway is too (``tests/shard``).
* **admission control** — each worker has a bounded pending-batch queue
  (``max_pending_per_worker``) and optionally a session cap; a full
  queue rejects with a typed :class:`~repro.shard.errors.Overloaded`
  *before* anything is enqueued, so overload never grows unbounded
  state.
* **error isolation** — a worker process dying raises a prompt, typed
  :class:`~repro.shard.errors.WorkerCrashed` (never a hang) for the
  sessions it owned; new sessions re-route to surviving workers; other
  workers' sessions never notice.  Per-session flush errors stay
  attributed inside each worker's manager and surface only in the
  owning session's ``poll``.
* **model-version broadcast** — :meth:`publish_model` rolls a
  re-pretrained phi (or refreshed scalers) out worker by worker: each
  worker drains its queue under the old model and installs the new
  checkpoint (live sessions keep the state objects and adapted models
  they have); no session is dropped and the gateway verifies every
  replica reports the same :func:`~repro.persist.model_fingerprint`.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
import time
import warnings

import numpy as np

from ..core.framework import LTE
from ..obs import MetricsRegistry, merge_snapshots
from ..persist import model_fingerprint, save_pretrained
from .errors import Overloaded, ShardError, WorkerCrashed
from .routing import assign_worker
from .rpc import PipeRpc, RpcLink
from .worker import worker_main

__all__ = ["ShardGateway"]


class _Worker(RpcLink):
    """Gateway-side handle of one worker process."""

    __slots__ = ("pending", "local_by_global", "sessions_lost")

    def __init__(self, index, process, conn):
        super().__init__(index, process, conn)
        self.pending = 0            # queued label batches (backpressure)
        self.local_by_global = {}   # global session id -> worker-local id
        self.sessions_lost = 0      # sessions owned at time of death


class ShardGateway:
    """Shard many exploration sessions across a pool of worker processes.

    Parameters
    ----------
    lte:
        The fitted :class:`~repro.core.LTE` system to replicate.
    n_workers:
        Pool size.  Each worker is a separate process with its own LTE
        replica and :class:`~repro.serve.SessionManager`.
    checkpoint_root:
        Directory under which the gateway saves model-generation
        checkpoints (``model-<fingerprint>`` subdirectories).  Default:
        a private temporary directory, removed on :meth:`close`.
    max_pending_per_worker:
        Bound on un-flushed label batches per worker; submissions beyond
        it raise :class:`~repro.shard.errors.Overloaded`.
    max_sessions_per_worker:
        Optional cap on live sessions per worker; ``open_session``
        beyond it raises :class:`~repro.shard.errors.Overloaded`.
    rpc_timeout:
        Seconds to wait for a single worker reply before raising
        :class:`~repro.shard.errors.ShardError` (a *dead* worker is
        detected promptly regardless); ``None`` disables the timeout.

    Example
    -------
    ::

        with ShardGateway(lte, n_workers=4) as gateway:
            sid = gateway.open_session(variant="meta_star")
            for subspace, tuples in gateway.initial_tuples(sid).items():
                gateway.submit_labels(sid, subspace, user_labels(tuples))
            gateway.flush_all()            # all workers adapt in parallel
            mask = gateway.predict(sid, table.data)
    """

    def __init__(self, lte, n_workers=2, checkpoint_root=None,
                 max_pending_per_worker=256, max_sessions_per_worker=None,
                 rpc_timeout=600.0):
        if not isinstance(lte, LTE):
            raise TypeError("ShardGateway needs a fitted LTE system")
        if not lte.states:
            raise ValueError("the LTE system is not fitted; run "
                             "fit_offline before sharding it")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.lte = lte
        # Gateway-side telemetry (shard.gateway.* — see
        # repro.obs.registry); worker-side metrics are fetched and
        # merged by :meth:`metrics`.
        self.gateway_metrics = MetricsRegistry()
        self._t_rpc = self.gateway_metrics.histogram(
            "shard.gateway.rpc.seconds")
        self._rpc_calls = self.gateway_metrics.counter(
            "shard.gateway.rpc.calls")
        self._workers_alive = self.gateway_metrics.gauge(
            "shard.gateway.workers.alive")
        self._workers_crashed = self.gateway_metrics.counter(
            "shard.gateway.workers.crashed")
        self._pending_depth = self.gateway_metrics.gauge(
            "shard.gateway.pending.depth")
        self.max_pending_per_worker = int(max_pending_per_worker)
        self.max_sessions_per_worker = max_sessions_per_worker
        self.rpc_timeout = rpc_timeout
        # Wire mechanics live in repro.shard.rpc; the gateway hooks its
        # telemetry and crash bookkeeping in.
        self._rpc = PipeRpc(timeout=rpc_timeout,
                            on_dead=self._on_worker_dead,
                            on_reply=self._on_rpc_reply)
        self._owns_root = checkpoint_root is None
        self._root = checkpoint_root or tempfile.mkdtemp(
            prefix="repro-shard-")
        # From here on the gateway owns resources close() releases.
        self._workers = []
        self._closed = False
        self.model_version = model_fingerprint(lte)
        checkpoint_dir = self._generation_dir(self.model_version)
        save_pretrained(checkpoint_dir, lte)
        # Workers fork *before* any sessions exist, so each child is a
        # clean replica: inherited offline artifacts, checkpointed
        # weights re-installed in worker_main.
        context = multiprocessing.get_context("fork")
        for index in range(int(n_workers)):
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=worker_main,
                args=(child_conn, lte, checkpoint_dir, index,
                      int(n_workers)),
                daemon=True, name="repro-shard-worker-{}".format(index))
            process.start()
            child_conn.close()
            self._workers.append(_Worker(index, process, parent_conn))
        self._sessions = {}      # global sid -> worker index
        self._next_id = 0
        # Confirm every replica warm-started to the published model.
        for worker in self._workers:
            reply = self._call(worker, "ping", {})
            if reply["model"] != self.model_version:
                raise ShardError(
                    "worker {} warm-started to model {} instead of the "
                    "published {}".format(worker.index, reply["model"],
                                          self.model_version))
        self._workers_alive.set(len(self._workers))

    # ------------------------------------------------------------------
    # RPC plumbing
    # ------------------------------------------------------------------
    def _post(self, worker, method, kwargs):
        """Send one request without waiting (pipelined fan-out)."""
        return self._rpc.post(worker, method, kwargs)

    def _wait(self, worker, request_id, method):
        """Await one reply; detect worker death promptly (never hang)."""
        return self._rpc.wait(worker, request_id, method)

    def _call(self, worker, method, kwargs):
        return self._rpc.call(worker, method, kwargs)

    def _on_rpc_reply(self, worker, method, seconds):
        self._t_rpc.observe(seconds)
        self._rpc_calls.inc()

    def _mark_dead(self, worker):
        self._rpc.mark_dead(worker)

    def _on_worker_dead(self, worker):
        """Gateway bookkeeping when the RPC layer declares a worker dead."""
        worker.pending = 0
        worker.sessions_lost = len(worker.local_by_global)
        if not self._closed:   # graceful shutdown is not a crash
            self._workers_crashed.inc()
        self._workers_alive.set(
            sum(1 for w in self._workers if w.alive))
        self._note_pending()

    def _note_pending(self):
        """Refresh the pool-wide pending-batch depth gauge."""
        self._pending_depth.set(
            sum(w.pending for w in self._workers if w.alive))

    def _alive(self):
        """Refresh liveness (a worker can die between calls) and return
        the live worker list."""
        for worker in self._workers:
            if worker.alive and not worker.process.is_alive():
                self._mark_dead(worker)
        return [w for w in self._workers if w.alive]

    def _worker_of(self, session_id):
        if session_id not in self._sessions:
            raise KeyError("unknown session id {!r}".format(session_id))
        worker = self._workers[self._sessions[session_id]]
        if worker.alive and not worker.process.is_alive():
            self._mark_dead(worker)
        if not worker.alive:
            raise WorkerCrashed(
                "session {} lived on worker {}, which crashed; its "
                "online state is lost — open a new session".format(
                    session_id, worker.index))
        return worker

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def open_session(self, variant="meta_star", subspaces=None, seed=None):
        """Open a session on its deterministically routed worker.

        Returns a gateway-global session id.  Raises
        :class:`Overloaded` when the target worker's session table is
        full and :class:`WorkerCrashed` when no worker is alive.
        """
        self._require_open()
        alive = [w.alive and w.process.is_alive() for w in self._workers]
        index = assign_worker(self._next_id, alive)
        if index is None:
            raise WorkerCrashed("all workers are dead; the gateway "
                                "cannot place new sessions")
        worker = self._workers[index]
        if self.max_sessions_per_worker is not None and \
                len(worker.local_by_global) >= self.max_sessions_per_worker:
            raise Overloaded(
                "worker {} already holds {} sessions (cap {}); close "
                "sessions or add workers".format(
                    worker.index, len(worker.local_by_global),
                    self.max_sessions_per_worker))
        local_id = self._call(worker, "open_session",
                              {"variant": variant, "subspaces": subspaces,
                               "seed": seed})
        session_id = self._next_id
        self._next_id += 1
        self._sessions[session_id] = worker.index
        worker.local_by_global[session_id] = local_id
        return session_id

    def close_session(self, session_id):
        """Close a session and drop its queued work on its worker."""
        worker = self._worker_of(session_id)
        queued = self._call(worker, "close_session",
                            {"session_id":
                             worker.local_by_global[session_id]})
        worker.pending = int(queued)
        self._note_pending()
        del worker.local_by_global[session_id]
        del self._sessions[session_id]

    @property
    def n_sessions(self):
        return len(self._sessions)

    @property
    def n_workers(self):
        return len(self._workers)

    @property
    def alive_workers(self):
        return len(self._alive())

    # ------------------------------------------------------------------
    # Label submission (admission-controlled)
    # ------------------------------------------------------------------
    def initial_tuples(self, session_id):
        """{subspace: raw tuples} the session's user must label."""
        worker = self._worker_of(session_id)
        return self._call(worker, "initial_tuples",
                          {"session_id":
                           worker.local_by_global[session_id]})

    def _admit(self, worker):
        if worker.pending >= self.max_pending_per_worker:
            raise Overloaded(
                "worker {} has {} pending label batches (cap {}); poll "
                "or flush before submitting more".format(
                    worker.index, worker.pending,
                    self.max_pending_per_worker))

    def submit_labels(self, session_id, subspace, labels):
        """Queue a session's initial labels for one subspace.

        Validation happens synchronously on the owning worker;
        :class:`Overloaded` rejects *before* anything is enqueued when
        the worker's pending queue is full.
        """
        worker = self._worker_of(session_id)
        self._admit(worker)
        queued = self._call(worker, "submit_labels",
                            {"session_id":
                             worker.local_by_global[session_id],
                             "subspace": subspace,
                             "labels": np.asarray(labels)})
        worker.pending = int(queued)
        self._note_pending()

    def submit_all_labels(self, session_id, labels_by_subspace):
        for subspace, labels in labels_by_subspace.items():
            self.submit_labels(session_id, subspace, labels)

    def add_labels(self, session_id, subspace, tuples, labels):
        """Queue an iterative-exploration round (admission-controlled)."""
        worker = self._worker_of(session_id)
        self._admit(worker)
        queued = self._call(worker, "add_labels",
                            {"session_id":
                             worker.local_by_global[session_id],
                             "subspace": subspace,
                             "tuples": np.asarray(tuples),
                             "labels": np.asarray(labels)})
        worker.pending = int(queued)
        self._note_pending()

    # ------------------------------------------------------------------
    # Batched adaptation and prediction
    # ------------------------------------------------------------------
    def flush_all(self):
        """Flush every worker's queue — all fused batches in parallel.

        Pipelined: every worker receives its flush before any reply is
        awaited, so the per-worker adaptation programs run concurrently
        on separate cores.  Returns the total number of (session,
        subspace) adaptations performed across the pool.
        """
        self._require_open()
        posted = [(w, self._post(w, "flush", {})) for w in self._alive()]
        done = 0
        for worker, request_id in posted:
            reply = self._wait(worker, request_id, "flush")
            worker.pending = int(reply["queued"])
            done += int(reply["done"])
        self._note_pending()
        return done

    # The single-process manager calls this ``flush``; keep the alias so
    # code written against SessionManager ports over unchanged.
    flush = flush_all

    def poll(self, session_id, advance=True):
        """The session's serving state (see ``SessionManager.poll``).

        ``advance=True`` flushes the *owning worker* first; other
        workers' queues are untouched (use :meth:`flush_all` for a
        pool-wide barrier).  Flush errors attributed to this session
        surface in ``result["errors"]``; another session's bad batch
        never raises here, even across shards.
        """
        worker = self._worker_of(session_id)
        result = self._call(worker, "poll",
                            {"session_id":
                             worker.local_by_global[session_id],
                             "advance": advance})
        worker.pending = int(result.pop("worker_queued"))
        self._note_pending()
        return result

    def predict(self, session_id, rows):
        """Cached 0/1 UIR membership for full-space rows."""
        worker = self._worker_of(session_id)
        return self._call(worker, "predict",
                          {"session_id":
                           worker.local_by_global[session_id],
                           "rows": rows})

    def predict_subspace(self, session_id, subspace, points):
        """Cached 0/1 UIS membership for subspace-coordinate points
        (their width is checked here, before any RPC)."""
        points = subspace.validate_points(points)
        worker = self._worker_of(session_id)
        return self._call(worker, "predict_subspace",
                          {"session_id":
                           worker.local_by_global[session_id],
                           "subspace": subspace, "points": points})

    def predict_many(self, session_ids, rows):
        """Predictions for many sessions — scatter/gather across shards.

        Sessions are grouped by owning worker; each worker scores its
        group in stacked forward passes (the single-process fused path)
        while the groups run concurrently across processes.  Returns
        ``{session_id: (n,) predictions}``.
        """
        self._require_open()
        by_worker = {}
        for session_id in session_ids:
            worker = self._worker_of(session_id)
            by_worker.setdefault(worker.index, []).append(session_id)
        posted = []
        for index, group in by_worker.items():
            worker = self._workers[index]
            local = [worker.local_by_global[sid] for sid in group]
            posted.append((worker, group,
                           self._post(worker, "predict_many",
                                      {"session_ids": local,
                                       "rows": rows})))
        results = {}
        for worker, group, request_id in posted:
            reply = self._wait(worker, request_id, "predict_many")
            for session_id in group:
                results[session_id] = \
                    reply[worker.local_by_global[session_id]]
        return results

    def retrieve(self, session_id, rows=None, limit=None):
        """Rows predicted interesting for the session (worker-cached)."""
        worker = self._worker_of(session_id)
        return self._call(worker, "retrieve",
                          {"session_id":
                           worker.local_by_global[session_id],
                           "rows": rows, "limit": limit})

    # ------------------------------------------------------------------
    # Model-version broadcast
    # ------------------------------------------------------------------
    def _generation_dir(self, fingerprint):
        return os.path.join(self._root, "model-{}".format(fingerprint))

    def publish_model(self, source, refresh=None):
        """Roll a new model out to every worker, one worker at a time.

        ``source`` is either a fitted :class:`~repro.core.LTE` carrying
        the re-pretrained weights (saved under the gateway's checkpoint
        root first) or a path to an existing ``lte-pretrained``
        checkpoint.  Each worker drains its pending queue under the old
        model and installs the new weights — live sessions and their
        adapted models are untouched, so no session is dropped.  The
        gateway verifies every worker reports the new
        :func:`~repro.persist.model_fingerprint` and returns it.

        ``refresh`` (optional) is a list of subspace-name lists whose
        offline artifacts were rebuilt over fresh data: each worker
        re-reads its store manifest (:meth:`ChunkStore.refresh
        <repro.store.ChunkStore.refresh>`) and re-prepares those
        subspaces from the grown store *before* installing the
        checkpointed weights, so the identity check inside
        ``load_pretrained`` passes against the same data generation the
        publisher fitted.  :meth:`refresh_model` drives this end to end.
        """
        self._require_open()
        if isinstance(source, LTE):
            fingerprint = model_fingerprint(source)
            path = self._generation_dir(fingerprint)
            save_pretrained(path, source)
        else:
            path = source
        refresh = [list(names) for names in refresh] if refresh else []
        new_version = None
        for worker in self._alive():
            reported = self._call(worker, "model_update",
                                  {"path": path, "refresh": refresh})
            if new_version is None:
                new_version = reported
            elif reported != new_version:
                raise ShardError(
                    "worker {} installed model {} while earlier workers "
                    "installed {}; replicas have diverged".format(
                        worker.index, reported, new_version))
        if new_version is None:
            raise WorkerCrashed("all workers are dead; nothing to "
                                "broadcast to")
        self.model_version = new_version
        return new_version

    def refresh_model(self, subspaces=None, train=True):
        """Refresh drifted offline artifacts and roll them out live.

        The streaming-ingest rollout path: after appends moved the data
        distribution (see :class:`~repro.store.FreshnessMonitor`), the
        gateway re-reads the master LTE's store view, rebuilds the
        offline artifacts — scaler, cluster summary, encoder and (with
        ``train=True``) a re-pretrained meta-learner — for the given
        subspaces on the master replica (all of them, or — when one
        fails to prepare — none), then broadcasts the result via
        :meth:`publish_model`, which makes every worker catch up on the
        grown store and re-prepare the same subspaces before installing
        the new weights.  Live sessions keep serving throughout (their
        adapted state objects are replaced, never mutated).

        ``subspaces`` accepts :class:`~repro.core.subspace.Subspace`
        objects or name sequences; ``None`` refreshes every fitted
        subspace.  Returns the new model fingerprint.  Requires the
        shared table to be a *disk-backed* chunk store — that directory
        is the only channel through which appends reach the forked
        workers.
        """
        self._require_open()
        table = self.lte.table
        if getattr(table, "directory", None) is None:
            raise ShardError(
                "refresh_model needs a disk-backed chunk store shared "
                "with the workers; an in-memory table cannot propagate "
                "appends across processes")
        table.refresh()
        by_key = {s.key: s for s in self.lte.states}
        if subspaces is None:
            targets = list(self.lte.states)
        else:
            targets = []
            for item in subspaces:
                key = item.key if hasattr(item, "key") \
                    else tuple(sorted(item))
                if key not in by_key:
                    raise KeyError(
                        "no fitted subspace {!r} to refresh".format(key))
                targets.append(by_key[key])
        self.lte._refresh_subspaces(table, targets, train=train)
        return self.publish_model(
            self.lte, refresh=[list(s.names) for s in targets])

    # ------------------------------------------------------------------
    # Drain / shutdown / stats
    # ------------------------------------------------------------------
    def stats(self):
        """Pool-level counters plus each worker's manager stats.

        ``workers`` carries one entry per worker **in pool order,
        including dead ones**: an alive worker's entry is its manager
        stats dict extended with its gateway-observed ``queue_depth``
        (pending label batches), ``last_rpc_seconds`` /
        ``last_rpc_method`` and ``alive: True``; a dead worker reports
        a tombstone (``alive: False``, ``model: None``,
        ``sessions_lost``) instead of being silently omitted.
        """
        self._require_open()
        posted = [(w, self._post(w, "stats", {})) for w in self._alive()]
        replies = {w.index: self._wait(w, rid, "stats")
                   for w, rid in posted}
        workers = []
        for worker in self._workers:
            entry = replies.get(worker.index)
            if entry is None:
                entry = {"worker": worker.index, "alive": False,
                         "model": None,
                         "sessions_lost": worker.sessions_lost}
            else:
                entry = dict(entry)
                entry["alive"] = True
            entry["queue_depth"] = worker.pending
            entry["last_rpc_seconds"] = worker.last_rpc_seconds
            entry["last_rpc_method"] = worker.last_rpc_method
            workers.append(entry)
        return {
            "sessions": self.n_sessions,
            "workers": workers,
            "alive_workers": len(replies),
            "model": self.model_version,
            "pending": {w.index: w.pending for w in self._workers
                        if w.alive},
        }

    def metrics(self):
        """One merged view of the whole fleet's telemetry.

        Fans a pipelined ``metrics`` RPC out to every live worker; each
        returns its process-wide :func:`repro.obs.aggregate` snapshot
        (manager latency histograms, cache hit counters, compile-plan
        stats).  Returns::

            {"workers": {worker_index: snapshot | tombstone},
             "gateway": <gateway-side snapshot>,
             "merged":  <element-wise merge of all of the above>}

        Because every histogram shares the same fixed bucket bounds,
        the merge is a deterministic element-wise add — independent of
        worker reply order (workers merge in index order) and identical
        to merging on any other process.  Dead workers appear as
        ``{"dead": True, "sessions_lost": n}`` tombstones and
        contribute nothing to ``merged``.
        """
        self._require_open()
        posted = [(w, self._post(w, "metrics", {}))
                  for w in self._alive()]
        replies = {w.index: self._wait(w, rid, "metrics")
                   for w, rid in posted}
        workers = {}
        for worker in self._workers:
            if worker.index in replies:
                workers[worker.index] = replies[worker.index]
            else:
                workers[worker.index] = {
                    "dead": True, "sessions_lost": worker.sessions_lost}
        gateway_snap = self.gateway_metrics.snapshot()
        merged = merge_snapshots(
            [replies[index] for index in sorted(replies)]
            + [gateway_snap])
        return {"workers": workers, "gateway": gateway_snap,
                "merged": merged}

    def drain(self):
        """Flush every worker until no queued work remains anywhere."""
        total = 0
        while True:
            done = self.flush_all()
            total += done
            if done == 0 and all(w.pending == 0 for w in self._alive()):
                return total

    def close(self, drain=True):
        """Shut the pool down gracefully (idempotent).

        With ``drain=True`` every worker finishes its queued
        adaptations before exiting; with ``drain=False`` the queues are
        dropped.  Workers that refuse to die are terminated, and the
        gateway's private checkpoint root (when it created one) is
        removed.  Then :class:`ShardError` names each worker whose
        shutdown failed: it answered with an error (a systemic flush
        failure while draining, say) or, asked to drain, died or hung
        before answering.
        """
        if self._closed:
            return
        self._closed = True
        failed = []
        for worker in self._workers:
            if not worker.alive:
                continue
            answer = None
            try:
                request_id = worker.next_request
                worker.next_request += 1
                worker.conn.send((request_id, "shutdown",
                                  {"drain": bool(drain)}))
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    if worker.conn.poll(0.05):
                        reply_id, status, payload = worker.conn.recv()
                        if reply_id < request_id:
                            continue    # an abandoned pipelined reply
                        answer = (status, payload)
                        break
                    if not worker.process.is_alive():
                        break
            except (BrokenPipeError, EOFError, OSError):
                pass
            worker.process.join(timeout=10.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            self._mark_dead(worker)
            if answer is not None and answer[0] == "error":
                failed.append("worker {} ({}: {})".format(worker.index,
                                                          *answer[1]))
            elif answer is None and drain:
                failed.append("worker {} (no answer)".format(worker.index))
        if self._owns_root:
            shutil.rmtree(self._root, ignore_errors=True)
        if failed:
            raise ShardError("the gateway closed, but shutting down "
                             "failed on " + "; ".join(failed))

    def _require_open(self):
        if self._closed:
            raise ShardError("the gateway is closed")

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.close()
        return False

    def __del__(self):
        # An __init__ that raised before owning anything left no _closed.
        if getattr(self, "_closed", True):
            return
        warnings.warn("unclosed ShardGateway with {} workers; close() it "
                      "or use it as a context manager".format(
                          len(self._workers)), ResourceWarning, source=self)
        self.close(drain=False)
