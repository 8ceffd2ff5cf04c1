"""Multi-session serving engine over one shared pretrained LTE.

The :class:`SessionManager` multiplexes many concurrent
:class:`~repro.core.framework.ExplorationSession`s and decouples the
online loop into three independently scheduled stages:

1. **submit** — ``submit_labels`` / ``add_labels`` validate and enqueue
   label batches without training anything;
2. **adapt** — ``flush`` (called explicitly or implicitly by ``poll`` /
   ``predict``) drains the queue, buckets the pending adaptations across
   *all* sessions by shape, and trains each bucket as one fused tensor
   program (:func:`~repro.core.framework.run_adapt_requests`);
3. **predict** — a block of rows is answered for all its sessions by
   :func:`~repro.core.framework.predict_conjunctions` (every
   subspace's hulls decide first, then the classifiers encode and score
   only the rows still open *and* alive), and each session's answer is
   memoized in a versioned :class:`~repro.serve.cache.PredictionCache`,
   so repeated retrievals over unchanged models are dictionary lookups.

Sessions adapted through the manager are bit-compatible with sessions
driven on their own (see ``tests/serve/test_batched_parity.py``).
"""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np

from ..core.framework import (ExplorationSession, LTE, predict_conjunctions,
                              run_adapt_requests, scan_conjunctions)
from ..core.optimizer import HullRegistry
from ..geometry.engine import HullPackCache
from ..obs import MetricsRegistry, span
from .cache import PredictionCache, rows_digest

__all__ = ["SessionManager"]


class _Pending:
    """One queued label batch: initial submission or an extra round."""

    __slots__ = ("session_id", "subspace", "labels", "tuples", "enqueued")

    def __init__(self, session_id, subspace, labels, tuples=None,
                 enqueued=None):
        self.session_id = session_id
        self.subspace = subspace
        self.labels = labels
        self.tuples = tuples   # None -> initial labels; else add_labels round
        self.enqueued = enqueued   # perf_counter at submit (None if obs off)


class SessionManager:
    """Serves many concurrent exploration sessions with batched adaptation.

    Parameters
    ----------
    lte:
        A fitted :class:`~repro.core.framework.LTE` shared by every
        session (its per-subspace meta-learners are read-only at serve
        time, so sessions cannot interfere through it).
    cache_entries:
        Capacity of the versioned prediction cache.

    Example
    -------
    ::

        manager = SessionManager(lte)
        sid = manager.open_session(variant="meta_star")
        for subspace, tuples in manager.initial_tuples(sid).items():
            manager.submit_labels(sid, subspace, user_labels(tuples))
        manager.flush()              # one fused adaptation for everything
        mask = manager.predict(sid, table.data)
    """

    def __init__(self, lte, cache_entries=1024):
        if not isinstance(lte, LTE):
            raise TypeError("SessionManager needs a fitted LTE system")
        self.lte = lte
        # One registry for the whole serving engine: the prediction and
        # hull-pack caches record into it too, so a single
        # ``manager.metrics.snapshot()`` covers the full request path.
        # See repro.obs.registry for the metric name catalogue.
        self.metrics = MetricsRegistry()
        self.cache = PredictionCache(cache_entries, metrics=self.metrics)
        # Compiled halfspace packs for few-shot refinement, keyed by the
        # identity tuple of each refine group's deduped hull set.
        # Re-adaptation bumps model versions but never touches hull
        # geometry, so the steady-state pattern — the same session group
        # flushing and predicting again — hits across versions.  A
        # partial-miss group (some sessions served from the prediction
        # cache) keys a subset and compiles its own pack; that compile
        # is a cheap vstack of per-hull precompiled lowerings, and the
        # LRU bounds the subset entries.  Restored managers rebuild
        # packs from the checkpoint's serialized facet form without
        # ever re-running Qhull.
        self._region_packs = HullPackCache(capacity=128,
                                           metrics=self.metrics)
        self._sessions = {}
        # Freshness watermarks per (session_id, store uid): the store
        # version each session last answered at plus that answer, so
        # predict_many_store re-scans only chunks newer than the
        # watermark (see predict_many_store).  Included in snapshots, so
        # a restored manager resumes incremental scanning instead of
        # paying one full rescan per session.
        self._store_marks = {}
        self.last_store_scan = None
        self._queue = deque()
        # Flush errors attributed to the session that caused them:
        # {session_id: [{"subspace": [names], "error": "Type: msg"}]}.
        # Surfaced (and cleared) by that session's next poll — never
        # raised into an unrelated session's poll or predict.
        self._session_errors = {}
        self._next_id = 0
        self._lock = threading.RLock()
        metrics = self.metrics
        self._obs_on = metrics.enabled
        self._adapt_batches = metrics.counter("serve.manager.adapt.batches")
        self._adapted_total = metrics.counter("serve.manager.adapt.total")
        self._sessions_live = metrics.gauge("serve.manager.sessions.live")
        self._queue_depth = metrics.gauge("serve.manager.queue.depth")
        self._queue_wait = \
            metrics.histogram("serve.manager.queue.wait.seconds")
        self._t_flush = metrics.histogram("serve.manager.flush.seconds")
        self._t_build = metrics.histogram("serve.manager.adapt.build.seconds")
        self._t_train = metrics.histogram("serve.manager.adapt.train.seconds")
        self._t_install = \
            metrics.histogram("serve.manager.adapt.install.seconds")
        self._t_encode = \
            metrics.histogram("serve.manager.predict.encode.seconds")
        self._t_forward = \
            metrics.histogram("serve.manager.predict.forward.seconds")
        self._t_refine = \
            metrics.histogram("serve.manager.predict.refine.seconds")
        self._t_predict = metrics.histogram("serve.manager.predict.seconds")
        self._rows_settled = \
            metrics.counter("serve.manager.predict.rows.settled")
        self._rows_scored = \
            metrics.counter("serve.manager.predict.rows.scored")
        self._rows_skipped = \
            metrics.counter("serve.manager.predict.rows.skipped")

    @property
    def adapt_batches(self):
        """Flush calls that trained something (registry-backed)."""
        return self._adapt_batches.value

    @adapt_batches.setter
    def adapt_batches(self, value):
        self._adapt_batches.set(value)

    @property
    def adapted_total(self):
        """(session, subspace) adaptations served (registry-backed)."""
        return self._adapted_total.value

    @adapted_total.setter
    def adapted_total(self, value):
        self._adapted_total.set(value)

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def open_session(self, variant="meta_star", subspaces=None, seed=None):
        """Open a managed exploration session; returns its id."""
        with self._lock:
            session = self.lte.start_session(variant=variant,
                                             subspaces=subspaces, seed=seed)
            session_id = self._next_id
            self._next_id += 1
            self._sessions[session_id] = session
            self.metrics.counter("serve.manager.sessions.opened").inc()
            self._sessions_live.set(len(self._sessions))
            return session_id

    def close_session(self, session_id):
        """Forget a session and drop its queued work and cache entries."""
        with self._lock:
            self._require(session_id)
            session = self._sessions.pop(session_id)
            self._queue = deque(p for p in self._queue
                                if p.session_id != session_id)
            self._session_errors.pop(session_id, None)
            self._store_marks = {key: mark
                                 for key, mark in self._store_marks.items()
                                 if key[0] != session_id}
            self.cache.invalidate_session(session_id)
            self.metrics.counter("serve.manager.sessions.closed").inc()
            self._sessions_live.set(len(self._sessions))
            self._queue_depth.set(len(self._queue))
            # Un-pin the session's compiled geometry (hulls shared with
            # live sessions just recompile on the next refine).
            hulls = [hull
                     for ss in session._subsessions.values()
                     if ss.optimizer is not None
                     for region in (ss.optimizer.outer_region,
                                    ss.optimizer.inner_region)
                     if region is not None
                     for hull in region.hulls]
            self._region_packs.evict_containing(hulls)

    def session(self, session_id):
        """The underlying :class:`ExplorationSession` (escape hatch)."""
        self._require(session_id)
        return self._sessions[session_id]

    @property
    def n_sessions(self):
        return len(self._sessions)

    def _require(self, session_id):
        if session_id not in self._sessions:
            raise KeyError("unknown session id {!r}".format(session_id))
        return True

    @staticmethod
    def _require_subspaces(session_id, session):
        """Refuse to predict for a session with no subspaces at all: the
        conjunctive combination over *nothing* would report every row
        positive, which is never what a caller means."""
        if not session._subsessions:
            raise RuntimeError(
                "session {!r} has no subspaces (none adapted, nothing to "
                "predict with); predictions would be trivially "
                "all-positive".format(session_id))

    # ------------------------------------------------------------------
    # Stage 1: label submission (enqueue only)
    # ------------------------------------------------------------------
    def initial_tuples(self, session_id):
        """{subspace: raw tuples} the session's user must label."""
        return self.session(session_id).initial_tuples()

    def submit_labels(self, session_id, subspace, labels):
        """Queue a session's initial labels for one subspace.

        Validation is immediate; the adaptation itself runs at the next
        :meth:`flush`, batched with whatever else is pending.
        """
        with self._lock:
            session = self.session(session_id)
            labels = session._subsessions[subspace] \
                .validate_initial_labels(labels)
            self._queue.append(_Pending(
                session_id, subspace, labels,
                enqueued=time.perf_counter() if self._obs_on else None))
            self._queue_depth.set(len(self._queue))

    def submit_all_labels(self, session_id, labels_by_subspace):
        for subspace, labels in labels_by_subspace.items():
            self.submit_labels(session_id, subspace, labels)

    def add_labels(self, session_id, subspace, tuples, labels):
        """Queue an iterative-exploration label round for re-adaptation."""
        with self._lock:
            session = self.session(session_id)
            if session._subsessions[subspace].labels is None and not any(
                    p.session_id == session_id and p.subspace == subspace
                    and p.tuples is None for p in self._queue):
                raise RuntimeError("submit the initial labels first")
            tuples, labels = session._subsessions[subspace] \
                .validate_extra_labels(tuples, labels)
            self._queue.append(_Pending(
                session_id, subspace, labels, tuples,
                enqueued=time.perf_counter() if self._obs_on else None))
            self._queue_depth.set(len(self._queue))

    def pending(self, session_id=None):
        """Queued (session, subspace) pairs, optionally for one session."""
        with self._lock:
            return [(p.session_id, p.subspace) for p in self._queue
                    if session_id is None or p.session_id == session_id]

    # ------------------------------------------------------------------
    # Stage 2: batched adaptation
    # ------------------------------------------------------------------
    def flush(self, raise_errors=True):
        """Drain the queue through one fused batched adaptation.

        Returns the number of (session, subspace) adaptations performed.
        Queue order is preserved per (session, subspace): an initial
        submission queued before an extra round is installed first.

        A queued item whose request cannot be built (e.g. labels for a
        meta variant whose subspace was never meta-trained) is discarded
        and does not take the rest of the queue down with it: every
        other item still adapts.  Each such error is *attributed to the
        owning session* — recorded in its per-session error state and
        surfaced by that session's next :meth:`poll` — at the moment it
        is caught, so a later training failure can no longer discard it.
        With ``raise_errors=True`` (direct calls) the first error then
        also re-raises; the :meth:`poll`/:meth:`predict` paths pass
        ``False`` so one session's bad batch never raises into an
        unrelated session's call.  If the fused training itself fails,
        nothing from the affected wave was installed; the un-adapted
        items stay queued for retry and the failure re-raises
        regardless (it is systemic, not one session's fault).
        """
        with self._lock:
            work = list(self._queue)
            self._queue.clear()
            self._queue_depth.set(0)
            if not work:
                return 0
            flush_start = time.perf_counter() if self._obs_on else None
            done = 0
            errors = []
            # Items targeting the *same* (session, subspace) must run in
            # submission order (an extra round trains on the installed
            # result of the initial one), so the queue drains in waves:
            # each wave fuses at most one item per (session, subspace).
            while work:
                wave, rest, seen = [], [], set()
                for item in work:
                    key = (item.session_id, item.subspace)
                    (rest if key in seen else wave).append(item)
                    seen.add(key)
                try:
                    done += self._run_wave(wave, errors)
                except Exception:
                    # Training itself blew up.  Nothing from this wave
                    # was installed or recorded, so the whole wave plus
                    # the never-attempted later waves go back on the
                    # queue for a retry.
                    self._queue.extend(wave)
                    self._queue.extend(rest)
                    self._queue_depth.set(len(self._queue))
                    raise
                work = rest
            if flush_start is not None:
                self._t_flush.observe(time.perf_counter() - flush_start)
            if errors and raise_errors:
                raise errors[0]
            return done

    def _record_error(self, session_id, subspace, error):
        """Attribute one flush error to its owning session."""
        self.metrics.counter("serve.manager.errors.recorded").inc()
        self._session_errors.setdefault(session_id, []).append({
            "subspace": list(subspace.names),
            "error": "{}: {}".format(type(error).__name__, error),
        })

    def _run_wave(self, wave, errors):
        start = time.perf_counter()
        if self._obs_on:
            for item in wave:
                if item.enqueued is not None:
                    self._queue_wait.observe(start - item.enqueued)
        requests, installs = [], []
        for item in wave:
            subsession = \
                self._sessions[item.session_id]._subsessions[item.subspace]
            try:
                if item.tuples is None:
                    request = subsession.build_initial_request(item.labels)
                    installs.append((subsession, None))
                else:
                    request, extras = subsession.build_readapt_request_for(
                        item.tuples, item.labels)
                    installs.append((subsession, extras))
            except Exception as error:   # isolate the offending item
                self._record_error(item.session_id, item.subspace, error)
                errors.append(error)
                continue
            requests.append(request)
        if not requests:
            return 0
        built = time.perf_counter()
        self._t_build.observe(built - start)
        with span("serve.manager.adapt", requests=len(requests)):
            results = run_adapt_requests(requests)
        trained = time.perf_counter()
        self._t_train.observe(trained - built)
        share = (trained - start) / len(results)
        for (subsession, extras), request, (adapted, optimizer) in zip(
                installs, requests, results):
            if extras is None:
                subsession.install_adaptation(request, adapted, optimizer,
                                              share)
            else:
                subsession.install_readaptation(adapted, extras)
        self._t_install.observe(time.perf_counter() - trained)
        self._adapt_batches.inc()
        self._adapted_total.inc(len(results))
        return len(results)

    def poll(self, session_id, advance=True):
        """Report the session's serving state, advancing work by default.

        With ``advance=True`` every queued adaptation (for all sessions)
        is flushed first, so ``pending`` comes back empty and ``ready``
        reflects the post-flush state; with ``advance=False`` the queue
        is only inspected — ``pending`` then lists the session's
        subspaces still awaiting adaptation.  ``versions`` carries the
        per-subspace model versions that key the prediction cache.

        ``errors`` lists flush failures attributed to *this* session
        (``[{"subspace": [names], "error": "Type: msg"}]``), cleared
        once reported.  Another session's bad label batch never raises
        here: it lands in that session's own error state instead.
        """
        with self._lock:
            session = self.session(session_id)
            if advance:
                self.flush(raise_errors=False)
            ready = [s for s, ss in session._subsessions.items()
                     if ss.adapted is not None]
            pending = [s for _, s in self.pending(session_id)]
            return {
                "ready": ready,
                "pending": pending,
                "errors": self._session_errors.pop(session_id, []),
                "versions": {s: ss.model_version
                             for s, ss in session._subsessions.items()},
            }

    # ------------------------------------------------------------------
    # Stage 3: cached, batched prediction
    # ------------------------------------------------------------------
    def _conjunctions(self, session_ids):
        """``{session_id: {subspace: _SubspaceSession}}`` of sessions
        that can answer: at least one subspace, every one adapted."""
        conjunctions = {}
        for session_id in session_ids:
            session = self.session(session_id)
            self._require_subspaces(session_id, session)
            for subsession in session._subsessions.values():
                subsession.require_adapted()
            conjunctions[session_id] = session._subsessions
        return conjunctions

    def _answer_block(self, conjunctions, project, n_rows, digest):
        """Answers of one block of rows, ``{id: (n_rows,) 0/1}``: one
        cache lookup per session, the misses through ONE
        :func:`~repro.core.framework.predict_conjunctions` call.

        ``digest`` identifies the block's rows.  Every answer is the
        caller's to keep: a hit is a copy of the cache's frozen array.
        """
        t0 = time.perf_counter() if self._obs_on else None
        out, misses = {}, {}
        for session_id, subsessions in conjunctions.items():
            key = self.cache.key(
                session_id, ((subspace, subsession.model_version) for
                             subspace, subsession in subsessions.items()),
                digest)
            cached = self.cache.get(key)
            if cached is None:
                misses[session_id] = key
            else:
                out[session_id] = cached.copy()
        if misses:
            # The manager-level pack cache keeps the compiled halfspace
            # stacks across model versions and repeated calls.
            answers, tally = predict_conjunctions(
                {session_id: conjunctions[session_id]
                 for session_id in misses},
                project, n_rows, self._region_packs)
            for session_id, key in misses.items():
                self.cache.put(key, answers[session_id])
            out.update(answers)
            self._record_tally(tally)
        if t0 is not None:
            self._t_predict.observe(time.perf_counter() - t0)
        return out

    def _record_tally(self, tally):
        """One :func:`~repro.core.framework.predict_conjunctions` call's
        seconds and row·subspace counts into the registry."""
        self._t_encode.observe(tally["encode_s"])
        self._t_refine.observe(tally["geometry_s"])
        self._t_forward.observe(tally["forward_s"])
        self._rows_settled.inc(tally["settled"])
        self._rows_scored.inc(tally["scored"])
        self._rows_skipped.inc(tally["skipped"])

    def predict_subspace(self, session_id, subspace, points):
        """Cached 0/1 UIS membership for subspace-coordinate points (a
        conjunction of one)."""
        points = subspace.validate_points(points)
        with self._lock:
            self.flush(raise_errors=False)
            subsession = self.session(session_id)._subsessions[subspace]
            subsession.require_adapted()
            return self._answer_block(
                {session_id: {subspace: subsession}}, lambda _: points,
                len(points), rows_digest(points))[session_id]

    def predict_many(self, session_ids, rows):
        """0/1 UIR membership of ``rows`` for many sessions at once.

        The fused counterpart of calling :meth:`predict` per session,
        one :func:`~repro.core.framework.predict_conjunctions` call for
        every session the cache cannot answer: rows are projected and
        scaled once per subspace, all sessions' few-shot hulls are
        tested in one engine call per subspace, and only then are the
        rows some classifier will read encoded — once for all the
        sessions that read them — and scored, each session's classifier
        seeing the rows its hulls left open that no other subspace of
        the session has already answered 0.
        Returns ``{session_id: (n,) predictions}``.  ``rows`` may be a
        :class:`~repro.store.ChunkStore` (chunk-wise, zone-map-pruned,
        per-chunk-cached evaluation via :meth:`predict_many_store`).
        """
        if hasattr(rows, "iter_chunks"):
            return self.predict_many_store(session_ids, rows)
        rows = self.lte.validate_rows(rows)
        with self._lock, span("serve.manager.predict_many"):
            self.flush(raise_errors=False)
            return self._answer_block(
                self._conjunctions(session_ids),
                lambda subspace: subspace.project(rows), len(rows),
                rows_digest(rows))

    def predict_many_store(self, session_ids, store):
        """0/1 UIR membership over a chunk store for many sessions: ONE
        :func:`~repro.core.framework.scan_conjunctions` call — the scan
        a lone session's ``predict_store`` runs for itself — over the
        sessions, their watermarks (per ``(session, store uid)``, kept
        in snapshots) and this manager's pack and prediction caches.
        It prunes chunks by zone map, skips what a watermark or the
        per-chunk cache already answers and evaluates the rest in
        blocks of at most ``max(chunk_rows, 8 192)`` rows — the bound
        on resident memory, whatever the store's size.

        Returns ``{session_id: (n_rows,) predictions}``.  The call's
        accounting — chunk·sessions evaluated vs skipped by watermark
        vs pruned by zone maps — lands in :attr:`last_store_scan` and,
        with its blocks, under ``serve.manager.store_scan.*``.
        """
        with self._lock, span("serve.manager.store_scan") as scan_span:
            self.flush(raise_errors=False)
            t0 = time.perf_counter() if self._obs_on else None
            sessions = self._conjunctions(session_ids)
            results, marks, scan = scan_conjunctions(
                sessions, store,
                {sid: self._store_marks.get((sid, store.uid))
                 for sid in sessions},
                self._region_packs, cache=self.cache)
            for sid, mark in marks.items():
                self._store_marks[(sid, store.uid)] = mark
            blocks = scan.pop("blocks")
            self.last_store_scan = scan
            counted = {name: scan[name] for name in (
                "chunk_evals", "watermark_skipped", "pruned_skipped")}
            scan_span.annotate(**counted)
            for name, count in counted.items():
                self.metrics.counter(
                    "serve.manager.store_scan." + name).inc(count)
            self.metrics.counter(
                "serve.manager.store_scan.blocks").inc(len(blocks))
            block_rows = self.metrics.histogram(
                "serve.manager.store_scan.block_rows")
            for tally in blocks:
                block_rows.observe(tally["rows"])
                self._record_tally(tally)
            if t0 is not None:
                self._t_predict.observe(time.perf_counter() - t0)
            return results

    def predict_store(self, session_id, store):
        """Chunk-pruned, per-chunk-cached UIR membership over a store."""
        return self.predict_many_store([session_id], store)[session_id]

    def predict(self, session_id, rows):
        """Cached 0/1 UIR membership for full-space rows (conjunctive)."""
        return self.predict_many([session_id], rows)[session_id]

    def retrieve(self, session_id, rows=None, limit=None):
        """Rows predicted interesting for the session (cached)."""
        if rows is None:
            rows = self.lte.table if hasattr(self.lte.table, "iter_chunks") \
                else self.lte.table.data
        if hasattr(rows, "iter_chunks"):
            indices = np.flatnonzero(
                self.predict_store(session_id, rows) == 1)
            if limit is not None:
                indices = indices[:int(limit)]
            return rows.take(indices)
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        mask = self.predict(session_id, rows) == 1
        result = rows[mask]
        if limit is not None:
            result = result[:int(limit)]
        return result

    # ------------------------------------------------------------------
    # Checkpointing: snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self):
        """Checkpointable state of the whole serving engine.

        Captures every session's online state (adapted models, few-shot
        regions, model versions), the *pending* submit queue exactly as
        it stands (nothing is flushed — a snapshot is a point-in-time
        copy, not a barrier), the versioned prediction cache with its
        hit/miss counters, and the serving counters.  Hull objects shared
        across sessions are interned once through a
        :class:`~repro.core.optimizer.HullRegistry`, so the sharing that
        makes :meth:`FewShotOptimizer.decide_batch` cheap survives the
        round trip.

        The shared pretrained LTE system is *not* included: it is the
        long-lived artifact the manager serves, persisted separately
        (see :func:`repro.persist.save_pretrained`).  Restore with
        :meth:`restore` against an equivalent LTE; a restored manager
        serves bit-identical predictions without re-adaptation.  Every
        array is deep-copied, so later mutation of the live manager
        cannot leak into the snapshot.
        """
        with self._lock:
            registry = HullRegistry()
            sessions = [
                {"id": sid, "state": session.state_dict(registry)}
                for sid, session in self._sessions.items()
            ]
            queue = [
                {"session_id": p.session_id,
                 "subspace": list(p.subspace.names),
                 "labels": np.asarray(p.labels).copy(),
                 "tuples": None if p.tuples is None
                 else np.asarray(p.tuples).copy()}
                for p in self._queue
            ]
            return {
                "next_id": int(self._next_id),
                "adapt_batches": int(self.adapt_batches),
                "adapted_total": int(self.adapted_total),
                # Full metrics state (counters + histogram buckets), so a
                # restored manager's telemetry continues where it left
                # off.  Snapshot entries are plain string-keyed dicts of
                # ints/floats/None — exactly what the persist codec
                # accepts.
                "metrics": self.metrics.snapshot(),
                "sessions": sessions,
                "queue": queue,
                "session_errors": [
                    {"session_id": int(sid),
                     "errors": [dict(e) for e in entries]}
                    for sid, entries in self._session_errors.items()
                ],
                "cache": self.cache.state_dict(),
                "hulls": registry.state(),
                "store_marks": [
                    {"session_id": int(sid), "uid": str(uid),
                     "version": int(mark["version"]),
                     "n_rows": int(mark["n_rows"]),
                     "closed": int(mark["closed"]),
                     "closed_rows": int(mark["closed_rows"]),
                     "tail_digest": mark["tail_digest"],
                     "models": [int(v) for v in mark["models"]],
                     "result": mark["result"].copy()}
                    for (sid, uid), mark in self._store_marks.items()
                ],
            }

    @classmethod
    def restore(cls, lte, snapshot):
        """Rebuild a serving engine from :meth:`snapshot` output.

        ``lte`` must be the same pretrained system the snapshot was taken
        over (or a bit-identical restore of it — e.g. via
        :func:`repro.persist.load_pretrained`); sessions, the pending
        queue, model versions and the prediction cache come back exactly,
        including session ids and cache hit counters, so serving
        continues as if the process had never died.
        """
        manager = cls(lte, cache_entries=snapshot["cache"]["capacity"])
        # Older snapshots predate the metrics key; they restore with
        # fresh telemetry.  load_state_dict / the explicit counter
        # assignments below re-assert the persisted scalar counters on
        # top, keeping both paths consistent.
        manager.metrics.load(snapshot.get("metrics") or {})
        hulls = HullRegistry.restore(snapshot["hulls"]).hulls
        for entry in snapshot["sessions"]:
            manager._sessions[int(entry["id"])] = \
                ExplorationSession.from_state_dict(lte, entry["state"],
                                                   hulls=hulls)
        manager._sessions_live.set(len(manager._sessions))
        manager._next_id = int(snapshot["next_id"])
        manager.adapt_batches = int(snapshot["adapt_batches"])
        manager.adapted_total = int(snapshot["adapted_total"])
        lookups = {}
        for item in snapshot["queue"]:
            session_id = int(item["session_id"])
            if session_id not in manager._sessions:
                raise KeyError(
                    "queued work references unknown session id {}"
                    .format(session_id))
            by_key = lookups.get(session_id)
            if by_key is None:
                by_key = lookups[session_id] = {
                    s.key: s
                    for s in manager._sessions[session_id]._subsessions}
            key = tuple(sorted(item["subspace"]))
            if key not in by_key:
                raise KeyError(
                    "queued work references subspace {} absent from its "
                    "session".format(tuple(item["subspace"])))
            tuples = None if item["tuples"] is None \
                else np.asarray(item["tuples"], dtype=np.float64)
            labels = np.asarray(item["labels"]).astype(np.int64)
            manager._queue.append(
                _Pending(session_id, by_key[key], labels, tuples))
        manager._queue_depth.set(len(manager._queue))
        for entry in snapshot.get("session_errors", []):
            manager._session_errors[int(entry["session_id"])] = [
                {"subspace": list(e["subspace"]), "error": str(e["error"])}
                for e in entry["errors"]]
        manager.cache.load_state_dict(snapshot["cache"])
        # Store-scan watermarks (absent in pre-watermark snapshots):
        # validity is re-checked against the live store on first use, so
        # restoring against a since-mutated store degrades to a rescan.
        for entry in snapshot.get("store_marks", []):
            session_id = int(entry["session_id"])
            if session_id not in manager._sessions:
                continue
            manager._store_marks[(session_id, str(entry["uid"]))] = {
                "version": int(entry["version"]),
                "n_rows": int(entry["n_rows"]),
                "closed": int(entry["closed"]),
                "closed_rows": int(entry["closed_rows"]),
                "tail_digest": entry["tail_digest"],
                "models": tuple(int(v) for v in entry["models"]),
                "result": np.asarray(entry["result"]).astype(np.int8),
            }
        return manager

    # ------------------------------------------------------------------
    @property
    def stats(self):
        """Serving counters: sessions, queue depth, batches, cache.

        Compatibility shim over the ``repro.obs`` registry — the same
        numbers (plus latency histograms) are in
        ``self.metrics.snapshot()`` under ``serve.manager.*``.
        """
        with self._lock:
            return {
                "sessions": self.n_sessions,
                "queued": len(self._queue),
                "adapt_batches": self.adapt_batches,
                "adapted_total": self.adapted_total,
                "session_errors": sum(len(v) for v in
                                      self._session_errors.values()),
                "cache": self.cache.stats,
            }
