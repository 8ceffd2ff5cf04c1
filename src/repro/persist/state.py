"""Save/load wrappers binding checkpoints to the stateful layers.

Four artifact kinds cover the system's stateful layers:

======================  ==============================================
kind                    contents
======================  ==============================================
``lte-pretrained``      per-subspace meta-learners (phi + memories) of
                        a fitted :class:`~repro.core.LTE` — the
                        shippable pretrained artifact
``pretrain-run``        an *in-flight* offline meta-training run:
                        per-subspace trainer weights, memories, RNG
                        state, pretrain-optimizer moments and epoch
                        cursors (also surfaced in the manifest meta),
                        written after every epoch so a killed
                        ``fit_offline(checkpoint=...)`` resumes to the
                        identical phi
``exploration-session`` the online state of one (resumable) session,
                        its store-scan watermarks included
``session-manager``     a full :class:`~repro.serve.SessionManager`
                        snapshot: sessions (each with its watermarks),
                        pending queue, flush errors, metrics
======================  ==============================================

The offline *derived* artifacts (scalers, preprocessors, cluster
summaries) are deterministic functions of the table and the config seed,
so ``lte-pretrained`` stores only the expensive learned state: restore by
re-running ``fit_offline(..., train=False)`` (cheap: ~0.36 s for the
default config over the four 2-D subspaces of a 16 384-row SDSS table on
2 cores — median of 7, re-measured at PR 24, where this host also reads
0.36 s at the parent; most of it the three k-means rounds a subspace,
and no hull is built before a session or a task asks for one) and then
:func:`load_pretrained` (instant: ~20 ms).  The end-to-end benchmark's
``paper_nets`` workload restores its set-up model this way, checks that
the copy answers like the original, and reports the checkpoint's write
and read as ``persist.save_pretrained_ms`` and
``persist.load_pretrained_ms``.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..core.framework import ExplorationSession, StateMismatchError
from ..core.meta_training import MetaTrainer
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint

__all__ = ["save_pretrained", "load_pretrained", "save_pretrain_run",
           "load_pretrain_run", "save_session", "load_session",
           "save_manager", "load_manager", "dataset_provenance",
           "model_fingerprint"]


def _config_fingerprint(lte):
    cfg = lte.config
    return {"ku": int(cfg.ku), "embed_size": int(cfg.embed_size),
            "hidden_size": int(cfg.hidden_size),
            "subspace_dim": int(cfg.subspace_dim), "seed": int(cfg.seed)}


def _lte_identity(lte):
    """Fingerprint of the LTE system a checkpoint was captured over.

    Online state only makes sense against the exact offline artifacts it
    was built with, and those are a deterministic function of (table,
    config); restores compare this identity and refuse mismatches
    loudly instead of pairing restored models with foreign scalers,
    encoders or cluster summaries.  Chunk-store tables fingerprint by
    their store digest (precomputed per-chunk content digests), so a
    multi-gigabyte on-disk table is never re-read — or materialized —
    just to identify a checkpoint.
    """
    table = lte.table
    if hasattr(table, "iter_chunks"):
        return {"config": _config_fingerprint(lte),
                "table_shape": [int(table.n_rows),
                                int(table.n_attributes)],
                "table_digest": "store:{}".format(table.digest)}
    data = np.ascontiguousarray(np.asarray(table.data, dtype=np.float64))
    h = hashlib.blake2b(data.tobytes(), digest_size=16)
    h.update(str(data.shape).encode())
    return {"config": _config_fingerprint(lte),
            "table_shape": list(data.shape),
            "table_digest": h.hexdigest()}


def _fingerprint_update(h, node):
    """Feed one nested state_dict node into a running digest."""
    if node is None:
        h.update(b"~")
    elif isinstance(node, np.ndarray):
        array = np.ascontiguousarray(node)
        h.update(str(array.dtype).encode())
        h.update(str(array.shape).encode())
        h.update(array.tobytes())
    elif isinstance(node, dict):
        for key in sorted(node):
            h.update(str(key).encode())
            _fingerprint_update(h, node[key])
    elif isinstance(node, (list, tuple)):
        h.update(str(len(node)).encode())
        for item in node:
            _fingerprint_update(h, item)
    else:
        h.update(repr(node).encode())


def model_fingerprint(lte):
    """Stable 128-bit digest of a fitted system's learned model state.

    Covers every subspace's meta-learner weights and memories (via the
    trainer ``state_dict``), so two LTE systems fingerprint equal iff
    their pretrained models are bit-identical.  This is the *model
    version* of the serving tier: :func:`save_pretrained` stamps it into
    the checkpoint manifest and the sharded gateway
    (:mod:`repro.shard`) uses it to confirm a phi broadcast landed on
    every worker replica.
    """
    h = hashlib.blake2b(digest_size=16)
    for subspace, state in lte.states.items():
        h.update(",".join(subspace.key).encode())
        if state.trainer is None:
            h.update(b"untrained")
        else:
            _fingerprint_update(h, state.trainer.state_dict())
    return h.hexdigest()


def dataset_provenance(table):
    """What a checkpoint's manifest should say about its training data.

    Combines the builder provenance the dataset registry stamps on
    tables/stores (builder name, n_rows, seed) with the store digest —
    and, for appendable stores, the ``store_version`` the artifacts were
    fitted at, so a checkpoint manifest records *which generation* of a
    growing dataset it belongs to; returns ``None`` when nothing is
    known.
    """
    out = dict(getattr(table, "provenance", None) or {})
    if hasattr(table, "iter_chunks"):
        out.setdefault("n_rows", int(table.n_rows))
        out["store_digest"] = str(table.digest)
        out["store_version"] = int(getattr(table, "store_version", 1))
    return out or None


def _meta_with_provenance(meta, lte):
    """Merge dataset provenance into user metadata (user keys win)."""
    meta = dict(meta or {})
    provenance = dataset_provenance(lte.table)
    if provenance is not None:
        meta.setdefault("dataset", provenance)
    return meta


def _lacks(path, key):
    return CheckpointError(
        "checkpoint at {!r} lacks the expected field {!r}; it was "
        "written by an incompatible build — re-save the state with "
        "this build".format(path, key))


def _require(state, key, path):
    try:
        return state[key]
    except (KeyError, TypeError):
        raise _lacks(path, key) from None


def _restore(path, what, build):
    """``build()``, its ``KeyError`` turned into a
    :class:`CheckpointError`: a state that names a subspace or session
    the target lacks does not fit it; any other lookup that failed is a
    field the state lacks."""
    try:
        return build()
    except StateMismatchError as error:
        raise CheckpointError(
            "{} at {!r} does not fit the target LTE system: {}".format(
                what, path, error.args[0])) from None
    except KeyError as error:
        raise _lacks(path, error.args[0]) from None


def _capture(what, build):
    """``build()``, its :class:`StateMismatchError` turned into a
    :class:`CheckpointError`: a state whose restore over the system it
    was captured from would be refused is not written."""
    try:
        return build()
    except StateMismatchError as error:
        raise CheckpointError("{} is not checkpointed: its restore would "
                              "not fit the LTE system it serves over: {}"
                              .format(what, error.args[0])) from None


def _session_state(state, path):
    """One session's state, refused when it predates the watermarks it
    now carries (a restart would silently rescan every store)."""
    _require(state, "store_marks", path)
    return state


def _check_identity(path, saved, lte, what):
    current = _lte_identity(lte)
    if saved != current:
        raise CheckpointError(
            "{} at {!r} was captured over an LTE system pretrained under "
            "config {} (table {} digest {}) but the target system has "
            "config {} (table {} digest {}); restoring across different "
            "systems would silently mis-predict — prepare the target "
            "from the same table and config".format(
                what, path, saved["config"], saved["table_shape"],
                saved["table_digest"], current["config"],
                current["table_shape"], current["table_digest"]))


# ----------------------------------------------------------------------
# Pretrained LTE artifacts
# ----------------------------------------------------------------------
def save_pretrained(path, lte, meta=None):
    """Checkpoint the pretrained meta-learners of a fitted LTE system.

    Subspaces that were prepared but never meta-trained are recorded as
    such and restore as untrained.  The manifest ``meta`` is stamped with
    the :func:`model_fingerprint` (the serving tier's model version).
    Returns the manifest dict.
    """
    meta = dict(meta or {})
    meta.setdefault("model_fingerprint", model_fingerprint(lte))
    state = {
        "identity": _lte_identity(lte),
        "subspaces": [
            {"names": list(subspace.names),
             "trainer": None if lte_state.trainer is None
             else lte_state.trainer.state_dict()}
            for subspace, lte_state in lte.states.items()
        ],
    }
    return save_checkpoint(path, "lte-pretrained", state,
                           meta=_meta_with_provenance(meta, lte))


def load_pretrained(path, lte):
    """Install pretrained meta-learners into a prepared LTE system.

    ``lte`` must have run ``fit_offline`` (``train=False`` suffices) over
    the same table, config and subspace decomposition; the checkpoint
    supplies the expensive learned state and this function wires it into
    the prepared offline artifacts.  Mismatched decompositions or
    preprocessor widths raise :class:`CheckpointError` instead of
    installing a meta-learner that would silently mis-predict.
    """
    state, info = load_checkpoint(path, expected_kind="lte-pretrained")
    if not lte.states:
        raise CheckpointError(
            "the target LTE system is not prepared; run "
            "fit_offline(table, train=False) before load_pretrained")
    _check_identity(path, _require(state, "identity", path), lte,
                    "pretrained checkpoint")
    by_key = {s.key: s for s in lte.states}
    saved_keys = {tuple(sorted(entry["names"]))
                  for entry in _require(state, "subspaces", path)}
    if saved_keys != set(by_key):
        raise CheckpointError(
            "checkpoint at {!r} covers subspaces {} but the target LTE "
            "system has {}; re-prepare the system with the same "
            "decomposition (same table, subspace_dim and seed)".format(
                path, sorted(saved_keys), sorted(by_key)))
    for entry in _require(state, "subspaces", path):
        subspace = by_key[tuple(sorted(entry["names"]))]
        lte_state = lte.states[subspace]
        if entry["trainer"] is None:
            lte_state.trainer = None
            continue
        trainer = MetaTrainer.from_state_dict(entry["trainer"])
        width = lte_state.preprocessor.width
        if trainer.model.input_width != width:
            raise CheckpointError(
                "pretrained meta-learner for subspace {} expects "
                "input width {} but the prepared preprocessor produces "
                "{}; the checkpoint was trained over different offline "
                "artifacts".format(tuple(subspace.names),
                                   trainer.model.input_width, width))
        # Only the trainer is swapped: the scaler and preprocessor stay
        # the prepared ones, so live sessions (each holding its own
        # adapted copy of the old weights) keep their answers bit for
        # bit and sessions opened from now on adapt from the new phi.
        lte_state.trainer = trainer
    return info


# ----------------------------------------------------------------------
# Resumable (epoch-granular) offline pretraining runs
# ----------------------------------------------------------------------
def save_pretrain_run(path, lte, entries):
    """Checkpoint an in-flight offline meta-training run.

    ``entries`` is ``[{"names": [...], "schedule": schedule_state}, ...]``
    — one per subspace, in training order, where ``schedule_state`` is a
    :meth:`repro.train.TrainerSchedule.state_dict`.  The per-subspace
    epoch cursors are mirrored into the manifest ``meta`` (under
    ``"epoch_cursor"``) so ``python -m repro.persist inspect`` shows
    resume progress without decoding the arrays.  Resuming reads none
    of ``meta``: keys older runs recorded there (``workers``,
    ``engine``, ``nn_backend``) are provenance only.
    Returns the manifest.
    """
    meta = {"epoch_cursor": {
        ",".join(entry["names"]): {
            "pretrain": "{}/{}".format(entry["schedule"]["pretrain_done"],
                                       entry["schedule"]["pretrain_total"]),
            "meta": "{}/{}".format(entry["schedule"]["meta_done"],
                                   entry["schedule"]["meta_total"]),
        }
        for entry in entries}}
    state = {"identity": _lte_identity(lte), "subspaces": list(entries)}
    return save_checkpoint(path, "pretrain-run", state,
                           meta=_meta_with_provenance(meta, lte))


def load_pretrain_run(path, lte):
    """Load a pretrain-run checkpoint against a prepared LTE system.

    Verifies the LTE identity (same table, config) before handing back
    the per-subspace schedule states; mismatches raise
    :class:`CheckpointError` instead of resuming a foreign run.  Returns
    ``(entries, info)`` in the layout :func:`save_pretrain_run` stored.
    """
    state, info = load_checkpoint(path, expected_kind="pretrain-run")
    _check_identity(path, _require(state, "identity", path), lte,
                    "pretrain-run checkpoint")
    return _require(state, "subspaces", path), info


# ----------------------------------------------------------------------
# Resumable exploration sessions
# ----------------------------------------------------------------------
def save_session(path, session, meta=None):
    """Checkpoint one :class:`~repro.core.ExplorationSession`."""
    state = {"identity": _lte_identity(session.lte),
             "session": _capture("the session", session.state_dict)}
    return save_checkpoint(path, "exploration-session", state,
                           meta=_meta_with_provenance(meta, session.lte))


def load_session(path, lte):
    """Resume a session checkpoint against a (restored) LTE system.

    ``lte`` must be the system the session was captured over (or a
    bit-identical restore of it); mismatched systems raise
    :class:`CheckpointError` instead of silently mis-predicting.  The
    session resumes with its store-scan watermarks, so an unchanged
    store is answered without evaluating a chunk.
    """
    state, _ = load_checkpoint(path, expected_kind="exploration-session")
    _check_identity(path, _require(state, "identity", path), lte,
                    "session checkpoint")
    session = _session_state(_require(state, "session", path), path)
    return _restore(path, "session checkpoint",
                    lambda: ExplorationSession.from_state_dict(lte, session))


# ----------------------------------------------------------------------
# Serving-engine snapshots
# ----------------------------------------------------------------------
def save_manager(path, manager, meta=None):
    """Checkpoint a full :class:`~repro.serve.SessionManager` snapshot."""
    state = {"identity": _lte_identity(manager.lte),
             "snapshot": _capture("the serving engine", manager.snapshot)}
    return save_checkpoint(path, "session-manager", state,
                           meta=_meta_with_provenance(meta, manager.lte))


def load_manager(path, lte):
    """Restore a serving engine snapshot against a (restored) LTE system.

    The returned manager serves bit-identical predictions — including
    watermarked store scans, model versions and queued-but-unflushed
    label batches — to the manager that was snapshotted.  ``lte`` must
    be the system the snapshot was taken over (or a bit-identical
    restore of it, e.g. via :func:`load_pretrained`); a different table
    or config raises :class:`CheckpointError` instead of silently
    serving garbage.
    """
    from ..serve.manager import SessionManager

    state, _ = load_checkpoint(path, expected_kind="session-manager")
    _check_identity(path, _require(state, "identity", path), lte,
                    "serving snapshot")
    snapshot = _require(state, "snapshot", path)
    for entry in _require(snapshot, "sessions", path):
        _session_state(_require(entry, "state", path), path)
    return _restore(path, "serving snapshot",
                    lambda: SessionManager.restore(lte, snapshot))
