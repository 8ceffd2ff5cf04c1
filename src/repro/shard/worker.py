"""The shard worker process: one LTE replica behind a pipe-RPC loop.

Each worker owns a full single-process serving stack — an LTE replica
warm-started from the shared :mod:`repro.persist` checkpoint plus a
:class:`~repro.serve.SessionManager` — and speaks a tiny message-passing
protocol over a ``multiprocessing`` pipe:

    request:  ``(request_id, method, kwargs)``
    reply:    ``(request_id, "ok", result)`` or
              ``(request_id, "error", (exception_type_name, message))``

The worker is single-threaded and processes requests strictly in order,
so the per-worker view is exactly the single-process
:class:`~repro.serve.SessionManager` semantics — which is what makes
gateway predictions bit-identical to an unsharded manager.  Errors are
*replies*, never crashes: an exception inside a handler is serialized
back to the gateway (which re-raises it under the same type), and
per-session flush errors stay inside the manager's attributed error
state until that session polls.

Model-version broadcast: ``model_update`` first drains the pending
queue (label batches submitted under the old model adapt under it —
nothing is dropped), then installs the new pretrained weights via
:func:`repro.persist.load_pretrained`.  That swaps each subspace's
trainer and nothing else: live sessions hold their own adapted copies
and keep their answers bit for bit, sessions opened afterwards adapt
from the new phi.  A refreshed subspace is a new state object, and
predictions group sessions by the state object they adapted under, so
no session is scaled or encoded with another generation's artifacts.
"""

from __future__ import annotations

import os

from ..nn.cores import claim_share, compute_threads
from ..obs import aggregate as _aggregate_metrics
from ..obs import reset_all_metrics
from ..persist import load_pretrained, model_fingerprint
from ..serve import SessionManager
from .rpc import serve_rpc

__all__ = ["worker_main"]


def worker_main(conn, lte, checkpoint_dir, worker_index, n_workers):
    """Run the worker RPC loop until ``shutdown`` or pipe EOF.

    Parameters
    ----------
    conn:
        The worker end of a duplex ``multiprocessing`` pipe.
    lte:
        The fitted LTE replica (inherited through ``fork``; its learned
        weights are immediately re-installed from ``checkpoint_dir``, so
        the replica provably serves the checkpointed model).
    checkpoint_dir:
        Shared ``lte-pretrained`` checkpoint to warm-start from, or
        ``None`` to serve the inherited weights as-is.
    worker_index:
        This worker's index in the gateway's pool (for diagnostics).
    n_workers:
        The pool size: the worker computes on its share of the cores
        (:func:`repro.nn.cores.claim_share`).
    """
    claim_share(n_workers)
    # Forked registries carry the gateway process's counts; zero them so
    # this worker's ``metrics`` aggregate reports only its own activity.
    reset_all_metrics()
    if checkpoint_dir is not None:
        load_pretrained(checkpoint_dir, lte)
    manager = SessionManager(lte)
    debug = {"crash_on_flush": False}

    def queued():
        return len(manager.pending())

    def worker_stats():
        return {"sessions": manager.n_sessions, "queued": queued(),
                "adapt_batches": manager.adapt_batches,
                "adapted_total": manager.adapted_total,
                "worker": int(worker_index),
                "model": model_fingerprint(lte)}

    def handle(method, kwargs):
        if method == "ping":
            return {"worker": int(worker_index),
                    "model": model_fingerprint(lte),
                    "threads": compute_threads()}
        if method == "open_session":
            return manager.open_session(**kwargs)
        if method == "close_session":
            manager.close_session(kwargs["session_id"])
            return queued()
        if method == "initial_tuples":
            return manager.initial_tuples(kwargs["session_id"])
        if method == "submit_labels":
            manager.submit_labels(kwargs["session_id"], kwargs["subspace"],
                                  kwargs["labels"])
            return queued()
        if method == "add_labels":
            manager.add_labels(kwargs["session_id"], kwargs["subspace"],
                               kwargs["tuples"], kwargs["labels"])
            return queued()
        if method == "flush":
            if debug["crash_on_flush"]:
                # Test hook: die exactly where a real worker would —
                # mid-flush, with label batches still queued.
                os._exit(17)
            done = manager.flush(raise_errors=False)
            return {"done": done, "queued": queued()}
        if method == "poll":
            result = manager.poll(kwargs["session_id"],
                                  advance=kwargs.get("advance", True))
            result["worker_queued"] = queued()
            return result
        if method == "predict":
            return manager.predict(kwargs["session_id"], kwargs["rows"])
        if method == "predict_subspace":
            return manager.predict_subspace(
                kwargs["session_id"], kwargs["subspace"], kwargs["points"])
        if method == "predict_many":
            return manager.predict_many(kwargs["session_ids"],
                                        kwargs["rows"])
        if method == "retrieve":
            return manager.retrieve(kwargs["session_id"],
                                    rows=kwargs.get("rows"),
                                    limit=kwargs.get("limit"))
        if method == "model_update":
            # Drain first: batches labelled under the old model adapt
            # under it, exactly as an unsharded manager would have —
            # the broadcast drops no session and no queued work.
            manager.flush(raise_errors=False)
            refresh = kwargs.get("refresh") or []
            if refresh:
                # Streaming-ingest rollout: catch the forked store view
                # up with appends committed on disk, then re-prepare the
                # refreshed subspaces from the grown data.  Preparation
                # is deterministic in (table, config, subspace index),
                # so the rebuilt scalers/encoders are bit-identical to
                # the publisher's and load_pretrained's identity check
                # passes; train=False because the checkpoint supplies
                # the trained weights next.
                table = lte.table
                if hasattr(table, "refresh"):
                    table.refresh()
                by_key = {s.key: s for s in lte.states}
                lte._refresh_subspaces(
                    table, [by_key[tuple(sorted(names))] for names in refresh],
                    train=False)
            load_pretrained(kwargs["path"], lte)
            return model_fingerprint(lte)
        if method == "stats":
            return worker_stats()
        if method == "metrics":
            # The worker's whole-process metric state: the manager's
            # registry, any compile-backend registries, and the default
            # registry — one plain snapshot the gateway merges with the
            # other workers' (bucket bounds are fixed process-wide, so
            # the merge is a deterministic element-wise add).
            return _aggregate_metrics()
        if method == "_debug":
            # Test hooks only: fault injection the gateway tests use to
            # exercise crash and error-attribution paths for real.
            session_id = kwargs.pop("corrupt_session", None)
            if session_id is not None:
                def boom(labels):
                    raise RuntimeError("corrupt session")
                session = manager.session(session_id)
                for subsession in session._subsessions.values():
                    subsession.build_initial_request = boom
            if kwargs.pop("fail_training", False):
                # Every later flush fails as a whole (systemic), its
                # queue kept for a retry that never comes.
                def fail(wave, errors):
                    raise RuntimeError("adaptation failed")
                manager._run_wave = fail
            debug.update(kwargs)
            return True
        raise ValueError("unknown RPC method {!r}".format(method))

    def on_shutdown(kwargs):
        # ``drain`` (the default): every queued adaptation still
        # completes — per-session errors stay attributed, a systemic
        # failure raises and becomes the error reply.  Without it the
        # queue is dropped.
        if kwargs.get("drain", True):
            manager.flush(raise_errors=False)
        return worker_stats()

    serve_rpc(conn, handle, on_shutdown=on_shutdown)
