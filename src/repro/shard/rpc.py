"""Pipe-RPC machinery between the shard gateway and its workers.

The gateway (:mod:`repro.shard.gateway`) and each worker
(:mod:`repro.shard.worker`) speak a tiny message-passing protocol over
a duplex ``multiprocessing`` pipe:

    request:  ``(request_id, method, kwargs)``
    reply:    ``(request_id, "ok", result)`` or
              ``(request_id, "error", (exception_type_name, message))``

This module owns the wire mechanics of both ends:

* :class:`RpcLink` — the master-side per-worker connection state
  (request counter, in-flight post times, last-RPC latency bookkeeping);
* :class:`PipeRpc` — pipelined ``post``/``wait``/``call`` with prompt
  typed crash detection (a dead worker raises, never hangs), stale-reply
  draining for abandoned pipelined fan-outs, reply-stream corruption
  checks and worker-side exception rebuild under the original type;
* :func:`serve_rpc` — the single-threaded worker-side dispatch loop
  (errors become *replies*, ``shutdown`` drains and exits, pipe EOF
  means the master went away).

Failures are the shard tier's typed family (:mod:`repro.shard.errors`):
a dead worker raises :class:`~repro.shard.errors.WorkerCrashed`, a
protocol failure :class:`~repro.shard.errors.ShardError`.
"""

from __future__ import annotations

import builtins
import time

from . import errors
from .errors import ShardError, WorkerCrashed

__all__ = ["RpcLink", "PipeRpc", "serve_rpc"]


class RpcLink:
    """Master-side state of one worker's pipe connection.

    The gateway subclasses it (adding ``__slots__``) for its own
    bookkeeping; the RPC layer touches only the slots declared here.
    """

    __slots__ = ("index", "process", "conn", "alive", "next_request",
                 "post_times", "last_rpc_seconds", "last_rpc_method")

    def __init__(self, index, process, conn):
        self.index = index
        self.process = process
        self.conn = conn
        self.alive = True
        self.next_request = 0
        self.post_times = {}        # in-flight request id -> send time
        self.last_rpc_seconds = None   # latency of the last finished RPC
        self.last_rpc_method = None


class PipeRpc:
    """Pipelined request/reply mechanics over a pool of :class:`RpcLink`.

    Parameters
    ----------
    timeout:
        Seconds to wait for a single reply before raising
        :class:`~repro.shard.errors.ShardError` (a *dead* worker is
        detected promptly regardless); ``None`` disables the timeout.
    on_dead:
        Callback ``(link)`` fired exactly once when a link is marked
        dead (before the raising call returns).
    on_reply:
        Callback ``(link, method, seconds)`` fired per completed RPC
        with its post-to-reply latency.
    """

    def __init__(self, *, timeout, on_dead, on_reply):
        self.timeout = timeout
        self.on_dead = on_dead
        self.on_reply = on_reply

    # ------------------------------------------------------------------
    def mark_dead(self, link):
        """Mark a link dead (idempotent): bookkeeping hook + pipe close."""
        if not link.alive:
            return
        link.alive = False
        link.post_times.clear()
        self.on_dead(link)
        try:
            link.conn.close()
        except OSError:
            pass

    def post(self, link, method, kwargs):
        """Send one request without waiting (pipelined fan-out)."""
        if not link.alive:
            raise WorkerCrashed(
                "worker {} is dead; its sessions are lost (re-open them "
                "or restore a manager checkpoint)".format(link.index))
        request_id = link.next_request
        link.next_request += 1
        link.post_times[request_id] = time.monotonic()
        try:
            link.conn.send((request_id, method, kwargs))
        except (BrokenPipeError, OSError):
            self.mark_dead(link)
            raise WorkerCrashed(
                "worker {} died before accepting {!r}".format(
                    link.index, method))
        return request_id

    def wait(self, link, request_id, method):
        """Await one reply; detect worker death promptly (never hang)."""
        deadline = None if self.timeout is None \
            else time.monotonic() + self.timeout
        while True:
            try:
                if not link.conn.poll(0.05):
                    if not link.process.is_alive() \
                            and not link.conn.poll(0.2):
                        self.mark_dead(link)
                        raise WorkerCrashed(
                            "worker {} died during {!r}; its sessions "
                            "are lost".format(link.index, method))
                    if deadline is not None \
                            and time.monotonic() > deadline:
                        raise ShardError(
                            "worker {} did not answer {!r} within "
                            "{}s".format(link.index, method, self.timeout))
                    continue
                message = link.conn.recv()
            except (EOFError, OSError):
                self.mark_dead(link)
                raise WorkerCrashed(
                    "worker {} died during {!r}; its sessions are "
                    "lost".format(link.index, method))
            reply_id, status, payload = message
            if reply_id < request_id:
                # Stale reply from a pipelined call whose wait was
                # abandoned (e.g. another worker crashed first and the
                # fan-out raised before collecting this one).  Workers
                # answer strictly in order, so it is safe to drop.
                continue
            if reply_id > request_id:
                self.mark_dead(link)
                raise ShardError(
                    "worker {} answered request {} while {} was "
                    "expected; the RPC stream is corrupt".format(
                        link.index, reply_id, request_id))
            posted_at = link.post_times.pop(reply_id, None)
            if posted_at is not None:
                # Post-to-reply latency; for pipelined fan-outs this
                # includes time the request queued behind the worker's
                # earlier work, which is the latency a caller observes.
                link.last_rpc_seconds = time.monotonic() - posted_at
                link.last_rpc_method = method
                self.on_reply(link, method, link.last_rpc_seconds)
            if status == "error":
                raise self.rebuild_exception(link, method, payload)
            return payload

    def call(self, link, method, kwargs):
        return self.wait(link, self.post(link, method, kwargs), method)

    def rebuild_exception(self, link, method, payload):
        """Re-raise a worker-side exception under its original type: one
        of :mod:`repro.shard.errors` or a builtin."""
        type_name, message = payload
        exc_type = getattr(errors, type_name, None) \
            or getattr(builtins, type_name, None)
        if isinstance(exc_type, type) and issubclass(exc_type, Exception):
            return exc_type(message)
        return ShardError("worker {} failed {!r}: {}: {}".format(
            link.index, method, type_name, message))


def serve_rpc(conn, handle, on_shutdown=None):
    """Run a worker-side RPC dispatch loop until ``shutdown`` or EOF.

    ``handle(method, kwargs)`` serves every regular request; exceptions
    it raises are serialized back as typed error replies, never crashes.
    ``on_shutdown(kwargs)`` (optional) runs on the ``shutdown`` request
    and its return value — or its exception, as a typed error reply —
    is the final reply; the loop then exits.  Pipe EOF/closure means
    the master went away — the loop ends quietly.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break   # master went away; nothing left to serve
        request_id, method, kwargs = message
        try:
            if method != "shutdown":
                result = handle(method, kwargs or {})
            elif on_shutdown is not None:
                result = on_shutdown(kwargs or {})
            else:
                result = None
        except Exception as error:
            conn.send((request_id, "error",
                       (type(error).__name__, str(error))))
        else:
            conn.send((request_id, "ok", result))
        if method == "shutdown":
            break
    conn.close()
