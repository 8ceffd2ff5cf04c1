"""repro.shard — multi-process sharded serving for LTE sessions.

The single-process :class:`~repro.serve.SessionManager` fuses many
sessions' adaptation work into batched programs, but it is still one
Python process on one core.  This package is the horizontal scaling
tier above it: a :class:`ShardGateway` front end that

* spawns ``n_workers`` worker processes, each holding a full LTE
  replica warm-started from a shared :mod:`repro.persist` checkpoint
  behind its own :class:`~repro.serve.SessionManager`;
* routes every session deterministically to one worker
  (:func:`home_worker` / :func:`assign_worker`) so a session's online
  state has exactly one home;
* speaks the familiar submit / poll / flush / predict protocol over
  ``multiprocessing`` pipes, with pipelined fan-out for ``flush_all``
  and ``predict_many`` so adaptation and scoring run concurrently
  across cores;
* applies admission control — bounded per-worker pending queues and an
  optional session cap — rejecting overload with a typed
  :class:`Overloaded` instead of growing unbounded state;
* detects worker death promptly (typed :class:`WorkerCrashed`, never a
  hang) and re-routes *new* sessions to survivors;
* rolls model-version broadcasts (:meth:`ShardGateway.publish_model`)
  out worker by worker without dropping sessions, draining each queue
  under the old model before installing the new weights.

Per-worker semantics are exactly the single-process manager's, so
gateway predictions are bit-identical to an unsharded
:class:`~repro.serve.SessionManager` (``tests/shard``).  The end-to-end
benchmark's ``shard_fleet`` workload reads the sessions/sec of two
workers against one in-process manager as ``shard.scaling_x``.

Quickstart (mirrors ``examples/sharded_serving.py``)::

    from repro.shard import ShardGateway

    with ShardGateway(lte, n_workers=4) as gateway:
        sid = gateway.open_session(variant="meta_star")
        for subspace, tuples in gateway.initial_tuples(sid).items():
            gateway.submit_labels(sid, subspace, label(tuples))
        gateway.flush_all()                   # parallel adaptation
        mask = gateway.predict(sid, table.data)
"""

from .errors import Overloaded, ShardError, WorkerCrashed
from .gateway import ShardGateway
from .routing import assign_worker, home_worker
from .worker import worker_main

__all__ = [
    "ShardGateway",
    "ShardError", "Overloaded", "WorkerCrashed",
    "home_worker", "assign_worker",
    "worker_main",
]
