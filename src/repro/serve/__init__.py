"""repro.serve — batched multi-session serving for Learn-to-Explore.

The online phase of LTE is the product: a user labels a handful of tuples
per subspace and the pretrained meta-learner adapts in sub-second time.
This package serves that loop for *many users at once* over one shared
:class:`~repro.core.framework.LTE`: label submissions from all sessions
queue up, one fused array program adapts every pending (session,
subspace) task in stacked batches, and predictions — each session's
conjunction over its subspaces, rows encoded only where a classifier
will read them — are computed for all sessions of a call at once.  The
adaptation hot path is
:func:`~repro.core.framework.run_adapt_requests` (re-exported here with
:class:`~repro.nn.BatchedUISClassifier`), the one executor a lone
:class:`~repro.core.framework.ExplorationSession` also runs — as a
stack of one — so batched sessions are bit-compatible with sessions
driven on their own; the parity suite in ``tests/serve`` holds for all
three variants (``basic``, ``meta``, ``meta_star``).

Quickstart (mirrors ``examples/concurrent_sessions.py``)::

    from repro.core import LTE, LTEConfig
    from repro.data import make_sdss
    from repro.serve import SessionManager

    table = make_sdss(n_rows=10_000, seed=7)
    lte = LTE(LTEConfig(n_tasks=40)).fit_offline(table)

    manager = SessionManager(lte)
    sids = [manager.open_session(variant="meta_star") for _ in users]
    for sid, user in zip(sids, users):
        for subspace, tuples in manager.initial_tuples(sid).items():
            manager.submit_labels(sid, subspace, user.label(tuples))

    manager.flush()          # ONE fused adaptation for every session
    for sid in sids:
        interesting = manager.retrieve(sid, limit=100)

Modules
-------
``manager``
    :class:`SessionManager` — session lifecycle, the submit/poll/flush
    queue, batched prediction and watermarked store scans.

The manager keeps only what spans sessions — the queue, session ids,
attributed flush errors, the compiled-hull pack cache and the metrics;
everything else a session serves from, its store-scan watermarks
included, is the :class:`~repro.core.framework.ExplorationSession`'s
own.  The engine survives restarts: :meth:`SessionManager.snapshot` /
:meth:`SessionManager.restore` capture the sessions' states and the
pending queue, and :mod:`repro.persist` writes them to disk — a
restored manager serves bit-identically, watermarks and all
(``tests/persist``).
"""

from ..core.framework import run_adapt_requests
from ..nn.batching import BatchedUISClassifier
from .manager import SessionManager

__all__ = ["SessionManager", "BatchedUISClassifier", "run_adapt_requests"]
