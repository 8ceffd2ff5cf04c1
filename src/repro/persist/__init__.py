"""repro.persist — versioned checkpoint/restore across every layer.

A production serving system (ROADMAP north star) must survive process
restarts, ship pretrained artifacts between machines and shard sessions
across workers.  This package is the one serialization subsystem behind
all of that: dependency-free checkpoints (``arrays.npz`` + a JSON
manifest carrying a schema version and a content digest) spanning

* ``repro.nn``    — ``state_dict``/``load_state_dict`` on modules,
  parameters and optimizers (Adam step counts + moment buffers);
* ``repro.core``  — :func:`save_pretrained`/:func:`load_pretrained`
  for a fitted LTE's meta-learners, :class:`FewShotOptimizer` region
  capture with shared hull interning, resumable
  :class:`ExplorationSession` state;
* ``repro.serve`` — :meth:`SessionManager.snapshot`/``restore`` covering
  pending queues, per-session model versions and store-scan watermarks,
  so a restored manager serves bit-identical predictions without
  re-adaptation or a full rescan.

Round trips are exact: ``load(save(x))`` reproduces arrays, dtypes and
step counts bit-for-bit (``tests/persist/test_roundtrip.py``), and a
manager restored mid-workload continues indistinguishably from an
uninterrupted run (``tests/persist/test_resume_parity.py``).  Corrupt or
incompatible checkpoints raise a typed :class:`CheckpointError` — never
a silent wrong-weights load.

Quickstart (mirrors ``examples/checkpoint_restore.py``)::

    from repro import persist

    persist.save_pretrained("artifacts/lte", lte)     # ship this
    persist.save_manager("artifacts/serving", manager)

    # ... new process ...
    lte = LTE(config).fit_offline(table, train=False) # cheap prep
    persist.load_pretrained("artifacts/lte", lte)     # instant weights
    manager = persist.load_manager("artifacts/serving", lte)

A small CLI wraps the same paths: ``python -m repro.persist
{save,load,inspect}``.
"""

from .checkpoint import (SCHEMA_VERSION, CheckpointError, inspect_checkpoint,
                         load_checkpoint, save_checkpoint)
from .state import (dataset_provenance, load_manager, load_pretrain_run,
                    load_pretrained, load_session, model_fingerprint,
                    save_manager, save_pretrain_run, save_pretrained,
                    save_session)

__all__ = [
    "CheckpointError", "SCHEMA_VERSION",
    "save_checkpoint", "load_checkpoint", "inspect_checkpoint",
    "save_pretrained", "load_pretrained",
    "save_pretrain_run", "load_pretrain_run",
    "save_session", "load_session",
    "save_manager", "load_manager",
    "dataset_provenance", "model_fingerprint",
]
