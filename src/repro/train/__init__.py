"""repro.train — the stacked offline meta-training engine.

The paper's offline phase (Algorithm 2) is the expensive part of LTE —
Fig. 8b measures exactly that — yet every meta-task is tiny and
mutually independent within an Eq. 13 batch, and so are the per-subspace
trainers.  This package runs the offline phase the way
:mod:`repro.serve` already runs the online one: as fused stacked
array programs over the shared substrate in :mod:`repro.nn.batching`.

* :mod:`engine <repro.train.engine>` — the executors, one per job:
  one whole meta-batch (local steps + global query backward) as one
  ``(K, ...)`` program, joint pretraining fused across subspaces — each
  run at K = 1 when there is one task or one subspace.  Bit-identical to
  the task-at-a-time loops kept as the oracle
  ``tests/train/_sequential_oracle.py`` (property-fuzzed in
  ``tests/train``), and factored into retrieval / partition-invariant
  compute / ordered reduction phases, so a large stack's compute
  trains as two halves on two threads (:func:`repro.nn.cores.run_stack`).
* :mod:`offline <repro.train.offline>` — the pooled scheduler:
  :class:`TrainerSchedule` / :class:`OfflineRun` interleave epochs
  round-robin across all meta-subspaces (shape-bucketed fusion) and
  checkpoint cursor + RNG + weights + optimizer moments after every
  epoch, so a killed pretraining run resumes to the identical phi.
* :mod:`stream <repro.train.stream>` — store-streamed encoded task
  sets: :class:`EncodedTaskSet` spills encoded support/query rows into
  an on-disk :class:`~repro.store.ChunkStore` and serves them lazily,
  bounding peak training memory by the chunk size instead of the task
  count (bit-identical to the materialized path).

``MetaTrainer.train`` / ``LTE.fit_offline`` ride this package, in one
process.
"""

from .engine import (MetaBatchSlot, apply_meta_batch,
                     build_meta_batch_inputs, compute_meta_batch,
                     concat_meta_batch_results, encode_task_sets,
                     run_meta_batch_fused, run_pretrain_epoch_pooled)
from .offline import OfflineRun, TrainerSchedule, run_offline_training
from .stream import EncodedTaskSet

__all__ = [
    "TrainerSchedule", "OfflineRun", "run_offline_training",
    "MetaBatchSlot", "run_meta_batch_fused", "encode_task_sets",
    "build_meta_batch_inputs", "compute_meta_batch",
    "concat_meta_batch_results", "apply_meta_batch",
    "run_pretrain_epoch_pooled", "EncodedTaskSet",
]
