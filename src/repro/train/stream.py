"""Store-streamed encoded meta-task sets (bounded-memory pretraining).

:func:`repro.train.engine.encode_task_sets` normally materializes every
encoded support/query block in memory — ``|TM| x (k_u + k_q)`` encoded
rows per subspace, which is what bounds how large an offline run a
machine can hold.  This module spills those rows into an on-disk
:class:`~repro.store.ChunkStore` *as they are encoded* and serves them
back through :class:`EncodedTaskSet`, a lazy sequence view:

* **writing** streams — each encode block's rows are flattened into
  fixed-width per-task rows ``[v_R | enc_sx | s_y | enc_qx | q_y]`` and
  handed to :meth:`ChunkStore.from_blocks`, which writes each completed
  chunk to disk and drops it from memory, so peak RSS is bounded by the
  encode block / store chunk size regardless of ``|TM|``;
* **reading** is lazy — ``encoded[i]`` gathers one row through the
  store's digest-verified mmap path and reshapes the five task arrays;
  nothing is cached beyond the store's chunk mmaps.

Bit-identity contract: the spilled path feeds ``encode`` the exact same
block matrices as the materialized path (BLAS results depend on operand
shapes), and float64 rows round-trip through ``.npy`` chunks exactly —
so training over an :class:`EncodedTaskSet` produces phi, memories and
optimizer moments bit-identical to training over the materialized list
(``tests/train`` pins this, tracemalloc pins the memory bound).

Every task of a set has one shape (``encode_task_sets`` checks it), so
each task packs into one fixed-width row.
"""

from __future__ import annotations

import numpy as np

from ..store import ChunkStore

__all__ = ["EncodedTaskSet", "spill_encoded_tasks"]


class EncodedTaskSet:
    """Lazy ``encoded[i] -> (v_R, enc_sx, s_y, enc_qx, q_y)`` view.

    Indexable and iterable like the materialized list the training
    engines normally consume; rows live in an on-disk chunk store and
    are gathered (and verified) on access.
    """

    def __init__(self, store, n_tasks, feature_size, support_shape,
                 query_shape):
        self.store = store
        self._n = int(n_tasks)
        self.feature_size = int(feature_size)
        self.support_shape = tuple(int(v) for v in support_shape)
        self.query_shape = tuple(int(v) for v in query_shape)
        sizes = [self.feature_size,
                 self.support_shape[0] * self.support_shape[1],
                 self.support_shape[0],
                 self.query_shape[0] * self.query_shape[1],
                 self.query_shape[0]]
        self._offsets = np.cumsum([0] + sizes)
        if store.n_rows != self._n:
            raise ValueError(
                "encoded-task store holds {} rows but {} tasks were "
                "spilled".format(store.n_rows, self._n))
        if store.n_attributes != int(self._offsets[-1]):
            raise ValueError(
                "encoded-task store rows are {} wide but the task "
                "layout needs {}".format(store.n_attributes,
                                         self._offsets[-1]))

    @property
    def shape_signature(self):
        """The uniform ``(support, query)`` encoded shapes of every task
        (what :meth:`TrainerSchedule._shape_signature` groups on)."""
        return (self.support_shape, self.query_shape)

    def __len__(self):
        return self._n

    def __getitem__(self, index):
        index = int(index)
        if index < 0:
            index += self._n
        if not 0 <= index < self._n:
            raise IndexError("task index {} out of range for {} "
                             "tasks".format(index, self._n))
        row = self.store.take(np.array([index], dtype=np.int64))[0]
        o = self._offsets
        return (np.ascontiguousarray(row[o[0]:o[1]]),
                np.ascontiguousarray(
                    row[o[1]:o[2]]).reshape(self.support_shape),
                np.ascontiguousarray(row[o[2]:o[3]]),
                np.ascontiguousarray(
                    row[o[3]:o[4]]).reshape(self.query_shape),
                np.ascontiguousarray(row[o[4]:o[5]]))

    def __iter__(self):
        for index in range(self._n):
            yield self[index]

    def pretrain_view(self):
        """Lazy per-task ``(v_R, support+query tuples, labels)`` view.

        The streamed replacement for the materialized
        ``TrainerSchedule.pretrain_sets`` cache: each access rebuilds
        the joint-pretraining arrays from one stored row, so an epoch
        touches one task at a time instead of holding all of them.
        """
        return _PretrainView(self)


class _PretrainView:
    """Lazy joint-pretraining projection of an :class:`EncodedTaskSet`."""

    def __init__(self, tasks):
        self._tasks = tasks

    def __len__(self):
        return len(self._tasks)

    def __getitem__(self, index):
        v_r, sx, sy, qx, qy = self._tasks[index]
        return (v_r, np.vstack([sx, qx]),
                np.concatenate([sy, qy]).astype(np.float64))

    def __iter__(self):
        for index in range(len(self)):
            yield self[index]


def spill_encoded_tasks(tasks, encode, rows_per_block, directory):
    """Encode ``tasks`` block-wise, spilling rows into a store at
    ``directory``; returns an :class:`EncodedTaskSet` (an empty list
    for no tasks).  ``tasks`` share one shape (``encode_task_sets``
    checks it).
    """
    from .engine import _iter_encoded_arrays

    if not tasks:
        return []
    state = {}

    def rows():
        # Lockstep consumption: the encode iterator buffers at most one
        # block of raw+encoded rows, and each finished task row is
        # yielded (and flushed to disk by from_blocks) immediately.
        arrays = _iter_encoded_arrays(tasks, encode, rows_per_block)
        for task in tasks:
            enc_sx = next(arrays)
            enc_qx = next(arrays)
            if not state:
                state["feature_size"] = np.asarray(
                    task.feature_vector).size
                state["support_shape"] = enc_sx.shape
                state["query_shape"] = enc_qx.shape
            yield np.concatenate([
                np.asarray(task.feature_vector,
                           dtype=np.float64).ravel(),
                enc_sx.ravel(),
                np.asarray(task.support_y, dtype=np.float64).ravel(),
                enc_qx.ravel(),
                np.asarray(task.query_y, dtype=np.float64).ravel(),
            ])[None, :]

    row_iter = rows()
    first = next(row_iter)
    width = first.shape[1]
    # ~4 MiB float64 chunks: the unit of both disk IO and peak memory.
    chunk_rows = max(1, (4 * 1024 * 1024) // (8 * width))
    store = ChunkStore.from_blocks(
        "encoded-tasks",
        ["c{}".format(i) for i in range(width)],
        _chain_first(first, row_iter),
        chunk_rows=chunk_rows, directory=directory,
        provenance={"kind": "encoded-task-spill",
                    "n_tasks": len(tasks)})
    return EncodedTaskSet(store, len(tasks), state["feature_size"],
                          state["support_shape"], state["query_shape"])


def _chain_first(first, rest):
    yield first
    yield from rest
