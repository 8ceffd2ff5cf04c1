"""Versioned prediction cache for the serving layer.

Sessions repeatedly predict over the same rows (full-table retrievals,
fixed evaluation samples, dashboard refreshes).  The cache holds what
callers ask for — a session's *conjunction* over the subspaces it
answers with, one entry per (session, rows) — because what a
classifier scores in one subspace depends on the session's other
subspaces (:func:`~repro.core.framework.predict_conjunctions`), so no
per-subspace vector exists to memoize.  An answer only changes when one
of those subspaces' models does, so the key is ``(session, ((subspace
names, model-version), ...), rows-digest)``: a new label submission on
any subspace bumps its version and every stale entry simply stops being
reachable, then ages out of the underlying
:class:`~repro.core.memory.LRUStore`.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..core.memory import LRUStore
from ..obs import MetricsRegistry

__all__ = ["PredictionCache", "rows_digest"]


def rows_digest(rows):
    """Stable 128-bit content digest of a prediction input matrix."""
    rows = np.ascontiguousarray(np.asarray(rows, dtype=np.float64))
    h = hashlib.blake2b(rows.tobytes(), digest_size=16)
    h.update(str(rows.shape).encode())
    return h.hexdigest()


class PredictionCache:
    """LRU cache of per-session conjunction answers, versioned per model.

    Value semantics: :meth:`put` stores a private *read-only* copy of the
    array and :meth:`get` returns that frozen copy directly.  Callers may
    hold and read cached vectors indefinitely but cannot mutate them —
    an in-place write raises instead of silently poisoning every later
    cache hit (the manager still copies on the way out of public APIs
    where callers legitimately expect a writable array).

    Hit/miss counts live in a per-instance ``repro.obs`` registry under
    ``serve.cache.prediction.*``; the ``stats`` property and the
    ``hits`` / ``misses`` attributes read through to it.
    """

    def __init__(self, capacity=1024, metrics=None):
        self._store = LRUStore(capacity)
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self._hits = self.metrics.counter("serve.cache.prediction.hits")
        self._misses = self.metrics.counter("serve.cache.prediction.misses")
        self._entries = self.metrics.gauge("serve.cache.prediction.entries")

    @property
    def capacity(self):
        return self._store.capacity

    @property
    def hits(self):
        return self._hits.value

    @hits.setter
    def hits(self, value):
        self._hits.set(value)

    @property
    def misses(self):
        return self._misses.value

    @misses.setter
    def misses(self, value):
        self._misses.set(value)

    @staticmethod
    def key(session_id, models, digest):
        """Cache key from a precomputed :func:`rows_digest`.

        ``models`` iterates the ``(subspace, model_version)`` pairs the
        answer is a conjunction of.  Takes the digest rather than the
        rows so callers scoring the same rows for many sessions hash
        them once, not per session.
        """
        return (session_id,
                tuple((tuple(subspace.names), int(version))
                      for subspace, version in models),
                digest)

    def get(self, key):
        value = self._store.get(key)
        if value is None:
            self._misses.inc()
        else:
            self._hits.inc()
        return value

    def put(self, key, value):
        frozen = np.array(value, copy=True)
        frozen.flags.writeable = False
        self._store.put(key, frozen)
        self._entries.set(len(self._store))

    def invalidate_session(self, session_id):
        """Drop every entry belonging to one session (e.g. on close)."""
        dropped = self._store.evict(lambda key: key[0] == session_id)
        self._entries.set(len(self._store))
        return dropped

    def __len__(self):
        return len(self._store)

    @property
    def stats(self):
        return {"entries": len(self._store), "hits": self.hits,
                "misses": self.misses}

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self):
        """Checkpointable state: counters + entries in LRU order.

        Entries are captured least- to most-recently used, so replaying
        them through :meth:`load_state_dict` reproduces the eviction
        order exactly; values are deep-copied on restore, so a restored
        cache never aliases the snapshot.
        """
        return {
            "capacity": int(self.capacity),
            "hits": int(self.hits),
            "misses": int(self.misses),
            "entries": [
                {"session": session_id,
                 "models": [{"subspace": list(names), "version": version}
                            for names, version in models],
                 "digest": digest, "value": np.asarray(value).copy()}
                for (session_id, models, digest), value
                in self._store.items()
            ],
        }

    def load_state_dict(self, state):
        """Restore :meth:`state_dict` output into this cache in place.

        Entries without ``"models"`` were written when the cache held
        one vector per (session, subspace); nothing asks for those any
        more, so they are skipped and such a checkpoint starts cold
        (its counters still restore).
        """
        self._store = LRUStore(int(state["capacity"]))
        self.hits = int(state["hits"])
        self.misses = int(state["misses"])
        for entry in state["entries"]:
            if "models" not in entry:
                continue
            models = tuple((tuple(m["subspace"]), int(m["version"]))
                           for m in entry["models"])
            self.put((entry["session"], models, entry["digest"]),
                     entry["value"])
        self._entries.set(len(self._store))
