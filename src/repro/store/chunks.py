"""Chunked columnar dataset store with per-chunk zone maps.

The in-memory :class:`~repro.data.schema.Table` materializes every
dataset as one dense float64 matrix — every UIS build, oracle call and
prediction pass scans all rows, and nothing larger than RAM fits at all.
:class:`ChunkStore` is the out-of-core substrate underneath it: a table
split into fixed-size **row chunks**, each chunk held as per-column
contiguous arrays (Fortran-ordered in memory, or a memory-mapped ``.npy``
file on disk) and summarized by a **zone map** — per-attribute min/max,
row count, NaN flags and a content digest.

Zone maps are what make region predicates *skip* data instead of
scanning it: a chunk whose per-column range cannot intersect a region's
conservative bounding box provably contains no member, so the scan
planner (:mod:`repro.store.scan`) drops it without touching its bytes.
Chunk membership is row-independent everywhere in the system (facet
tests, encoders, classifiers), so chunk-at-a-time evaluation is
bit-identical to one full-table pass by construction.

Stores are **appendable** (:meth:`ChunkStore.append_blocks`): appends
extend the mutable tail chunk and add new chunks, while every *closed*
(full) chunk keeps its bytes and digest bit-stable — so per-chunk
digest-keyed memos stay valid across appends.  Each content change bumps
a monotonically increasing ``store_version``; sessions use it (plus the
store's stable ``uid``) as a freshness watermark to scan only chunks
newer than their last answer.

On-disk layout (one directory per store, format version 2)::

    store.json            format + store version, uid, name, attributes,
                          shape, digest, per-chunk filenames, provenance
    zonemaps-vNNNNN.npz   mins / maxs / counts / has_nan / chunk digests
                          (one file per store_version; old ones removed
                          after the manifest commit)
    chunk-NNNNN.npy       one Fortran-ordered float64 array per chunk;
                          a rewritten tail gets a fresh generation name
                          (chunk-NNNNN-vNNNNN.npy), never an in-place
                          truncate-rewrite

Appends are crash-safe: new chunk bytes and the new zone-map file are
written under names no live manifest references, and the single
``os.replace`` of ``store.json`` is the commit point — a crash at any
earlier moment leaves the previous store fully intact.  This build
reads format version 2 only; :meth:`ChunkStore.open` rejects any other
version with a :class:`ValueError` naming it.

Chunks are written streaming (constant memory) and opened lazily via
``np.load(..., mmap_mode="r")``, so peak resident memory is bounded by
the chunk size, never the table size.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import uuid
import warnings

import numpy as np

from ..data.schema import Attribute
from ..obs import default_registry

__all__ = ["DEFAULT_CHUNK_ROWS", "ZoneMaps", "ChunkStore",
           "StoreCorruptedError", "StoreReadOnlyError"]

#: Default rows per chunk: 64Ki rows x 8 float64 columns = 4 MiB.
DEFAULT_CHUNK_ROWS = 65_536

_MANIFEST = "store.json"
_FORMAT_VERSION = 2


class StoreCorruptedError(ValueError):
    """An on-disk store's files do not match its manifest.

    Raised *at open time* for missing, truncated or mis-shaped chunk
    files (fail fast, not deep inside a later serving call) and at chunk
    load time when a file's content digest does not match the zone maps
    (bit rot / tampering).  Subclasses :class:`ValueError` for
    compatibility with callers that caught the untyped error.
    """


class StoreReadOnlyError(RuntimeError):
    """Append to a source store that :meth:`ChunkStore.cluster_by`
    detached from its directory by clustering into that directory."""


def _chunk_digest(block):
    """128-bit content digest of one chunk (column-major bytes + shape)."""
    block = np.asfortranarray(np.asarray(block, dtype=np.float64))
    h = hashlib.blake2b(digest_size=16)
    h.update(str(block.shape).encode())
    h.update(block.tobytes(order="F"))
    return h.hexdigest()


def _zone_stats(block):
    """(mins, maxs, has_nan) for one chunk; all-NaN columns yield NaN."""
    has_nan = np.isnan(block).any(axis=0)
    with warnings.catch_warnings():
        # An all-NaN column is a legal zone ("no finite range"): the
        # planner prunes it against any finite bound, which is correct
        # because a NaN coordinate fails every membership predicate.
        warnings.simplefilter("ignore", RuntimeWarning)
        mins = np.nanmin(block, axis=0)
        maxs = np.nanmax(block, axis=0)
    return mins, maxs, has_nan


class ZoneMaps:
    """Per-chunk pruning statistics for one :class:`ChunkStore`.

    ``mins`` / ``maxs`` are ``(n_chunks, d)`` NaN-ignoring column ranges
    (NaN where a chunk's column holds no finite value), ``counts`` the
    per-chunk row counts, ``has_nan`` the per-column NaN flags and
    ``digests`` the per-chunk content digests (used as stable prediction
    cache keys and hashed into the store digest).
    """

    __slots__ = ("mins", "maxs", "counts", "has_nan", "digests")

    def __init__(self, mins, maxs, counts, has_nan, digests):
        self.mins = np.atleast_2d(np.asarray(mins, dtype=np.float64))
        self.maxs = np.atleast_2d(np.asarray(maxs, dtype=np.float64))
        self.counts = np.asarray(counts, dtype=np.int64).ravel()
        self.has_nan = np.atleast_2d(np.asarray(has_nan, dtype=bool))
        self.digests = [str(d) for d in digests]
        n = len(self.counts)
        if n == 0:
            d = self.mins.shape[1] if self.mins.ndim == 2 else 0
            self.mins = self.mins.reshape(0, d)
            self.maxs = self.maxs.reshape(0, d)
            self.has_nan = self.has_nan.reshape(0, d)
        shapes = {self.mins.shape, self.maxs.shape, self.has_nan.shape}
        if len(shapes) != 1 or len(self.digests) != n:
            raise ValueError("inconsistent zone-map shapes")

    @property
    def n_chunks(self):
        return len(self.counts)

    @property
    def n_rows(self):
        return int(self.counts.sum())

    def column_bounds(self, columns=None):
        """Global NaN-ignoring (lo, hi) over all chunks for ``columns``."""
        mins = self.mins if columns is None else self.mins[:, list(columns)]
        maxs = self.maxs if columns is None else self.maxs[:, list(columns)]
        if len(mins) == 0:
            width = mins.shape[1]
            return (np.full(width, np.nan), np.full(width, np.nan))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return np.nanmin(mins, axis=0), np.nanmax(maxs, axis=0)

    def extended(self, other):
        """A new :class:`ZoneMaps` = these rows followed by ``other``'s."""
        if other.n_chunks == 0:
            return ZoneMaps(self.mins, self.maxs, self.counts,
                            self.has_nan, list(self.digests))
        if self.n_chunks == 0:
            return ZoneMaps(other.mins, other.maxs, other.counts,
                            other.has_nan, list(other.digests))
        return ZoneMaps(
            np.vstack([self.mins, other.mins]),
            np.vstack([self.maxs, other.maxs]),
            np.concatenate([self.counts, other.counts]),
            np.vstack([self.has_nan, other.has_nan]),
            list(self.digests) + list(other.digests))

    def truncated(self, n_chunks):
        """A new :class:`ZoneMaps` keeping only the first ``n_chunks``."""
        n = int(n_chunks)
        zones = ZoneMaps(self.mins[:n], self.maxs[:n], self.counts[:n],
                         self.has_nan[:n], list(self.digests[:n]))
        if n == 0:
            # Preserve the column width through the empty slice.
            d = self.mins.shape[1]
            zones.mins = zones.mins.reshape(0, d)
            zones.maxs = zones.maxs.reshape(0, d)
            zones.has_nan = zones.has_nan.reshape(0, d)
        return zones

    def state(self):
        """npz-serializable array dict (digests as fixed-width unicode)."""
        return {
            "mins": self.mins, "maxs": self.maxs, "counts": self.counts,
            "has_nan": self.has_nan,
            "digests": np.asarray(self.digests, dtype="U32"),
        }

    @classmethod
    def from_state(cls, state):
        return cls(state["mins"], state["maxs"], state["counts"],
                   state["has_nan"], [str(d) for d in state["digests"]])


class _ZoneBuilder:
    """Accumulates zone-map rows chunk by chunk (streaming builds)."""

    def __init__(self, width):
        self.width = int(width)
        self.mins, self.maxs, self.counts = [], [], []
        self.has_nan, self.digests = [], []

    def add(self, block):
        mins, maxs, has_nan = _zone_stats(block)
        self.mins.append(mins)
        self.maxs.append(maxs)
        self.counts.append(len(block))
        self.has_nan.append(has_nan)
        self.digests.append(_chunk_digest(block))

    def build(self):
        if not self.counts:
            empty = np.zeros((0, self.width))
            return ZoneMaps(empty, empty.copy(), np.zeros(0, dtype=np.int64),
                            np.zeros((0, self.width), dtype=bool), [])
        return ZoneMaps(np.vstack(self.mins), np.vstack(self.maxs),
                        np.asarray(self.counts), np.vstack(self.has_nan),
                        self.digests)


def _chunk_filename(index):
    return "chunk-{:05d}.npy".format(index)


def _tail_filename(index, store_version):
    # A rewritten tail chunk gets a generation-stamped name so the commit
    # never truncate-rewrites a file a live manifest (or mmap) references.
    return "chunk-{:05d}-v{:05d}.npy".format(index, store_version)


def _zone_filename(store_version):
    return "zonemaps-v{:05d}.npz".format(store_version)


def _atomic_save(path, array):
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        np.save(fh, array)
    os.replace(tmp, path)


def _freeze(block):
    # Always a private copy: freezing a caller-owned view in place would
    # alias the store to mutable external memory.
    block = np.array(block, dtype=np.float64, order="F", copy=True)
    block.flags.writeable = False
    return block


def _iter_rechunk(blocks, width, chunk_rows):
    """Re-chunk arbitrary row blocks to exactly ``chunk_rows`` rows.

    Yields full chunks as they fill (the final yielded chunk may be
    short); O(chunk_rows) buffered memory.  This is the single chunking
    rule shared by :meth:`ChunkStore.from_blocks` and
    :meth:`ChunkStore.append_blocks`, which is what makes an appended
    store bit-identical to a one-shot build over the same rows.
    """
    buffered, buffered_rows = [], 0
    for block in blocks:
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2 or block.shape[1] != width:
            raise ValueError(
                "block shape {} does not match {} attributes".format(
                    block.shape, width))
        if not len(block):
            continue
        buffered.append(block)
        buffered_rows += len(block)
        while buffered_rows >= chunk_rows:
            merged = buffered[0] if len(buffered) == 1 \
                else np.vstack(buffered)
            yield merged[:chunk_rows]
            rest = merged[chunk_rows:]
            buffered = [rest] if len(rest) else []
            buffered_rows = len(rest)
    if buffered_rows:
        yield buffered[0] if len(buffered) == 1 else np.vstack(buffered)


class ChunkStore:
    """A table split into fixed-size row chunks with zone maps.

    Quacks like :class:`~repro.data.schema.Table` for the metadata the
    framework needs (``attributes`` / ``attribute`` / ``column_index`` /
    ``n_rows`` / ``sample_rows``) while exposing the chunked substrate
    (``iter_chunks`` / ``take`` / ``scan``) the out-of-core paths ride.
    Build one with :meth:`from_table`, :meth:`from_blocks` (streaming,
    constant memory) or :meth:`open` (memory-mapped from disk); grow it
    with :meth:`append_blocks`.
    """

    def __init__(self, name, attributes, chunks, zone_maps, directory=None,
                 chunk_rows=DEFAULT_CHUNK_ROWS, provenance=None,
                 store_version=1, uid=None, files=None):
        self.name = str(name)
        self.attributes = [a if isinstance(a, Attribute) else Attribute(a)
                           for a in attributes]
        self._index = {a.name: i for i, a in enumerate(self.attributes)}
        if len(self._index) != len(self.attributes):
            raise ValueError("duplicate attribute names")
        self.zone_maps = zone_maps
        self.chunk_rows = int(chunk_rows)
        self.directory = directory
        self.provenance = dict(provenance) if provenance else None
        # chunks: per-slot ndarray (in-memory store) or None (lazily
        # memory-mapped from self.directory on first access).
        self._chunks = list(chunks)
        if len(self._chunks) != zone_maps.n_chunks:
            raise ValueError("chunk list does not match zone maps")
        #: Monotonically increasing content version: bumped by every
        #: append (and recorded in the manifest), never by reads.  The
        #: serving layer uses it as a freshness watermark; the
        #: materialization caches below invalidate against it.
        self.store_version = int(store_version)
        #: Stable store identity, preserved across appends and reopens
        #: (unlike ``digest``, which changes with content).  Watermarks
        #: key on ``(uid, store_version)``.
        self.uid = str(uid) if uid else uuid.uuid4().hex
        #: Set once :meth:`cluster_by` has swapped a rewritten store into
        #: this store's directory: the source keeps serving reads from
        #: its resident chunks but can never append again.
        self.read_only = False
        if files is not None:
            self._files = [str(f) for f in files]
        else:
            self._files = [_chunk_filename(i)
                           for i in range(len(self._chunks))]
        if len(self._files) != len(self._chunks):
            raise ValueError("chunk file list does not match zone maps")
        self._zone_name = _zone_filename(self.store_version)
        self._digest = None
        self._data = None
        self._offsets = None
        self._cached_at = self.store_version

    def _check_materialized(self):
        # Stale-cache guard: every cached materialization (_data, _digest,
        # offsets) is valid only for the store_version it was computed at.
        if self._cached_at != self.store_version:
            self._data = None
            self._digest = None
            self._offsets = None
            self._cached_at = self.store_version

    # ------------------------------------------------------------------
    # Table-compatible metadata
    # ------------------------------------------------------------------
    @property
    def offsets(self):
        """Global start row per chunk (``n_chunks + 1`` cumulative sums)."""
        self._check_materialized()
        if self._offsets is None:
            self._offsets = np.concatenate(
                [[0], np.cumsum(self.zone_maps.counts)]).astype(np.int64)
        return self._offsets

    @property
    def n_rows(self):
        return int(self.offsets[-1])

    @property
    def n_attributes(self):
        return len(self.attributes)

    @property
    def n_chunks(self):
        return self.zone_maps.n_chunks

    @property
    def closed_chunks(self):
        """How many leading chunks are full and therefore immutable.

        Only the final chunk can be short; it is the *open tail* that
        future appends rewrite.  Everything before it keeps its bytes and
        digest bit-stable forever — the prefix watermarked serving may
        safely reuse.
        """
        n = self.n_chunks
        if n and int(self.zone_maps.counts[-1]) < self.chunk_rows:
            return n - 1
        return n

    @property
    def attribute_names(self):
        return [a.name for a in self.attributes]

    def column_index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError("no attribute {!r} in store {!r}".format(
                name, self.name)) from None

    def attribute(self, name):
        return self.attributes[self.column_index(name)]

    def __len__(self):
        return self.n_rows

    def __repr__(self):
        return ("ChunkStore({!r}, rows={}, chunks={}, attrs={}, v{}, {})"
                .format(self.name, self.n_rows, self.n_chunks,
                        self.attribute_names, self.store_version,
                        "disk:" + self.directory if self.directory
                        else "memory"))

    # ------------------------------------------------------------------
    # Chunk access
    # ------------------------------------------------------------------
    def chunk(self, index):
        """The ``(rows, d)`` float64 array of one chunk (read-only).

        In-memory chunks are Fortran-ordered frozen arrays; on-disk
        chunks are opened lazily as read-only memory maps, verified
        against the zone map's recorded content digest on first load
        (so a swapped or bit-rotted chunk file raises
        :class:`StoreCorruptedError` instead of silently serving wrong
        rows), and cached.
        """
        block = self._chunks[index]
        if block is None:
            path = os.path.join(self.directory, self._files[index])
            block = np.load(path, mmap_mode="r")
            if _chunk_digest(block) != self.zone_maps.digests[index]:
                raise StoreCorruptedError(
                    "chunk file {!r} does not match the digest recorded "
                    "in the store's zone maps; the file was modified or "
                    "corrupted after the store was written".format(path))
            self._chunks[index] = block
        return block

    def chunk_digest(self, index):
        """Stable content digest of one chunk (cache-key material)."""
        return self.zone_maps.digests[index]

    def iter_chunks(self, columns=None):
        """Yield ``(start_row, block)`` per chunk, optionally projected."""
        columns = None if columns is None else list(columns)
        for i in range(self.n_chunks):
            block = self.chunk(i)
            if columns is not None:
                block = block[:, columns]
            yield int(self.offsets[i]), block

    def take(self, indices, columns=None):
        """Gather rows by global index, preserving the given order.

        Touches only the chunks the indices fall in; the result is
        bit-identical to ``table.data[indices]`` on the same data.
        """
        indices = np.asarray(indices, dtype=np.int64).ravel()
        if indices.size and (indices.min() < 0
                             or indices.max() >= self.n_rows):
            raise IndexError("row index out of range")
        columns = None if columns is None else list(columns)
        width = self.n_attributes if columns is None else len(columns)
        out = np.empty((indices.size, width), dtype=np.float64)
        owner = np.searchsorted(self.offsets, indices, side="right") - 1
        for ci in np.unique(owner):
            sel = owner == ci
            block = self.chunk(ci)
            rows = block[indices[sel] - self.offsets[ci]]
            out[sel] = rows if columns is None else rows[:, columns]
        return out

    def sample_rows(self, n, seed=None):
        """Uniform row sample without replacement (Table-compatible)."""
        from ..data.sampling import random_indices
        return self.take(random_indices(self.n_rows, n, seed=seed))

    def column_bounds(self, columns=None):
        """Exact global NaN-ignoring (lo, hi) straight off the zone maps."""
        return self.zone_maps.column_bounds(columns)

    def column_has_nan(self, columns=None):
        """Per-column NaN presence anywhere in the store, off the zone
        maps (no data pass).  The offline phase fails fast on NaN
        columns instead of fitting NaN scalers/encoders; scans do not
        need it (NaN fails every membership predicate)."""
        flags = self.zone_maps.has_nan if columns is None \
            else self.zone_maps.has_nan[:, list(columns)]
        if len(flags) == 0:
            return np.zeros(flags.shape[1], dtype=bool)
        return flags.any(axis=0)

    def scan(self, region, columns=None, first_chunk=0):
        """A zone-map-pruned :class:`~repro.store.scan.ChunkScan` plan."""
        from .scan import ChunkScan
        return ChunkScan(self, region, columns=columns,
                         first_chunk=first_chunk)

    # ------------------------------------------------------------------
    # Materialization (compatibility escape hatches)
    # ------------------------------------------------------------------
    @property
    def data(self):
        """Materialized ``(n_rows, d)`` matrix, cached per store version.

        Compatibility escape hatch for code written against ``Table``:
        costs O(table) memory, so out-of-core paths must use
        :meth:`iter_chunks` / :meth:`take` instead.  The cache is keyed
        to ``store_version``: an append invalidates it, so reads never
        serve pre-append rows.
        """
        self._check_materialized()
        if self._data is None:
            if self.n_chunks == 0:
                self._data = np.zeros((0, self.n_attributes))
            else:
                self._data = np.ascontiguousarray(
                    np.vstack([self.chunk(i) for i in range(self.n_chunks)]))
            self._data.flags.writeable = False
        return self._data

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def from_blocks(cls, name, attributes, blocks,
                    chunk_rows=DEFAULT_CHUNK_ROWS, directory=None,
                    provenance=None):
        """Build a store from an iterable of row blocks, streaming.

        Blocks are re-chunked to exactly ``chunk_rows`` rows (the last
        chunk may be short).  With ``directory`` every completed chunk is
        written to disk and dropped from memory immediately, so building
        a store of any size needs O(chunk_rows) memory; without it the
        chunks stay in memory (Fortran-ordered, read-only).  Stale chunk
        and zone-map files from a previous store in the same directory
        are removed after the manifest commit.
        """
        chunk_rows = int(chunk_rows)
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        attributes = [a if isinstance(a, Attribute) else Attribute(a)
                      for a in attributes]
        width = len(attributes)
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
        zones = _ZoneBuilder(width)
        chunks, files = [], []
        for block in _iter_rechunk(blocks, width, chunk_rows):
            block = _freeze(block)
            zones.add(block)
            files.append(_chunk_filename(len(chunks)))
            if directory is None:
                chunks.append(block)
            else:
                _atomic_save(os.path.join(directory, files[-1]), block)
                chunks.append(None)

        store = cls(name, attributes, chunks, zones.build(),
                    directory=directory, chunk_rows=chunk_rows,
                    provenance=provenance, files=files)
        if directory is not None:
            store._write_manifest()
            store._remove_stale_files()
        return store

    @classmethod
    def from_table(cls, table, chunk_rows=DEFAULT_CHUNK_ROWS, directory=None,
                   name=None):
        """Chunk an in-memory table, preserving row order exactly."""
        data = table.data

        def blocks():
            for start in range(0, len(data), int(chunk_rows)):
                yield data[start:start + int(chunk_rows)]

        return cls.from_blocks(
            name or table.name, table.attributes, blocks(),
            chunk_rows=chunk_rows, directory=directory,
            provenance=getattr(table, "provenance", None))

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------
    def append_blocks(self, blocks):
        """Append row blocks in place; returns the number of rows added.

        The open tail chunk (if any) is merged with the new rows and
        re-chunked by the same rule as :meth:`from_blocks`, so the
        resulting store is bit-identical — rows, zone maps, chunk
        digests, store digest — to a one-shot build over the concatenated
        rows.  Closed chunks are never touched: their bytes, digests and
        (for disk stores) files stay bit-stable, which keeps scan
        watermarks and digest-keyed hull-decision memos valid across
        appends.

        Each append that adds rows bumps ``store_version``.  On disk the
        commit is crash-safe: the rewritten tail gets a fresh
        generation-stamped filename, the new zone maps a fresh versioned
        filename, and the single rename of ``store.json`` is the commit
        point — a crash anywhere earlier leaves the previous manifest
        pointing at fully intact files.  Concurrent *readers* of the same
        directory should call :meth:`refresh` to adopt the new version;
        concurrent writers are not supported.
        """
        if self.read_only:
            raise StoreReadOnlyError(
                "store {!r} is read-only: cluster_by() rewrote its "
                "directory and detached this source; append to the "
                "store cluster_by() returned".format(self.name))
        t0 = time.perf_counter()
        width = self.n_attributes
        zone = self.zone_maps
        tail_index = None
        tail_rows = None
        if self.n_chunks and int(zone.counts[-1]) < self.chunk_rows:
            tail_index = self.n_chunks - 1
            tail_rows = np.array(self.chunk(tail_index))

        def stream():
            if tail_rows is not None:
                yield tail_rows
            for block in blocks:
                yield block

        base = self.n_chunks if tail_index is None else tail_index
        zones_new = _ZoneBuilder(width)
        staged = []
        for block in _iter_rechunk(stream(), width, self.chunk_rows):
            block = _freeze(block)
            zones_new.add(block)
            staged.append(block)
        staged_rows = sum(len(b) for b in staged)
        appended = staged_rows - (0 if tail_rows is None else len(tail_rows))
        if appended <= 0:
            # Nothing new: bits unchanged, so the version must not move
            # (digest-equal iff version-equal for a fixed uid).
            return 0

        new_version = self.store_version + 1
        files = list(self._files[:base])
        disk = self.directory is not None
        for k, block in enumerate(staged):
            index = base + k
            name = _tail_filename(index, new_version) \
                if index == tail_index else _chunk_filename(index)
            files.append(name)
            if disk:
                _atomic_save(os.path.join(self.directory, name), block)

        rollback = (self.zone_maps, self._files, self._chunks,
                    self.store_version, self._zone_name)
        self.zone_maps = zone.truncated(base).extended(zones_new.build())
        self._files = files
        self._chunks = list(self._chunks[:base]) + \
            ([None] * len(staged) if disk else staged)
        self.store_version = new_version
        try:
            if disk:
                self._write_manifest()
        except BaseException:
            (self.zone_maps, self._files, self._chunks,
             self.store_version, self._zone_name) = rollback
            self._data = None
            self._digest = None
            self._offsets = None
            self._cached_at = self.store_version
            raise
        if disk:
            self._remove_stale_files()
        metrics = default_registry()
        metrics.counter("store.ingest.commits").inc()
        metrics.counter("store.ingest.append.rows").inc(appended)
        metrics.histogram("store.ingest.append.seconds") \
            .observe(time.perf_counter() - t0)
        return appended

    def refresh(self):
        """Adopt appends another handle (or process) committed to disk.

        Re-reads the manifest and zone maps in place, keeping cached
        mmaps for chunks whose digest and filename are unchanged (the
        closed prefix), so a long-lived reader — a shard worker, say —
        catches up with an appended store without re-verifying untouched
        chunks.  No-op for in-memory stores.  Returns ``self``.
        """
        if self.directory is None:
            return self
        fresh = ChunkStore.open(self.directory, validate=False)
        if fresh.uid != self.uid:
            # The directory was swapped wholesale (e.g. an in-place
            # cluster_by): nothing cached carries over.
            chunks = [None] * fresh.n_chunks
        else:
            chunks = []
            for i, d in enumerate(fresh.zone_maps.digests):
                same = (i < len(self._chunks)
                        and self.zone_maps.digests[i] == d
                        and self._files[i] == fresh._files[i])
                chunks.append(self._chunks[i] if same else None)
        self.name = fresh.name
        self.attributes = fresh.attributes
        self._index = fresh._index
        self.zone_maps = fresh.zone_maps
        self.chunk_rows = fresh.chunk_rows
        self.provenance = fresh.provenance
        self._chunks = chunks
        self._files = fresh._files
        self.store_version = fresh.store_version
        self.uid = fresh.uid
        self._zone_name = fresh._zone_name
        self._data = None
        self._digest = None
        self._offsets = None
        self._cached_at = self.store_version
        return self

    def cluster_by(self, column, directory=None, bins=32):
        """Rewrite the store with rows bucketed by one column's value.

        Zone maps only prune when chunks have value locality; a store
        ingested in arbitrary row order has chunks spanning the full
        attribute range and prunes nothing.  This is the streaming
        ``CLUSTER BY``: one pass partitions every chunk's rows into
        ``bins`` equal-width bands of ``column`` (NaN rows in a trailing
        bucket), spilling full bands to disk for disk-backed builds, and
        the bands re-emit in order — O(table) read I/O, O(bins * chunk)
        memory.  Row content is preserved exactly as a multiset
        (non-finite values included; the row *order* changes, which is
        the point): the rewritten chunks carry tight zone ranges on the
        cluster column.

        Clustering **into the store's own directory** is safe: the new
        store is built in a temporary sibling directory and atomically
        swapped in (truncate-rewriting the live ``chunk-NNNNN.npy`` files
        under the source's cached mmaps would be a SIGBUS/garbage hazard,
        and a shrinking chunk count would leave stale tail files).  After
        the swap this source object detaches from the directory (all its
        chunks are already resident from the partition pass) and becomes
        read-only.
        """
        import shutil
        import tempfile

        j = self.column_index(column) if isinstance(column, str) \
            else int(column)
        lo, hi = self.column_bounds([j])
        lo, hi = float(lo[0]), float(hi[0])
        if not np.isfinite(lo) or not np.isfinite(hi) or hi <= lo:
            n_bins = 1
            edges = np.array([-np.inf, np.inf])
        else:
            n_bins = max(1, int(bins))
            edges = np.linspace(lo, hi, n_bins + 1)
            edges[0], edges[-1] = -np.inf, np.inf

        same_dir = (directory is not None and self.directory is not None
                    and os.path.abspath(directory)
                    == os.path.abspath(self.directory))
        build_dir = directory
        parent = None
        if same_dir:
            parent = os.path.dirname(os.path.abspath(directory)) or "."
            build_dir = tempfile.mkdtemp(prefix=".cluster-build-",
                                         dir=parent)

        spill_dir = None
        if self.directory is not None or build_dir is not None:
            if build_dir is not None:
                os.makedirs(build_dir, exist_ok=True)
            spill_dir = tempfile.mkdtemp(prefix=".cluster-spill-",
                                         dir=build_dir)
        buckets = [[] for _ in range(n_bins + 1)]   # pending row blocks
        pending = np.zeros(n_bins + 1, dtype=np.int64)
        spills = [[] for _ in range(n_bins + 1)]    # arrays or npy paths

        def flush(b):
            if not buckets[b]:
                return
            block = buckets[b][0] if len(buckets[b]) == 1 \
                else np.vstack(buckets[b])
            if spill_dir is not None:
                path = os.path.join(spill_dir, "s{:04d}-{:06d}.npy".format(
                    b, len(spills[b])))
                np.save(path, np.ascontiguousarray(block))
                spills[b].append(path)
            else:
                spills[b].append(np.array(block))
            buckets[b].clear()
            pending[b] = 0

        try:
            for _, chunk in self.iter_chunks():
                values = chunk[:, j]
                # Half-open bands; +-inf land in the edge bands (the
                # outer edges are forced to +-inf), NaN in the trailing
                # bucket — every row lands in exactly one bucket.
                band = np.searchsorted(edges, values, side="right") - 1
                band = np.clip(band, 0, n_bins - 1)
                band[np.isnan(values)] = n_bins
                for b in np.unique(band):
                    b = int(b)
                    rows = np.asarray(chunk)[band == b]
                    buckets[b].append(rows)
                    pending[b] += len(rows)
                    if pending[b] >= self.chunk_rows:
                        flush(b)
            for b in range(n_bins + 1):
                flush(b)

            def blocks():
                for per_band in spills:
                    for item in per_band:
                        yield np.load(item) if isinstance(item, str) \
                            else item

            provenance = dict(self.provenance or {})
            provenance["clustered_by"] = self.attributes[j].name
            result = ChunkStore.from_blocks(
                self.name, self.attributes, blocks(),
                chunk_rows=self.chunk_rows, directory=build_dir,
                provenance=provenance)
        finally:
            if spill_dir is not None:
                shutil.rmtree(spill_dir, ignore_errors=True)

        if same_dir:
            target = os.path.abspath(directory)
            trash = tempfile.mkdtemp(prefix=".cluster-old-", dir=parent)
            os.rename(target, os.path.join(trash, "store"))
            os.rename(build_dir, target)
            shutil.rmtree(trash, ignore_errors=True)
            # This source object no longer owns a directory: every chunk
            # is resident (the partition pass loaded them all), so it
            # keeps serving reads, but it can never write again.
            self.directory = None
            self.read_only = True
            result = ChunkStore.open(target)
        return result

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    @property
    def digest(self):
        """Deterministic store digest over schema + per-chunk digests.

        Cheap (no data re-read): each chunk digest was computed in the
        single pass that built its zone map, so two stores digest equal
        iff they hold the same attributes and the same chunked bytes —
        the identity :mod:`repro.persist` fingerprints checkpoints with.
        Identity metadata (``uid``, ``store_version``, filenames) is
        deliberately excluded: an appended store digests equal to a
        one-shot build over the same rows.
        """
        self._check_materialized()
        if self._digest is None:
            h = hashlib.blake2b(digest_size=16)
            for a in self.attributes:
                h.update(a.name.encode())
                h.update(a.hint.encode())
            h.update(str((self.n_rows, self.chunk_rows)).encode())
            for d in self.zone_maps.digests:
                h.update(d.encode())
            self._digest = h.hexdigest()
        return self._digest

    def _write_manifest(self):
        zone_name = _zone_filename(self.store_version)
        manifest = {
            "format_version": _FORMAT_VERSION,
            "name": self.name,
            "attributes": [{"name": a.name, "hint": a.hint}
                           for a in self.attributes],
            "n_rows": self.n_rows,
            "n_chunks": self.n_chunks,
            "chunk_rows": self.chunk_rows,
            "digest": self.digest,
            "provenance": self.provenance,
            "store_version": self.store_version,
            "uid": self.uid,
            "zone_file": zone_name,
            "chunk_files": list(self._files),
        }
        # The new zone maps go to a version-stamped file no existing
        # manifest references; the manifest rename below is the single
        # commit point that switches both atomically.
        zones_tmp = os.path.join(self.directory, zone_name + ".tmp")
        with open(zones_tmp, "wb") as fh:
            np.savez(fh, **self.zone_maps.state())
        os.replace(zones_tmp, os.path.join(self.directory, zone_name))
        manifest_tmp = os.path.join(self.directory, _MANIFEST + ".tmp")
        with open(manifest_tmp, "w") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
        os.replace(manifest_tmp, os.path.join(self.directory, _MANIFEST))
        self._zone_name = zone_name

    def _remove_stale_files(self):
        """Best-effort cleanup of store files no longer referenced.

        Run only *after* a manifest commit: removes superseded tail
        chunks, old zone-map versions, leftover ``.tmp`` files and chunk
        files from a previous (larger) store in the same directory.
        """
        keep = set(self._files)
        keep.add(self._zone_name)
        for entry in os.listdir(self.directory):
            if entry in keep or entry == _MANIFEST:
                continue
            stale = ((entry.startswith("chunk-") and entry.endswith(".npy"))
                     or (entry.startswith("zonemaps")
                         and entry.endswith(".npz"))
                     or entry.endswith(".tmp"))
            if not stale:
                continue
            path = os.path.join(self.directory, entry)
            if not os.path.isfile(path):
                continue
            try:
                os.unlink(path)
            except OSError:
                pass

    def save(self, directory):
        """Write this store to ``directory``; returns the on-disk store.

        Materializes a compacted copy (fresh uid, ``store_version`` 1)
        of the current rows; saving to the store's own directory returns
        the store itself.
        """
        if self.directory is not None \
                and os.path.abspath(self.directory) \
                == os.path.abspath(directory):
            return self
        return ChunkStore.from_blocks(
            self.name, self.attributes,
            (block for _, block in self.iter_chunks()),
            chunk_rows=self.chunk_rows, directory=directory,
            provenance=self.provenance)

    def validate_files(self):
        """Fail fast if any chunk file is missing, truncated or reshaped.

        Reads only each file's npy header (O(n_chunks) small reads, no
        data pass) and checks the promised shape/dtype against the zone
        maps and the promised byte count against the file size.  Content
        bit-flips that preserve the size are still caught later, by the
        digest check on first :meth:`chunk` load.
        """
        if self.directory is None:
            return
        width = self.n_attributes
        for i, name in enumerate(self._files):
            path = os.path.join(self.directory, name)
            rows = int(self.zone_maps.counts[i])
            if not os.path.isfile(path):
                raise StoreCorruptedError(
                    "chunk file {!r} is missing; the store directory was "
                    "modified after the manifest was written".format(path))
            try:
                with open(path, "rb") as fh:
                    version = np.lib.format.read_magic(fh)
                    if version == (1, 0):
                        shape, _, dtype = \
                            np.lib.format.read_array_header_1_0(fh)
                    elif version == (2, 0):
                        shape, _, dtype = \
                            np.lib.format.read_array_header_2_0(fh)
                    else:
                        raise StoreCorruptedError(
                            "chunk file {!r} uses unsupported npy format "
                            "{!r}".format(path, version))
                    data_start = fh.tell()
            except StoreCorruptedError:
                raise
            except Exception as error:
                raise StoreCorruptedError(
                    "chunk file {!r} has an unreadable npy header "
                    "({})".format(path, error)) from None
            if shape != (rows, width) or dtype != np.dtype(np.float64):
                raise StoreCorruptedError(
                    "chunk file {!r} holds shape {} dtype {} but the zone "
                    "maps record a ({}, {}) float64 chunk".format(
                        path, shape, dtype, rows, width))
            expected = data_start + int(np.prod(shape)) * dtype.itemsize
            actual = os.path.getsize(path)
            if actual != expected:
                raise StoreCorruptedError(
                    "chunk file {!r} is {} bytes but its header promises "
                    "{}; the file is truncated or padded".format(
                        path, actual, expected))

    @classmethod
    def open(cls, directory, validate=True):
        """Open an on-disk store; chunks memory-map lazily on access.

        Only format-version-2 stores open (appendable); any other version
        raises :class:`ValueError` naming it.  With ``validate``
        (the default) every chunk file's presence, shape and byte size is
        checked up front — a damaged directory raises
        :class:`StoreCorruptedError` here instead of deep inside a later
        serving call.
        """
        manifest_path = os.path.join(directory, _MANIFEST)
        if not os.path.isfile(manifest_path):
            raise FileNotFoundError(
                "no chunk store at {!r}: {} is missing".format(
                    directory, _MANIFEST))
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        version = manifest.get("format_version")
        if version != _FORMAT_VERSION:
            raise ValueError(
                "store at {!r} uses format version {!r}; this build reads "
                "versions {}".format(directory, version, [_FORMAT_VERSION]))
        zone_name = manifest["zone_file"]
        zone_path = os.path.join(directory, zone_name)
        if not os.path.isfile(zone_path):
            raise StoreCorruptedError(
                "store at {!r} is missing its zone-map file {!r}".format(
                    directory, zone_name))
        with np.load(zone_path, allow_pickle=False) as npz:
            zones = ZoneMaps.from_state({k: npz[k] for k in npz.files})
        attributes = [Attribute(e["name"], hint=e["hint"])
                      for e in manifest["attributes"]]
        files = manifest["chunk_files"]
        if len(files) != zones.n_chunks:
            raise StoreCorruptedError(
                "store at {!r} lists {} chunk files for {} chunks".format(
                    directory, len(files), zones.n_chunks))
        store = cls(manifest["name"], attributes,
                    [None] * zones.n_chunks, zones, directory=directory,
                    chunk_rows=manifest["chunk_rows"],
                    provenance=manifest.get("provenance"),
                    store_version=manifest["store_version"],
                    uid=manifest["uid"], files=files)
        store._zone_name = zone_name
        if store.digest != manifest.get("digest"):
            raise StoreCorruptedError(
                "store at {!r} fails its digest check (manifest says {}, "
                "zone maps hash to {}); the directory was modified or "
                "partially written".format(directory, manifest.get("digest"),
                                           store.digest))
        if validate:
            store.validate_files()
        return store
