"""Streaming ingest: appendable stores, crash safety, drift detection.

The append contract: ``append_blocks`` must be indistinguishable —
rows, zone maps, chunk digests, store digest — from a one-shot
``from_blocks`` build over the concatenated rows, while never touching
the bytes of already-closed chunks.  This file fuzzes that equivalence
over arbitrary split patterns, exercises the crash-safe manifest
commit, the fail-fast corruption checks, the stale-materialization
regressions, the atomic in-place ``cluster_by`` swap and the
zone-map-driven :class:`~repro.store.FreshnessMonitor`.
"""

import json
import os

import numpy as np
import pytest

from repro.store import (ChunkStore, FreshnessMonitor, StoreCorruptedError,
                         StoreReadOnlyError)

pytestmark = pytest.mark.ingest

ATTRS = ["a", "b", "c"]


def make_rows(n, seed=0, nan_frac=0.0):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, len(ATTRS))) * 10.0
    if nan_frac:
        rows[rng.random(rows.shape) < nan_frac] = np.nan
    return rows


def build(rows, chunk_rows=7, directory=None):
    return ChunkStore.from_blocks("T", ATTRS, [rows], chunk_rows=chunk_rows,
                                  directory=directory)


def read_manifest(directory):
    with open(os.path.join(directory, "store.json")) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Append equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("on_disk", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_append_equivalence_fuzz(tmp_path, seed, on_disk):
    """Any split of the rows into appends is bit-identical to one shot."""
    rng = np.random.default_rng(100 + seed)
    total = int(rng.integers(2, 140))
    chunk_rows = int(rng.integers(1, 17))
    rows = make_rows(total, seed=seed, nan_frac=0.1)
    cuts = np.sort(rng.integers(0, total + 1,
                                size=int(rng.integers(1, 6)))).tolist()
    bounds = sorted({0, *cuts, total})
    directory = str(tmp_path / "grown") if on_disk else None

    grown = ChunkStore.from_blocks("T", ATTRS, [rows[:bounds[1]]],
                                   chunk_rows=chunk_rows,
                                   directory=directory)
    for lo, hi in zip(bounds[1:], bounds[2:]):
        batch = rows[lo:hi]
        closed = list(grown.zone_maps.digests[:grown.closed_chunks])
        split = int(rng.integers(0, len(batch) + 1))
        added = grown.append_blocks([batch[:split], batch[split:]])
        assert added == hi - lo
        # Closed chunks are never rewritten: digests stay bit-stable.
        assert list(grown.zone_maps.digests[:len(closed)]) == closed

    one_shot = ChunkStore.from_blocks("T", ATTRS, [rows],
                                      chunk_rows=chunk_rows)
    assert grown.digest == one_shot.digest
    assert grown.n_chunks == one_shot.n_chunks
    assert list(grown.zone_maps.digests) == list(one_shot.zone_maps.digests)
    assert np.array_equal(grown.zone_maps.mins, one_shot.zone_maps.mins,
                          equal_nan=True)
    assert np.array_equal(grown.zone_maps.maxs, one_shot.zone_maps.maxs,
                          equal_nan=True)
    assert np.array_equal(grown.data, rows, equal_nan=True)
    assert grown.store_version == 1 + sum(1 for lo, hi in
                                          zip(bounds[1:], bounds[2:])
                                          if hi > lo)
    if on_disk:
        # A reopened appended store passes full digest verification.
        reopened = ChunkStore.open(directory)
        assert reopened.digest == one_shot.digest
        assert reopened.store_version == grown.store_version
        assert reopened.uid == grown.uid
        for i in range(reopened.n_chunks):      # digest-checked loads
            assert np.array_equal(reopened.chunk(i), grown.chunk(i),
                                  equal_nan=True)


def test_empty_append_is_a_noop():
    store = build(make_rows(20, seed=1))
    version, digest = store.store_version, store.digest
    assert store.append_blocks([]) == 0
    assert store.append_blocks([np.zeros((0, len(ATTRS)))]) == 0
    assert store.store_version == version
    assert store.digest == digest


def test_crash_at_commit_point_preserves_the_old_version(tmp_path,
                                                         monkeypatch):
    """A crash before the store.json rename leaves the prior version
    fully intact — on disk *and* in the appending handle."""
    directory = str(tmp_path / "s")
    store = build(make_rows(40, seed=3), chunk_rows=16,
                  directory=directory)
    version, digest = store.store_version, store.digest

    real_replace = os.replace

    def exploding_replace(src, dst):
        if str(dst).endswith("store.json"):
            raise OSError("simulated crash at the commit point")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", exploding_replace)
    with pytest.raises(OSError, match="simulated crash"):
        store.append_blocks([make_rows(10, seed=4)])
    monkeypatch.undo()

    # The handle rolled back; the failed append left no trace.
    assert store.store_version == version
    assert store.digest == digest
    assert store.n_rows == 40
    reopened = ChunkStore.open(directory)
    assert reopened.store_version == version
    assert reopened.digest == digest
    # A later append (no fault) commits and the directory round-trips.
    assert store.append_blocks([make_rows(10, seed=4)]) == 10
    assert ChunkStore.open(directory).digest == store.digest


def test_v1_layout_is_rejected(tmp_path):
    directory = str(tmp_path / "v1")
    build(make_rows(30, seed=5), chunk_rows=8, directory=directory)
    manifest = read_manifest(directory)
    # Doctor the directory back to the pre-append v1 layout.
    os.rename(os.path.join(directory, manifest.pop("zone_file")),
              os.path.join(directory, "zonemaps.npz"))
    for key in ("uid", "store_version", "chunk_files"):
        manifest.pop(key)
    manifest["format_version"] = 1
    with open(os.path.join(directory, "store.json"), "w") as fh:
        json.dump(manifest, fh)

    with pytest.raises(ValueError,
                       match=r"format version 1; this build reads "
                             r"versions \[2\]"):
        ChunkStore.open(directory)


def test_newer_format_version_is_rejected(tmp_path):
    """A manifest from a later format is refused by name, never read
    as if it were version 2."""
    directory = str(tmp_path / "v3")
    build(make_rows(30, seed=5), chunk_rows=8, directory=directory)
    manifest = read_manifest(directory)
    manifest["format_version"] = 3
    with open(os.path.join(directory, "store.json"), "w") as fh:
        json.dump(manifest, fh)

    with pytest.raises(ValueError,
                       match=r"format version 3; this build reads "
                             r"versions \[2\]"):
        ChunkStore.open(directory)


def test_refresh_adopts_appends_from_another_handle(tmp_path):
    directory = str(tmp_path / "s")
    writer = build(make_rows(50, seed=10), chunk_rows=16,
                   directory=directory)
    reader = ChunkStore.open(directory)
    first = reader.chunk(0)
    writer.append_blocks([make_rows(30, seed=11)])
    assert reader.n_rows == 50                  # not yet refreshed
    reader.refresh()
    assert reader.n_rows == 80
    assert reader.store_version == writer.store_version
    assert reader.digest == writer.digest
    assert reader.chunk(0) is first             # closed-prefix mmap kept
    assert np.array_equal(reader.data, writer.data, equal_nan=True)


def _store_handles(directory):
    """``(open fds, live mappings, deleted mappings)`` of this process
    on files under ``directory``: an fd or mapping of another file (a
    store an earlier test left to the garbage collector, say) is not
    counted, so the reading does not depend on what ran before."""
    prefix = os.path.realpath(directory) + os.sep
    fds = 0
    for name in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(os.path.join("/proc/self/fd", name))
        except OSError:                 # closed since the listing
            continue
        fds += target.startswith(prefix)
    live = deleted = 0
    with open("/proc/self/maps") as fh:
        for line in fh:
            fields = line.split(None, 5)
            path = fields[5].strip() if len(fields) == 6 else ""
            if not path.startswith(prefix):
                continue
            if path.endswith("(deleted)"):
                deleted += 1
            else:
                live += 1
    return fds, live, deleted


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd and /proc/self/maps")
def test_open_append_refresh_loops_leak_no_fd_or_mapping(tmp_path):
    """Each mapped chunk holds one fd.  Over many open → read → append →
    refresh rounds a long-lived reader keeps one mapping per live chunk,
    none of a superseded tail file, and dropping every handle gives all
    of them back."""
    directory = str(tmp_path / "s")
    base_fds, base_maps, _ = _store_handles(directory)
    build(make_rows(50, seed=20), chunk_rows=16, directory=directory)
    reader = ChunkStore.open(directory)
    for i in range(reader.n_chunks):
        reader.chunk(i)
    for loop in range(1, 61):
        store = ChunkStore.open(directory)
        for i in range(store.n_chunks):
            store.chunk(i)
        store.append_blocks([make_rows(5, seed=100 + loop)])
        del store
        reader.refresh()
        for i in range(reader.n_chunks):
            reader.chunk(i)
        if loop % 20 == 0:
            fds, live, deleted = _store_handles(directory)
            assert fds <= base_fds + reader.n_chunks, (loop, fds)
            assert live <= reader.n_chunks, (loop, live)
            assert deleted == 0, loop
    del reader
    assert _store_handles(directory) == (base_fds, base_maps, 0)


# ----------------------------------------------------------------------
# Fail-late corruption (now fail-fast)
# ----------------------------------------------------------------------
@pytest.fixture()
def disk_store(tmp_path):
    return build(make_rows(60, seed=7), chunk_rows=16,
                 directory=str(tmp_path / "s"))


def _chunk_path(store, index=1):
    return os.path.join(store.directory,
                        read_manifest(store.directory)["chunk_files"][index])


def test_deleted_chunk_file_fails_at_open(disk_store):
    os.unlink(_chunk_path(disk_store))
    with pytest.raises(StoreCorruptedError, match="missing"):
        ChunkStore.open(disk_store.directory)


def test_truncated_chunk_file_fails_at_open(disk_store):
    path = _chunk_path(disk_store)
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) - 17)
    with pytest.raises(StoreCorruptedError, match="truncated"):
        ChunkStore.open(disk_store.directory)


def test_bit_flip_fails_at_chunk_load(disk_store):
    path = _chunk_path(disk_store)
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:               # same size: header passes
        fh.seek(size - 9)
        byte = fh.read(1)
        fh.seek(size - 9)
        fh.write(bytes([byte[0] ^ 0xFF]))
    tampered = ChunkStore.open(disk_store.directory)   # headers still fine
    tampered.chunk(0)                                  # intact chunk loads
    with pytest.raises(StoreCorruptedError, match="digest"):
        tampered.chunk(1)


# ----------------------------------------------------------------------
# Stale materialization caches
# ----------------------------------------------------------------------
def test_append_invalidates_data_digest_and_offsets():
    store = build(make_rows(30, seed=12), chunk_rows=8)
    data_before = store.data
    digest_before = store.digest
    offsets_before = store.offsets
    assert len(data_before) == 30 and offsets_before[-1] == 30

    store.append_blocks([make_rows(10, seed=13)])
    # Mutate-after-materialize must never serve stale rows or identity.
    assert store.n_rows == 40
    assert len(store.data) == 40
    assert store.offsets[-1] == 40
    assert store.digest != digest_before
    assert np.array_equal(store.data[:30], data_before, equal_nan=True)


# ----------------------------------------------------------------------
# cluster_by rewrite safety
# ----------------------------------------------------------------------
def _sorted_rows(data):
    data = np.asarray(data)
    return data[np.lexsort(np.nan_to_num(data, nan=1e300).T)]


def test_cluster_by_into_own_directory_swaps_atomically(tmp_path):
    directory = str(tmp_path / "s")
    store = build(make_rows(200, seed=14), chunk_rows=16,
                  directory=directory)
    rows_before = np.array(store.data)
    first = store.chunk(0)

    clustered = store.cluster_by("a", directory=directory)

    # Row content is preserved exactly as a multiset.
    assert np.array_equal(_sorted_rows(clustered.data),
                          _sorted_rows(rows_before), equal_nan=True)
    # The source detached instead of having its files truncated under
    # its mmaps: it still serves its old rows and can never write again.
    assert store.directory is None and store.read_only
    assert np.array_equal(store.chunk(0), first, equal_nan=True)
    with pytest.raises(StoreReadOnlyError, match="cluster_by"):
        store.append_blocks([make_rows(4, seed=15)])
    # The swapped directory holds exactly the manifest-referenced files.
    manifest = read_manifest(directory)
    assert set(os.listdir(directory)) == \
        {"store.json", manifest["zone_file"], *manifest["chunk_files"]}
    assert ChunkStore.open(directory).digest == clustered.digest


def test_detached_source_saves_a_writable_copy(tmp_path):
    """The source that an in-place ``cluster_by`` detached cannot
    append, but ``save()`` copies its rows into a store that can."""
    directory = str(tmp_path / "s")
    store = build(make_rows(60, seed=16), chunk_rows=16,
                  directory=directory)
    rows_before = np.array(store.data)
    store.cluster_by("b", directory=directory)
    assert store.read_only

    copy = store.save(str(tmp_path / "copy"))
    assert not copy.read_only and copy.store_version == 1
    assert np.array_equal(copy.data, rows_before, equal_nan=True)
    assert copy.append_blocks([make_rows(5, seed=17)]) == 5
    reopened = ChunkStore.open(str(tmp_path / "copy"))
    assert reopened.n_rows == 65 and reopened.digest == copy.digest


def test_cluster_rewrite_cleans_stale_tail_files(tmp_path):
    """Rewriting a directory with a *smaller* store (fewer chunks) must
    not leave the old store's tail chunk files behind."""
    directory = str(tmp_path / "s")
    build(make_rows(80, seed=16), chunk_rows=4,
          directory=directory)                      # 20 chunk files
    mem = build(make_rows(80, seed=17), chunk_rows=40)
    clustered = mem.cluster_by("a", directory=directory)   # 2 chunk files
    assert clustered.n_chunks < 20
    manifest = read_manifest(directory)
    assert set(os.listdir(directory)) == \
        {"store.json", manifest["zone_file"], *manifest["chunk_files"]}
    reopened = ChunkStore.open(directory)           # validates
    assert reopened.digest == clustered.digest


# ----------------------------------------------------------------------
# Freshness monitoring off the zone maps
# ----------------------------------------------------------------------
def test_freshness_monitor_flags_range_escape():
    store = build(make_rows(40, seed=18), chunk_rows=8)
    lo, hi = store.column_bounds([0, 1])
    monitor = FreshnessMonitor(threshold=0.2)
    monitor.register("s01", [0, 1], lo, hi)

    assert monitor.observe(store) == {"s01": 0.0}   # fitted data: inside
    assert monitor.drifted() == []

    inside = np.array(store.data[:8])               # a re-ingest: inside
    assert store.append_blocks([inside]) == 8
    scores = monitor.observe(store)
    assert scores["s01"] == 0.0 and monitor.drifted() == []

    escaped = make_rows(8, seed=19)
    escaped[:, 0] = hi[0] + (hi[0] - lo[0])         # a full span outside
    store.append_blocks([escaped])
    scores = monitor.observe(store)
    assert scores["s01"] > 0.9
    assert monitor.drifted() == ["s01"]
    assert monitor.report()["s01"] >= scores["s01"]

    # Re-registering (after a refresh refit the scaler) resets the score.
    new_lo, new_hi = store.column_bounds([0, 1])
    monitor.register("s01", [0, 1], new_lo, new_hi)
    assert monitor.drifted() == []

    # One monitor watches one store.
    with pytest.raises(ValueError, match="bound to store uid"):
        monitor.observe(build(make_rows(10, seed=20)))


def test_freshness_monitor_scores_only_new_chunks():
    store = build(make_rows(40, seed=21), chunk_rows=8)
    lo, hi = store.column_bounds([0])
    monitor = FreshnessMonitor()
    monitor.register("k", [0], lo, hi)
    monitor.observe(store)
    # No appends since the last observe: nothing new to score.
    assert monitor.observe(store) == {}
