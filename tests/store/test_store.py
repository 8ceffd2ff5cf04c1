"""Chunk store core: chunking, gathering, persistence, builders, sampling."""

import os

import numpy as np
import pytest

from repro.data import (build_dataset_store, load_dataset, make_car,
                        stratified_chunk_sample)
from repro.store import DEFAULT_CHUNK_ROWS, ChunkStore

pytestmark = pytest.mark.store


@pytest.fixture(scope="module")
def table():
    return make_car(n_rows=5000, seed=13)


@pytest.fixture(scope="module")
def store(table):
    return table.to_store(chunk_rows=700)


def test_chunking_preserves_rows_and_schema(table, store):
    assert store.n_rows == table.n_rows
    assert store.n_chunks == -(-table.n_rows // 700)
    assert store.attribute_names == table.attribute_names
    assert [a.hint for a in store.attributes] \
        == [a.hint for a in table.attributes]
    assert np.array_equal(store.data, table.data)
    # Chunks are column-contiguous and read-only.
    block = store.chunk(0)
    assert block.flags.f_contiguous
    assert not block.flags.writeable
    with pytest.raises((ValueError, RuntimeError)):
        block[0, 0] = 1.0


def test_zone_maps_are_exact(table, store):
    zone = store.zone_maps
    for ci in range(store.n_chunks):
        lo = int(store.offsets[ci])
        hi = int(store.offsets[ci + 1])
        assert np.array_equal(zone.mins[ci], table.data[lo:hi].min(axis=0))
        assert np.array_equal(zone.maxs[ci], table.data[lo:hi].max(axis=0))
        assert zone.counts[ci] == hi - lo
        assert not zone.has_nan[ci].any()
    glo, ghi = store.column_bounds()
    assert np.array_equal(glo, table.data.min(axis=0))
    assert np.array_equal(ghi, table.data.max(axis=0))


def test_take_matches_fancy_indexing(table, store):
    rng = np.random.default_rng(0)
    idx = rng.choice(table.n_rows, size=800, replace=False)
    assert np.array_equal(store.take(idx), table.data[idx])
    assert np.array_equal(store.take(idx, columns=[3, 0]),
                          table.data[idx][:, [3, 0]])
    assert store.take([]).shape == (0, table.n_attributes)
    with pytest.raises(IndexError):
        store.take([table.n_rows])


def test_sample_rows_bit_identical_to_table(table, store):
    assert np.array_equal(store.sample_rows(250, seed=9),
                          table.sample_rows(250, seed=9))


def test_iter_chunks_projection(table, store):
    rebuilt = np.vstack([block for _, block
                         in store.iter_chunks(columns=[1, 4])])
    assert np.array_equal(rebuilt, table.data[:, [1, 4]])


def test_disk_roundtrip(tmp_path, table, store):
    disk = store.save(str(tmp_path / "car"))
    reopened = ChunkStore.open(str(tmp_path / "car"))
    assert reopened.digest == store.digest
    assert reopened.chunk_rows == store.chunk_rows
    assert reopened.provenance == store.provenance
    assert np.array_equal(reopened.data, table.data)
    # Lazily mapped chunks are read-only memmaps.
    block = ChunkStore.open(str(tmp_path / "car")).chunk(0)
    assert isinstance(block, np.memmap)
    assert np.array_equal(np.asarray(block), table.data[:700])
    assert disk.digest == store.digest


def test_open_rejects_tampered_store(tmp_path, store):
    # Tampered manifest: caught eagerly at open() against the zone maps.
    path = str(tmp_path / "tampered-manifest")
    store.save(path)
    import json
    manifest = json.load(open(os.path.join(path, "store.json")))
    manifest["digest"] = "0" * 32
    json.dump(manifest, open(os.path.join(path, "store.json"), "w"))
    with pytest.raises(ValueError):
        ChunkStore.open(path)

    # Tampered chunk bytes: the manifest/zone-map pair is still
    # self-consistent, so open() succeeds, but the chunk's recorded
    # digest no longer matches its bytes — caught on first access,
    # before a single wrong row is served.
    path = str(tmp_path / "tampered-chunk")
    store.save(path)
    chunk0 = os.path.join(path, "chunk-00000.npy")
    np.save(chunk0, np.load(chunk0) + 1.0)
    reopened = ChunkStore.open(path)
    with pytest.raises(ValueError, match="digest"):
        reopened.chunk(0)
    assert np.array_equal(np.asarray(reopened.chunk(1)),
                          np.asarray(store.chunk(1)))   # others still fine


def test_from_blocks_rechunks_streaming():
    rng = np.random.default_rng(3)
    blocks = [rng.normal(size=(n, 3)) for n in (5, 1, 12, 0, 7)]
    store = ChunkStore.from_blocks("S", ["a", "b", "c"], iter(blocks),
                                   chunk_rows=8)
    full = np.vstack(blocks)
    assert store.n_rows == 25
    assert list(store.zone_maps.counts) == [8, 8, 8, 1]
    assert np.array_equal(store.data, full)


def test_empty_store():
    store = ChunkStore.from_blocks("E", ["a", "b"], [np.zeros((0, 2))])
    assert store.n_rows == 0
    assert store.n_chunks == 0
    assert store.data.shape == (0, 2)
    assert store.take([]).shape == (0, 2)
    assert list(store.iter_chunks()) == []
    assert stratified_chunk_sample(store, 10).shape == (0, 2)


def test_load_dataset_store_backend_bit_identical(tmp_path):
    table = load_dataset("car", n_rows=2000, seed=4)
    store = load_dataset("car", n_rows=2000, seed=4, backend="store",
                         chunk_rows=256)
    assert np.array_equal(store.data, table.data)
    assert store.provenance == table.provenance
    disk = load_dataset("car", n_rows=2000, seed=4, backend="store",
                        chunk_rows=256, directory=str(tmp_path / "d"))
    assert disk.digest == store.digest
    with pytest.raises(ValueError):
        load_dataset("car", backend="parquet")


def test_build_dataset_store_constant_memory_path(tmp_path):
    store = build_dataset_store("sdss", 3000, seed=11, chunk_rows=512,
                                directory=str(tmp_path / "sdss"))
    assert store.n_rows == 3000
    assert store.n_attributes == 8
    assert store.provenance["builder"] == "sdss"
    assert store.provenance["chunked"] is True
    reopened = ChunkStore.open(str(tmp_path / "sdss"))
    assert reopened.digest == store.digest
    assert reopened.provenance == store.provenance
    # Deterministic in (name, n_rows, seed, block_rows).
    again = build_dataset_store("sdss", 3000, seed=11, chunk_rows=512)
    assert again.digest == store.digest
    other = build_dataset_store("sdss", 3000, seed=12, chunk_rows=512)
    assert other.digest != store.digest


def test_stratified_chunk_sample_allocation(store):
    sample = stratified_chunk_sample(store, 777, seed=1)
    assert sample.shape == (777, store.n_attributes)
    assert np.array_equal(sample,
                          stratified_chunk_sample(store, 777, seed=1))
    # Every sampled row is an actual store row.
    data = store.data
    view = {tuple(r) for r in data[:, :2]}
    assert all(tuple(r) in view for r in sample[:, :2])
    # Projection and capping.
    small = stratified_chunk_sample(store, 10 ** 9, columns=[0, 2], seed=2)
    assert small.shape == (store.n_rows, 2)
    # Generator seeds continue one stream.
    rng = np.random.default_rng(5)
    a = stratified_chunk_sample(store, 100, seed=rng)
    b = stratified_chunk_sample(store, 100, seed=rng)
    assert not np.array_equal(a, b)


def test_cluster_by_preserves_rows_and_enables_pruning():
    from repro.geometry import BoxRegion
    from repro.store import ChunkScan

    rng = np.random.default_rng(6)
    data = rng.uniform(0, 100, size=(4000, 3))
    data[rng.choice(4000, size=30, replace=False), 0] = np.nan
    from repro.data.schema import Table
    store = Table("T", ["x", "y", "z"], data).to_store(chunk_rows=128)
    clustered = store.cluster_by("y", bins=16)
    # Same rows as a multiset (order changes — that is the point).
    def sort_rows(a):
        return a[np.lexsort(np.nan_to_num(a, nan=1e18).T)]
    assert clustered.n_rows == store.n_rows
    assert np.array_equal(sort_rows(np.array(clustered.data)),
                          sort_rows(data), equal_nan=True)
    assert clustered.provenance["clustered_by"] == "y"
    # A selective band on the clustered column now prunes most chunks.
    region = BoxRegion([0.0, 40.0, 0.0], [100.0, 45.0, 100.0])
    assert ChunkScan(store, region).chunk_mask().all()
    assert (~ChunkScan(clustered, region).chunk_mask()).sum() \
        > 0.7 * clustered.n_chunks
    assert np.array_equal(
        ChunkScan(clustered, region).row_mask(),
        region.contains(clustered.data))


def test_cluster_by_keeps_nonfinite_rows(tmp_path):
    # +-inf column values collapse banding to the single-bin fallback
    # (no finite range to split) but nothing is silently dropped —
    # the multiset is preserved, with NaN rows in the trailing bucket.
    from repro.data.schema import Table
    data = np.column_stack([
        np.array([1.0, np.inf, -np.inf, np.nan, 2.0, 3.0]),
        np.arange(6, dtype=np.float64)])
    store = Table("NF", ["x", "tag"], data).to_store(chunk_rows=2)
    clustered = store.cluster_by("x", bins=4,
                                 directory=str(tmp_path / "nf"))
    assert clustered.n_rows == 6
    assert np.array_equal(np.sort(np.array(clustered.data[:, 1])),
                          np.arange(6.0))
    tags = clustered.data[:, 1]
    x = clustered.data[:, 0]
    assert np.isnan(x[-1]) and tags[-1] == 3.0      # NaN row last


def test_cluster_by_keeps_exact_maximum_rows():
    # Rows sitting exactly on the global maximum land in the last band
    # (the outer edges are opened to +-inf), never dropped.
    from repro.data.schema import Table
    data = np.column_stack([np.array([0.0, 5.0, 10.0, 10.0]),
                            np.arange(4, dtype=np.float64)])
    store = Table("MX", ["x", "tag"], data).to_store(chunk_rows=2)
    clustered = store.cluster_by("x", bins=4)
    assert clustered.n_rows == 4
    assert np.array_equal(np.sort(np.array(clustered.data[:, 1])),
                          np.arange(4.0))
    assert np.array_equal(clustered.data[-2:, 0], [10.0, 10.0])


def test_store_fit_offline_rejects_nan_columns(store_config):
    from repro.core import LTE
    from repro.data.schema import Table

    rng = np.random.default_rng(1)
    data = rng.uniform(size=(500, 4))
    data[5, 2] = np.nan
    store = Table("N", ["a", "b", "c", "d"], data).to_store(chunk_rows=64)
    assert list(store.column_has_nan()) == [False, False, True, False]
    lte = LTE(store_config)
    with pytest.raises(ValueError, match="NaN"):
        lte.fit_offline(store)


def test_cluster_by_degenerate_column(tmp_path):
    data = np.column_stack([np.full(50, 3.0),
                            np.arange(50, dtype=np.float64)])
    from repro.data.schema import Table
    store = Table("D", ["k", "v"], data).to_store(chunk_rows=8)
    clustered = store.cluster_by("k", directory=str(tmp_path / "c"))
    assert clustered.n_rows == 50
    assert np.array_equal(np.sort(np.array(clustered.data[:, 1])),
                          np.arange(50.0))


def test_default_chunk_rows_round_number():
    assert DEFAULT_CHUNK_ROWS == 65_536
