"""The store scan answers runs of chunks as blocks and returns what the
chunk-at-a-time loops returned (``_scan_oracle.py``, the old code
verbatim).

``core.framework.scan_conjunctions`` is the one store scan: it validates
the watermarks, asks the zone maps and the prediction cache what each
session still owes, and answers every run of consecutive owed chunks the
same sessions owe as ONE ``predict_conjunctions`` call of at most 8 192
rows.  Pinned here:

* **answers, accounting, marks** — over chunk sizes from 1 to 9 000
  rows, 1–4 sessions of mixed variants and subspace sets holding
  *different* watermarks in one call (none, one from an earlier store
  version, one that is the answer), chunks pruned for some sessions
  inside a run, cache hits on some chunks of a run, an open tail chunk
  and appends between scans: 0/1 answers ``array_equal``,
  ``last_store_scan`` equal key by key, marks equal field by field and
  the prediction cache's hit and miss counts equal, manager and lone
  session alike;
* **mechanism** — by wrapping ``predict_conjunctions`` and
  ``store.chunk``: every call is a run (consecutive owed chunks, all
  owed by exactly the call's sessions), no run exceeds 8 192 rows
  unless it is a single chunk, none stops short of the budget, and a
  scan served from marks makes no call;
* **memory** — scanning 64 chunks of 1 024 rows peaks below scanning the
  same rows as one 65 536-row chunk.

Example counts come from the hypothesis profile (``x10`` in CI's store
lane, registered in ``tests/conftest.py``).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _scan_oracle as oracle
from test_conjunction import drive
from test_predict_oracle_parity import draw_rows
from repro.core import framework
from repro.data.schema import Table
from repro.serve import SessionManager
from repro.shard import ShardGateway
from repro.store import ChunkStore
from repro.store.scan import session_chunk_keep

pytestmark = [pytest.mark.store, pytest.mark.ingest]

BLOCK_ROWS = framework._SCAN_BLOCK_ROWS

#: (variant, label-oracle seed(s), subspaces explored): every variant, as
#: one-, two- and three-subspace conjunctions.  Basic and Meta sessions
#: owe every chunk, a Meta* session only those its hulls' boxes reach —
#: so sessions of one call owe different chunks.
FLEET = [("meta_star", 3, (0, 1)), ("basic", 7, (0, 2)),
         ("meta_star", 4, (0, 1, 2)), ("meta", 6, (1, 2)),
         ("meta_star", 8, (1,)), ("meta_star", (5, None), (0, 1)),
         ("basic", 10, (0, 1, 2)), ("meta_star", 9, (2, 0))]

#: Most rows a store of the fuzz starts with, by chunk size: enough
#: chunks for runs to end at the budget (256, 1 024), at every chunk
#: (5 000, 9 000) or only where the owing sessions change (1, 7).
MOST_ROWS = {1: 40, 7: 350, 256: 10_000, 1024: 11_000, 5000: 10_500,
             9000: 18_500}


@pytest.fixture(scope="module")
def fleet(serve_lte, make_oracle):
    """FLEET on one manager, on its twin restored from a snapshot (the
    oracle's) and on a 2-worker gateway."""
    manager = SessionManager(serve_lte)
    gateway = ShardGateway(serve_lte, n_workers=2)
    ids = [drive(manager, serve_lte, make_oracle, entry, index)
           for index, entry in enumerate(FLEET)]
    gateway_ids = [drive(gateway, serve_lte, make_oracle, entry, index)
                   for index, entry in enumerate(FLEET)]
    manager.flush()
    gateway.flush_all()
    twin = SessionManager.restore(serve_lte, manager.snapshot())
    yield {"lte": serve_lte, "manager": manager, "twin": twin, "ids": ids,
           "gateway": gateway, "gateway_ids": gateway_ids}
    gateway.close()


def make_rows(lte, chunk_rows, n_rows, seed):
    """Rows off the table; about a third of the ``chunk_rows``-aligned
    stretches lie far outside every hull, so their chunks are pruned for
    the Meta* sessions in the middle of what the others owe.  No two
    rows are equal: a store that repeats a (one-row) chunk lets the
    chunk loop find the second in the cache it has just filled, where a
    block scan has looked both up before it evaluates either — the same
    answers, one hit fewer."""
    rows = draw_rows(lte, seed, n_rows)
    rng = np.random.default_rng(seed)
    rows *= 1.0 + 1e-6 * rng.random((n_rows, 1))
    far = rng.random(-(-n_rows // chunk_rows)) < 0.35
    rows[np.repeat(far, chunk_rows)[:n_rows]] *= 50.0
    return rows


class Recorder:
    """Every ``predict_conjunctions`` call of a scan — its ids, its rows
    and the chunks fetched for it — and every cache hit."""

    def __init__(self, monkeypatch, store, cache=None):
        self.calls, self.hits, self._fetched = [], set(), []
        chunk, answer = store.chunk, framework.predict_conjunctions

        def fetch(index):
            self._fetched.append(int(index))
            return chunk(index)

        def predict_conjunctions(conjunctions, project, n_rows, pack_cache):
            self.calls.append((list(conjunctions), n_rows, self._fetched))
            self._fetched = []
            return answer(conjunctions, project, n_rows, pack_cache)

        monkeypatch.setattr(store, "chunk", fetch, raising=False)
        monkeypatch.setattr(framework, "predict_conjunctions",
                            predict_conjunctions)
        if cache is not None:
            get = cache.get

            def recorded_get(key):
                value = get(key)
                if value is not None:
                    self.hits.add((key[0], key[2]))
                return value

            monkeypatch.setattr(cache, "get", recorded_get, raising=False)


def check_runs(recorder, store, owing):
    """The recorded calls are exactly the runs of ``owing`` —
    ``owing[ci]``: the ids that must answer chunk ``ci`` now, in call
    order."""
    counts = store.zone_maps.counts
    covered = []
    for ids, n_rows, chunks in recorder.calls:
        assert chunks == sorted(chunks) and len(set(chunks)) == len(chunks)
        # Every chunk of a call is owed by exactly the call's sessions ...
        for ci in chunks:
            assert owing[ci] == ids
        # ... chunks between them by nobody ...
        for ci in range(chunks[0], chunks[-1]):
            assert ci in chunks or not owing[ci]
        # ... and the block is their rows: within budget, or one chunk.
        assert n_rows == sum(int(counts[ci]) for ci in chunks)
        assert n_rows <= BLOCK_ROWS or len(chunks) == 1
        covered.extend(chunks)
    # Each owed chunk is answered once, in order ...
    assert covered == [ci for ci in range(store.n_chunks) if owing[ci]]
    # ... and no run stops before the budget or a change of sessions.
    for (ids, n_rows, _), (next_ids, _, next_chunks) in zip(
            recorder.calls, recorder.calls[1:]):
        assert ids != next_ids \
            or n_rows + int(counts[next_chunks[0]]) > BLOCK_ROWS


def assert_same_marks(mine, theirs):
    assert mine.keys() == theirs.keys()
    for key in mine:
        assert mine[key].keys() == theirs[key].keys()
        for field, value in mine[key].items():
            if field == "result":
                assert value.dtype == theirs[key][field].dtype == np.int8
                assert np.array_equal(value, theirs[key][field])
            else:
                assert value == theirs[key][field], field


picks = st.lists(st.integers(0, len(FLEET) - 1), min_size=1, max_size=4,
                 unique=True)
seeds = st.integers(0, 2 ** 32 - 1)


@settings(deadline=None)
@given(st.sampled_from(sorted(MOST_ROWS)), st.floats(0.0, 1.0), picks,
       st.integers(2, 4), seeds)
def test_block_scan_returns_what_the_chunk_loop_returned(
        fleet, chunk_rows, fill, pick, n_steps, seed):
    lte, manager, twin = fleet["lte"], fleet["manager"], fleet["twin"]
    pick = [fleet["ids"][i] for i in pick]
    rng = np.random.default_rng(seed)
    most = MOST_ROWS[chunk_rows]
    n_rows = 1 + int(fill * (most - 1))
    rows = make_rows(lte, chunk_rows, n_rows + 3 * chunk_rows + 64, seed)
    store = Table("CAR", lte.table.attributes, rows[:n_rows]) \
        .to_store(chunk_rows=chunk_rows)
    spare = rows[n_rows:]
    for front in (manager, twin):
        front._store_marks.clear()
        for sid in fleet["ids"]:
            front.cache.invalidate_session(sid)
            front.session(sid)._store_marks.clear()
    closed_at = {}       # sid -> (store version, closed chunks) last scanned

    for step in range(n_steps):
        if step and len(spare) and rng.random() < 0.7:
            # An append: less than a chunk (the tail stays open or just
            # closes) or one that opens new chunks.
            take = int(rng.integers(1, min(len(spare), 2 * chunk_rows) + 1))
            store.append_blocks([spare[:take]])
            spare = spare[take:]
        asked = [sid for sid in pick if rng.random() < 0.7] or pick[:1]
        if rng.random() < 0.3:
            # A lost watermark (a restored manager's): the rescan falls
            # back on the per-chunk cache, hits in the middle of runs.
            lost = asked[int(rng.integers(len(asked)))]
            closed_at.pop(lost, None)
            for front in (manager, twin):
                front._store_marks.pop((lost, store.uid), None)
        if rng.random() < 0.3 and store.n_chunks:
            gone = {store.chunk_digest(int(ci)) for ci in rng.integers(
                store.n_chunks, size=1 + store.n_chunks // 3)}
            for front in (manager, twin):
                front.cache._store.evict(lambda key: key[2] in gone)

        first = {sid: 0 for sid in asked}
        for sid in asked:
            if sid in closed_at:
                version, closed = closed_at[sid]
                first[sid] = store.n_chunks \
                    if version == store.store_version else closed
        keeps = {sid: session_chunk_keep(store,
                                         manager.session(sid)._subsessions)
                 for sid in asked}
        lookups = [(front.cache.hits, front.cache.misses)
                   for front in (manager, twin)]
        with pytest.MonkeyPatch.context() as monkeypatch:
            recorder = Recorder(monkeypatch, store, manager.cache)
            got = manager.predict_many_store(asked, store)
        want = oracle.predict_many_store(twin, asked, store)

        assert got.keys() == want.keys()
        for sid in asked:
            assert got[sid].dtype == np.int64
            assert np.array_equal(got[sid], want[sid])
        assert manager.last_store_scan == twin.last_store_scan
        assert_same_marks(manager._store_marks, twin._store_marks)
        mine, theirs = [
            (front.cache.hits - hits, front.cache.misses - misses)
            for front, (hits, misses) in zip((manager, twin), lookups)]
        assert mine == theirs and len(manager.cache) == len(twin.cache)
        check_runs(recorder, store, [
            [sid for sid in asked
             if ci >= first[sid] and keeps[sid][ci]
             and (sid, store.chunk_digest(ci)) not in recorder.hits]
            for ci in range(store.n_chunks)])
        if all(first[sid] == store.n_chunks for sid in asked):
            assert recorder.calls == []     # served from marks
        for sid in asked:
            closed_at[sid] = (store.store_version, store.closed_chunks)

        # A lone session runs the same scan for itself.
        sid = asked[int(rng.integers(len(asked)))]
        session, its_twin = manager.session(sid), twin.session(sid)
        answers = session.predict_store(store)
        assert np.array_equal(answers,
                              oracle.predict_store(its_twin, store))
        assert np.array_equal(answers, got[sid])
        assert session.last_store_scan == its_twin.last_store_scan
        assert_same_marks(session._store_marks, its_twin._store_marks)


# ----------------------------------------------------------------------
# Mechanism, case by case
# ----------------------------------------------------------------------
def scan_recorded(manager, sids, store):
    with pytest.MonkeyPatch.context() as monkeypatch:
        recorder = Recorder(monkeypatch, store)
        answers = manager.predict_many_store(sids, store)
    return recorder.calls, answers


@pytest.fixture()
def fresh(fleet):
    """The fleet's manager without watermarks or cached answers."""
    manager = fleet["manager"]
    manager._store_marks.clear()
    for sid in fleet["ids"]:
        manager.cache.invalidate_session(sid)
    return manager


def test_a_run_ends_at_the_budget_and_a_larger_chunk_is_one_call(
        fleet, fresh):
    sid = fleet["ids"][1]                           # basic: owes it all
    rows = draw_rows(fleet["lte"], 5, 20_000)
    for chunk_rows, blocks in ((1024, [8192, 8192, 3616]),
                               (5000, [5000] * 4),
                               (9000, [9000, 9000, 2000]),
                               (3000, [6000, 6000, 8000])):
        store = Table("CAR", fleet["lte"].table.attributes, rows) \
            .to_store(chunk_rows=chunk_rows)
        fresh.cache.invalidate_session(sid)     # equal tails, equal digests
        calls, _ = scan_recorded(fresh, [sid], store)
        assert [n_rows for _, n_rows, _ in calls] == blocks
        assert fresh.last_store_scan["chunk_evals"] == store.n_chunks


def test_sessions_share_a_call_only_for_chunks_both_owe(fleet, fresh):
    """Chunks 2–3 and 6 lie outside every hull: the Meta* session does
    not owe them, the Basic one does, and its run neither waits for the
    other session nor drags it along."""
    star, basic = fleet["ids"][0], fleet["ids"][1]
    rows = draw_rows(fleet["lte"], 6, 8 * 256)
    for ci in (2, 3, 6):
        rows[ci * 256:(ci + 1) * 256] *= 50.0
    store = Table("CAR", fleet["lte"].table.attributes, rows) \
        .to_store(chunk_rows=256)
    keep = session_chunk_keep(store, fresh.session(star)._subsessions)
    assert list(np.flatnonzero(~keep)) == [2, 3, 6]
    calls, answers = scan_recorded(fresh, [star, basic], store)
    assert [(ids, chunks) for ids, _, chunks in calls] == [
        ([star, basic], [0, 1]), ([basic], [2, 3]),
        ([star, basic], [4, 5]), ([basic], [6]), ([star, basic], [7])]
    assert fresh.last_store_scan["pruned_skipped"] == 3
    # Alone, the Meta* session's run passes over the pruned chunks.
    fresh._store_marks.clear()
    fresh.cache.invalidate_session(star)
    calls, alone = scan_recorded(fresh, [star], store)
    assert [chunks for _, _, chunks in calls] == [[0, 1, 4, 5, 7]]
    assert np.array_equal(alone[star], answers[star])


def test_marks_and_cache_decide_what_a_scan_owes(fleet, fresh):
    first, second = fleet["ids"][1], fleet["ids"][3]
    rows = draw_rows(fleet["lte"], 7, 2000)
    store = Table("CAR", fleet["lte"].table.attributes, rows[:1500]) \
        .to_store(chunk_rows=256)
    scan_recorded(fresh, [first], store)
    # Served from its mark: no call.  Beside a session that owes
    # everything: that session's calls only.
    calls, _ = scan_recorded(fresh, [first], store)
    assert calls == []
    calls, _ = scan_recorded(fresh, [first, second], store)
    assert [(ids, chunks) for ids, _, chunks in calls] == \
        [([second], list(range(store.n_chunks)))]
    # An append reopens the tail: both owe chunks 5–7, as one run.
    store.append_blocks([rows[1500:]])
    calls, _ = scan_recorded(fresh, [first, second], store)
    assert [(ids, chunks) for ids, _, chunks in calls] == \
        [([first, second], [5, 6, 7])]
    # Without its mark a session gets the closed chunks from the cache.
    del fresh._store_marks[(first, store.uid)]
    hits = fresh.cache.hits
    calls, _ = scan_recorded(fresh, [first, second], store)
    assert calls == [] and fresh.cache.hits == hits + store.n_chunks
    assert fresh.last_store_scan["chunk_evals"] == store.n_chunks
    assert fresh.last_store_scan["sessions_served_from_mark"] == 1


def test_session_manager_and_gateway_scan_alike(fleet, fresh, make_oracle):
    lte, gateway = fleet["lte"], fleet["gateway"]
    rows = make_rows(lte, 256, 12_000, 8)
    store = Table("CAR", lte.table.attributes, rows[:9000]) \
        .to_store(chunk_rows=256)
    for round_ in range(2):
        sharded = gateway.predict_many(fleet["gateway_ids"], store)
        for index, (sid, remote) in enumerate(zip(fleet["ids"],
                                                  fleet["gateway_ids"])):
            served = fresh.predict_store(sid, store)
            assert served.dtype == np.int64 and served.shape == (len(store),)
            assert np.array_equal(sharded[remote], served)
            # The same labels on a session of its own.
            alone = lte.start_session(
                variant=FLEET[index][0], seed=index,
                subspaces=list(fresh.session(sid)._subsessions))
            for subspace, subsession in \
                    fresh.session(sid)._subsessions.items():
                alone.submit_labels(subspace, subsession.labels)
            assert np.array_equal(alone.predict_store(store), served)
        store.append_blocks([rows[9000:]])


def test_small_chunks_keep_the_scan_below_one_large_chunk(
        fleet, fresh, tmp_path):
    """Resident memory is bounded by the block, not the store: 64 chunks
    of 1 024 rows on disk are scanned 8 192 rows at a time."""
    lte = fleet["lte"]
    rows = draw_rows(lte, 9, 64 * 1024)
    sids = [fleet["ids"][1], fleet["ids"][0]]       # basic and Meta*
    peaks = []
    for chunk_rows in (1024, 64 * 1024):
        directory = str(tmp_path / "rows-{}".format(chunk_rows))
        Table("CAR", lte.table.attributes, rows) \
            .to_store(chunk_rows=chunk_rows, directory=directory)
        store = ChunkStore.open(directory)
        fresh._store_marks.clear()
        for sid in sids:
            fresh.cache.invalidate_session(sid)
        tracemalloc.start()
        try:
            answers = fresh.predict_many_store(sids, store)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert all(len(answers[sid]) == len(rows) for sid in sids)
    assert peaks[0] < peaks[1]
