"""The store scan answers runs of chunks as blocks and returns what the
chunk-at-a-time loops returned (``_scan_oracle.py``, the old code
verbatim).

``core.framework.scan_conjunctions`` is the one store scan: it validates
the watermarks, asks the zone maps what each session still owes, and
answers every run of consecutive owed chunks the
same sessions owe as ONE ``predict_conjunctions`` call of at most 8 192
rows.  Pinned here:

* **answers, accounting, marks** — over chunk sizes from 1 to 9 000
  rows, 1–4 sessions of mixed variants and subspace sets holding
  *different* watermarks in one call (none, one from an earlier store
  version, one that is the answer, one lost and rescanned), chunks
  pruned for some sessions inside a run, an open tail chunk and appends
  between scans: 0/1 answers ``array_equal``, ``last_store_scan`` equal
  key by key and marks equal field by field, manager and lone session
  alike;
* **mechanism** — by wrapping ``predict_conjunctions`` and
  ``store.chunk``: every call is a run (consecutive owed chunks, all
  owed by exactly the call's sessions), no run exceeds 8 192 rows
  unless it is a single chunk, none stops short of the budget, and a
  scan served from marks makes no call;
* **memory** — scanning 64 chunks of 1 024 rows peaks below scanning the
  same rows as one 65 536-row chunk;
* **memoized hull decisions** — each few-shot optimizer keeps what its
  hulls settle per chunk digest, so a rescan after a label round runs
  only the classifiers.  Over runs grouped differently between scans
  (a session joins, sessions owe different chunks), appended and
  ``cluster_by``-rewritten stores, ``refresh_drifted``, re-initialized
  sessions, NaN and ±inf rows, chunks of unequal size, a 1-D subspace
  and evictions under a patched cap, the answers of a scan that recalls
  equal those of one that recomputes (fresh memos capped at 0 rows) and
  ``_predict_oracle.py``'s, through a lone session, a manager and a
  2-worker gateway; the memo counters show the recall happened, and no
  checkpoint, snapshot or pickle carries a memo.

Example counts come from the hypothesis profile (``x10`` in CI's store
lane, registered in ``tests/conftest.py``).
"""

import copy
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _predict_oracle as predict_oracle
import _scan_oracle as oracle
from test_conjunction import drive
from test_predict_oracle_parity import draw_rows, forget_marks, labels_for
from repro.core import framework
from repro.core import optimizer as optimizer_module
from repro.core.optimizer import FewShotOptimizer
from repro.data.schema import Table
from repro.obs import default_registry
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
    rows are equal, so no two (one-row) chunks share a digest and the
    hull memos recall nothing a scan has not seen before."""
    rows = draw_rows(lte, seed, n_rows)
    rng = np.random.default_rng(seed)
    rows *= 1.0 + 1e-6 * rng.random((n_rows, 1))
    far = rng.random(-(-n_rows // chunk_rows)) < 0.35
    rows[np.repeat(far, chunk_rows)[:n_rows]] *= 50.0
    return rows


class Recorder:
    """Every ``predict_conjunctions`` call of a scan — its ids, its rows
    and the chunks fetched for it."""

    def __init__(self, monkeypatch, store):
        self.calls, self._fetched = [], []
        chunk, answer = store.chunk, framework.predict_conjunctions

        def fetch(index):
            self._fetched.append(int(index))
            return chunk(index)

        def predict_conjunctions(conjunctions, project, n_rows, pack_cache,
                                 spans=None):
            self.calls.append((list(conjunctions), n_rows, self._fetched))
            self._fetched = []
            return answer(conjunctions, project, n_rows, pack_cache,
                          spans=spans)

        monkeypatch.setattr(store, "chunk", fetch, raising=False)
        monkeypatch.setattr(framework, "predict_conjunctions",
                            predict_conjunctions)


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
        forget_marks(front, fleet["ids"])
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
            # A lost watermark (a restored manager's): the session
            # rescans its closed chunks.
            lost = asked[int(rng.integers(len(asked)))]
            closed_at.pop(lost, None)
            for front in (manager, twin):
                front.session(lost)._store_marks.pop(store.uid, None)

        first = {sid: 0 for sid in asked}
        for sid in asked:
            if sid in closed_at:
                version, closed = closed_at[sid]
                first[sid] = store.n_chunks \
                    if version == store.store_version else closed
        keeps = {sid: session_chunk_keep(store,
                                         manager.session(sid)._subsessions)
                 for sid in asked}
        with pytest.MonkeyPatch.context() as monkeypatch:
            recorder = Recorder(monkeypatch, store)
            got = manager.predict_many_store(asked, store)
        want = oracle.predict_many_store(twin, asked, store)

        assert got.keys() == want.keys()
        for sid in asked:
            assert got[sid].dtype == np.int64
            assert np.array_equal(got[sid], want[sid])
        assert manager.last_store_scan == twin.last_store_scan
        for sid in fleet["ids"]:
            assert_same_marks(manager.session(sid)._store_marks,
                              twin.session(sid)._store_marks)
        check_runs(recorder, store, [
            [sid for sid in asked if ci >= first[sid] and keeps[sid][ci]]
            for ci in range(store.n_chunks)])
        if all(first[sid] == store.n_chunks for sid in asked):
            assert recorder.calls == []     # served from marks
        for sid in asked:
            closed_at[sid] = (store.store_version, store.closed_chunks)

        # A lone session runs the same scan for itself, over the mark
        # the managed scans left it: the answer (asked now), an earlier
        # version's (asked before) or none (never asked, or dropped).
        sid = pick[int(rng.integers(len(pick)))]
        session, its_twin = manager.session(sid), twin.session(sid)
        if rng.random() < 0.3:
            for one in (session, its_twin):
                one._store_marks.pop(store.uid, None)
        answers = session.predict_store(store)
        assert np.array_equal(answers,
                              oracle.predict_store(its_twin, store))
        if sid in got:
            assert np.array_equal(answers, got[sid])
        assert session.last_store_scan == its_twin.last_store_scan
        assert_same_marks(session._store_marks, its_twin._store_marks)
        closed_at[sid] = (store.store_version, store.closed_chunks)


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
    """The fleet's manager without watermarks."""
    manager = fleet["manager"]
    forget_marks(manager, fleet["ids"])
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
    forget_marks(fresh, [star])
    calls, alone = scan_recorded(fresh, [star], store)
    assert [chunks for _, _, chunks in calls] == [[0, 1, 4, 5, 7]]
    assert np.array_equal(alone[star], answers[star])


def test_marks_decide_what_a_scan_owes(fleet, fresh):
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
    # Without its mark a session rescans every chunk, the other none.
    del fresh.session(first)._store_marks[store.uid]
    calls, _ = scan_recorded(fresh, [first, second], store)
    assert [(ids, chunks) for ids, _, chunks in calls] == \
        [([first], list(range(store.n_chunks)))]
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
        forget_marks(fresh, sids)
        tracemalloc.start()
        try:
            answers = fresh.predict_many_store(sids, store)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert all(len(answers[sid]) == len(rows) for sid in sids)
    assert peaks[0] < peaks[1]


# ----------------------------------------------------------------------
# Memoized hull decisions
# ----------------------------------------------------------------------
MEMO = ("core.optimizer.memo.hits", "core.optimizer.memo.misses")


def memo_counts():
    return tuple(default_registry().value(name) for name in MEMO)


def settling(manager, sid):
    """The session's optimizers that have a subregion to settle with."""
    return [subsession.optimizer
            for subsession in manager.session(sid)._subsessions.values()
            if optimizer_module._settles(subsession.optimizer)]


def store_rows(store):
    return np.concatenate([store.chunk(ci) for ci in range(store.n_chunks)])


def oracle_answers(sessions, rows):
    """``_predict_oracle``'s answers; a row with a non-finite coordinate
    in a subspace a session explores is in no region, so 0."""
    out = []
    for session in sessions:
        columns = sorted({column for subspace in session._subsessions
                          for column in subspace.columns})
        live = np.isfinite(rows[:, columns]).all(axis=1)
        answers = np.zeros(len(rows), dtype=np.int64)
        if live.any():
            answers[live] = predict_oracle.predict_session(session,
                                                           rows[live])
        out.append(answers)
    return out


def recomputed(manager, sids, store):
    """The sessions' answers from a scan that recalls nothing: every
    optimizer on a fresh memo, capped at 0 rows so it stays empty."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(optimizer_module, "_MEMO_ROWS", 0)
        for sid in sids:
            for optimizer in settling(manager, sid):
                monkeypatch.setattr(optimizer, "_memo",
                                    optimizer_module._DecisionMemo())
        forget_marks(manager, sids)
        hits = memo_counts()[0]
        answers = manager.predict_many_store(sids, store)
        assert memo_counts()[0] == hits             # nothing recalled
    return answers


def scan_and_check(manager, sids, store):
    """Scan ``store`` for ``sids`` after forgetting what they were
    answered; the answers equal a recomputing scan's, the oracle's and
    a lone session's.  Returns ``(hits, misses, engine calls)`` of the
    scan."""
    forget_marks(manager, sids)
    engine, union_masks = [], optimizer_module.union_masks
    before = memo_counts()
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(
            optimizer_module, "union_masks",
            lambda *args, **kwargs: engine.append(1)
            or union_masks(*args, **kwargs))
        got = manager.predict_many_store(sids, store)
    hits, misses = (after - was for after, was in zip(memo_counts(), before))
    lone = manager.session(sids[0]).predict_store(store)
    off = recomputed(manager, sids, store)
    want = oracle_answers([manager.session(sid) for sid in sids],
                          store_rows(store))
    assert np.array_equal(lone, got[sids[0]])
    for sid, expected in zip(sids, want):
        assert got[sid].dtype == np.int64
        assert np.array_equal(got[sid], off[sid])
        assert np.array_equal(got[sid], expected)
    return hits, misses, len(engine)


def owed(manager, sid, store):
    """Chunks the session owes a scan that has forgotten its answers."""
    return int(session_chunk_keep(
        store, manager.session(sid)._subsessions).sum())


def label_round(manager, sids, subspace_index=0):
    """One iterative round on a subspace of every session: re-adapts the
    classifier, keeps the optimizer."""
    for sid in sids:
        subsessions = manager.session(sid)._subsessions
        subspace = list(subsessions)[subspace_index % len(subsessions)]
        state = subsessions[subspace].state
        manager.add_labels(sid, subspace, state.to_raw(state.data[40:43]),
                           np.array([1, 0, 1]))
    manager.flush()


def with_non_finite(rows, seed):
    rows = rows.copy()
    rng = np.random.default_rng(seed)
    picked = rng.integers(len(rows), size=max(1, len(rows) // 50))
    rows[picked, rng.integers(rows.shape[1], size=len(picked))] = \
        rng.choice([np.nan, np.inf, -np.inf], size=len(picked))
    return rows


def store_of(lte, rows, chunk_rows):
    return Table("CAR", lte.table.attributes, rows) \
        .to_store(chunk_rows=chunk_rows)


@pytest.fixture(scope="module")
def memo_fleet(serve_lte, make_oracle):
    """FLEET on a manager of its own, over a copy of the model that
    ``refresh_drifted`` may change."""
    lte = copy.deepcopy(serve_lte)
    manager = SessionManager(lte)
    ids = [drive(manager, lte, make_oracle, entry, index)
           for index, entry in enumerate(FLEET)]
    manager.flush()
    assert all(settling(manager, sid) for sid in (ids[0], ids[2]))
    return {"lte": lte, "manager": manager, "ids": ids,
            "make_oracle": make_oracle}


#: Most rows a memo fuzz store starts with, by chunk size; none of the
#: sizes is a multiple of 8, so chunks end inside a packed byte.
MEMO_ROWS = {1: 30, 7: 300, 37: 1500, 300: 3000, 1001: 5000}


@settings(deadline=None)
@given(st.sampled_from(sorted(MEMO_ROWS)), st.floats(0.0, 1.0), picks,
       st.integers(2, 4), seeds)
def test_memoized_decisions_answer_like_recomputed_ones(
        memo_fleet, chunk_rows, fill, pick, n_steps, seed):
    """Between scans a session may join or leave, the store may grow
    (the open tail's digest changes), a label round may outdate every
    answer and the cap may force evictions; every scan answers like a
    scan that recalls nothing, and like the oracle."""
    lte, manager = memo_fleet["lte"], memo_fleet["manager"]
    pick = [memo_fleet["ids"][i] for i in pick]
    rng = np.random.default_rng(seed)
    n_rows = 1 + int(fill * (MEMO_ROWS[chunk_rows] - 1))
    rows = with_non_finite(make_rows(lte, chunk_rows, n_rows + 2 * chunk_rows
                                     + 16, seed), seed)
    store = store_of(lte, rows[:n_rows], chunk_rows)
    spare = rows[n_rows:]
    for _ in range(n_steps):
        if len(spare) and rng.random() < 0.5:
            take = int(rng.integers(1, len(spare) + 1))
            store.append_blocks([spare[:take]])
            spare = spare[take:]
        if rng.random() < 0.3:
            label_round(manager, pick[:1 + int(rng.integers(len(pick)))],
                        int(rng.integers(3)))
        asked = [sid for sid in pick if rng.random() < 0.7] or pick[:1]
        with pytest.MonkeyPatch.context() as monkeypatch:
            if rng.random() < 0.3:
                monkeypatch.setattr(optimizer_module, "_MEMO_ROWS",
                                    int(rng.integers(1, 3 * chunk_rows)))
            scan_and_check(manager, asked, store)


def test_memo_recalls_chunks_of_runs_grouped_differently(memo_fleet):
    """A Meta* session scanned alone is one run of the chunks its hulls
    reach; beside a Basic session, which owes the chunks it does not,
    and a joining Meta* session its chunks fall into other runs — and
    every one of them is recalled, while the newcomer's are computed."""
    lte, manager, ids = (memo_fleet[key] for key in ("lte", "manager",
                                                      "ids"))
    star, basic, joining = ids[0], ids[1], ids[2]
    rows = draw_rows(lte, 11, 8 * 37 + 5)
    for ci in (2, 3, 6):
        rows[ci * 37:(ci + 1) * 37] *= 50.0
    store = store_of(lte, rows, 37)
    assert owed(manager, star, store) == 6
    for optimizer in settling(manager, star) + settling(manager, joining):
        optimizer._memo = optimizer_module._DecisionMemo()
    hits, misses, calls = scan_and_check(manager, [star], store)
    assert (hits, misses) == (0, 6 * len(settling(manager, star)))
    assert calls == len(settling(manager, star))    # one run, 2 subspaces
    hits, misses, calls = scan_and_check(manager, [star, basic, joining],
                                         store)
    assert hits == 6 * len(settling(manager, star))
    assert misses == owed(manager, joining, store) * \
        len(settling(manager, joining))


def test_memo_rescan_after_a_label_round_skips_the_hulls(memo_fleet):
    """After a label round the sessions owe every chunk again, with the
    same optimizers: the rescan recalls every chunk·optimizer and never
    asks the engine."""
    lte, manager, ids = (memo_fleet[key] for key in ("lte", "manager",
                                                      "ids"))
    sids = [ids[0], ids[2], ids[1]]
    store = store_of(lte, with_non_finite(draw_rows(lte, 12, 3000), 12),
                     256)
    scan_and_check(manager, sids, store)
    versions = [manager.session(sid)._subsessions[subspace].model_version
                for sid in sids
                for subspace in manager.session(sid)._subsessions]
    optimizers = [settling(manager, sid) for sid in sids]
    label_round(manager, sids)
    assert [settling(manager, sid) for sid in sids] == optimizers
    assert versions != [
        manager.session(sid)._subsessions[subspace].model_version
        for sid in sids for subspace in manager.session(sid)._subsessions]
    hits, misses, calls = scan_and_check(manager, sids, store)
    assert misses == 0 and calls == 0
    assert hits == sum(owed(manager, sid, store) * len(settling(manager, sid))
                       for sid in sids)


def test_memo_over_appended_and_clustered_stores(memo_fleet):
    """An append rewrites the open tail (a new digest) and adds chunks:
    those are computed, the closed chunks recalled.  ``cluster_by``
    reorders every row into new chunks: all are computed."""
    lte, manager, ids = (memo_fleet[key] for key in ("lte", "manager",
                                                      "ids"))
    sids = [ids[2], ids[0]]
    rows = draw_rows(lte, 13, 2300)
    store = store_of(lte, rows[:1700], 300)      # five closed, a tail of 200
    scan_and_check(manager, sids, store)
    store.append_blocks([rows[1700:]])           # tail closes, one more
    per_chunk = sum(len(settling(manager, sid)) for sid in sids)
    hits, misses, _ = scan_and_check(manager, sids, store)
    assert (hits, misses) == (5 * per_chunk, 3 * per_chunk)
    clustered = store.cluster_by(0, bins=4)
    assert not set(clustered.zone_maps.digests) & set(store.zone_maps.digests)
    hits, misses, _ = scan_and_check(manager, sids, clustered)
    assert hits == 0 and misses > 0


def test_memo_across_refresh_drifted(memo_fleet):
    """``refresh_drifted`` replaces a subspace's state: sessions opened
    before it keep their state, optimizer and memo; a session opened
    after it fits a new optimizer over the new state and computes."""
    lte, manager, ids = (memo_fleet[key] for key in ("lte", "manager",
                                                      "ids"))
    old = ids[0]
    subspaces = list(lte.states)
    store = store_of(lte, lte.table.data[:1200], 256)
    monitor = lte.freshness_monitor(threshold=0.2)
    monitor.observe(store)
    drifting = lte.table.data[1200:1600].copy()
    columns = list(subspaces[1].columns)
    drifting[:, columns] = drifting[:, columns] * 4.0 + 100.0
    store.append_blocks([drifting])
    monitor.observe(store)
    assert monitor.drifted() == [subspaces[1]]
    scan_and_check(manager, [old], store)
    state = lte.states[subspaces[1]]
    assert lte.refresh_drifted(store, monitor) == [subspaces[1]]
    assert lte.states[subspaces[1]] is not state
    new = drive(manager, lte, memo_fleet["make_oracle"],
                ("meta_star", 3, (0, 1)), 40)
    manager.flush()
    assert manager.session(new)._subsessions[subspaces[1]].state \
        is lte.states[subspaces[1]]
    assert manager.session(old)._subsessions[subspaces[1]].state is state
    hits, misses, _ = scan_and_check(manager, [old, new], store)
    assert hits == owed(manager, old, store) * len(settling(manager, old))
    assert misses == owed(manager, new, store) * len(settling(manager, new))


def test_a_reinitialized_session_starts_a_fresh_memo(memo_fleet):
    """New initial labels build a new optimizer (new hulls): nothing the
    old one memoized is recalled.  Refitting an optimizer in place drops
    its memo too."""
    lte, manager = memo_fleet["lte"], memo_fleet["manager"]
    make_oracle = memo_fleet["make_oracle"]
    sid = drive(manager, lte, make_oracle, ("meta_star", 3, (0, 1)), 41)
    manager.flush()
    store = store_of(lte, draw_rows(lte, 16, 1500), 300)
    scan_and_check(manager, [sid], store)
    before = settling(manager, sid)
    for position, (subspace, tuples) in enumerate(
            manager.initial_tuples(sid).items()):
        manager.submit_labels(sid, subspace, labels_for(
            make_oracle, lte, 8, subspace, tuples, position))
    manager.flush()
    after = settling(manager, sid)
    assert after and not {id(o) for o in before} & {id(o) for o in after}
    hits, misses, _ = scan_and_check(manager, [sid], store)
    assert hits == 0
    assert misses == owed(manager, sid, store) * len(after)

    subspace, subsession = next(iter(
        manager.session(sid)._subsessions.items()))
    optimizer = subsession.optimizer
    spans = [(store.chunk_digest(ci), int(store.offsets[ci]),
              int(store.offsets[ci + 1])) for ci in range(store.n_chunks)]
    scaled = subsession.state.to_scaled(subspace.project(store_rows(store)))
    assert len(optimizer._memo._entries) == store.n_chunks
    (was, _), = FewShotOptimizer.decide_batch([optimizer], scaled)
    center_bits = np.zeros(optimizer.summary.ks, dtype=np.int64)
    center_bits[::3] = 1
    optimizer.fit(center_bits)
    assert len(optimizer._memo._entries) == 0
    recalled, = FewShotOptimizer.decide_batch([optimizer], scaled,
                                              spans=spans)
    computed, = FewShotOptimizer.decide_batch([optimizer], scaled)
    assert not np.array_equal(computed[0], was)
    for got, want in zip(recalled, computed):
        assert np.array_equal(got, want)


def test_evictions_keep_the_memo_under_its_cap(memo_fleet, monkeypatch):
    """Capped at 250 rows, a memo over 100-row chunks holds the two
    chunks it saw last; a chunk past the cap is never memoized."""
    lte, manager, ids = (memo_fleet[key] for key in ("lte", "manager",
                                                      "ids"))
    sid = ids[0]
    store = store_of(lte, draw_rows(lte, 17, 600), 100)
    optimizers = settling(manager, sid)
    for optimizer in optimizers:
        monkeypatch.setattr(optimizer, "_memo",
                            optimizer_module._DecisionMemo())
    monkeypatch.setattr(optimizer_module, "_MEMO_ROWS", 250)

    def scan():
        forget_marks(manager, [sid])
        before = memo_counts()
        manager.predict_many_store([sid], store)
        return tuple(after - was
                     for after, was in zip(memo_counts(), before))

    assert scan() == (0, 6 * len(optimizers))
    for optimizer in optimizers:
        assert set(optimizer._memo._entries) == \
            {store.chunk_digest(4), store.chunk_digest(5)}
        assert optimizer._memo._rows == 200
    assert scan() == (2 * len(optimizers), 4 * len(optimizers))
    for optimizer in optimizers:
        assert set(optimizer._memo._entries) == \
            {store.chunk_digest(2), store.chunk_digest(3)}
    scan_and_check(manager, [sid], store)
    monkeypatch.setattr(optimizer_module, "_MEMO_ROWS", 99)
    for optimizer in optimizers:
        optimizer._memo = optimizer_module._DecisionMemo()
    scan_and_check(manager, [sid], store)
    assert all(len(optimizer._memo._entries) == 0 for optimizer in optimizers)


def test_small_caller_blocks_keep_the_memo_under_its_entry_cap(
        memo_fleet, monkeypatch):
    """One-row caller blocks are an entry each.  Capped at 8 entries, a
    memo holding a store's 4 chunks keeps them through 4 distinct
    blocks between rescans (the older blocks go first), and holds 8
    entries however many blocks it is asked."""
    lte, manager, ids = (memo_fleet[key] for key in ("lte", "manager",
                                                      "ids"))
    sid = ids[0]
    store = store_of(lte, draw_rows(lte, 31, 400), 100)
    optimizers = settling(manager, sid)
    for optimizer in optimizers:
        monkeypatch.setattr(optimizer, "_memo",
                            optimizer_module._DecisionMemo())
    monkeypatch.setattr(optimizer_module, "_MEMO_ENTRIES", 8)
    chunks = {store.chunk_digest(ci) for ci in range(store.n_chunks)}

    def scan():
        forget_marks(manager, [sid])
        before = memo_counts()
        manager.predict_many_store([sid], store)
        return tuple(after - was
                     for after, was in zip(memo_counts(), before))

    def ask(rows):
        want = predict_oracle.predict_many([manager.session(sid)], rows)[0]
        assert np.array_equal(manager.predict_many([sid], rows)[sid], want)

    assert scan() == (0, 4 * len(optimizers))
    rows = draw_rows(lte, 32, 36)
    for block in range(4):
        for row in rows[4 * block:4 * block + 4]:
            ask(row[None])
        for optimizer in optimizers:
            assert len(optimizer._memo._entries) == 8
            assert chunks <= set(optimizer._memo._entries)
        assert scan() == (4 * len(optimizers), 0)
    for row in rows[16:]:
        ask(row[None])
    for optimizer in optimizers:
        memo = optimizer._memo
        assert len(memo._entries) == 8
        assert memo._rows == sum(n for n, _ in memo._entries.values()) == 8


def test_the_gateway_scans_from_its_workers_memos(fleet, serve_lte,
                                                  make_oracle):
    """Sessions on a 2-worker gateway and their twins on a manager: a
    cold scan, a label round, a rescan the workers answer from their
    memos — equal answers on both fronts, and the oracle's."""
    gateway = fleet["gateway"]
    manager = SessionManager(serve_lte)
    entries = [FLEET[0], FLEET[2], FLEET[5], FLEET[1]]
    remote = [drive(gateway, serve_lte, make_oracle, entry, 60 + index)
              for index, entry in enumerate(entries)]
    local = [drive(manager, serve_lte, make_oracle, entry, 60 + index)
             for index, entry in enumerate(entries)]
    gateway.flush_all()
    manager.flush()
    store = store_of(serve_lte, with_non_finite(draw_rows(serve_lte, 18,
                                                          2000), 18), 129)

    def fleet_counts():
        merged = gateway.metrics()["merged"]
        return tuple(merged.get(name, {"value": 0})["value"]
                     for name in MEMO)

    for round_ in range(2):
        before = fleet_counts()
        sharded = gateway.predict_many(remote, store)
        hits, misses = (after - was
                        for after, was in zip(fleet_counts(), before))
        scan_and_check(manager, local, store)
        served = manager.predict_many_store(local, store)
        for mine, theirs in zip(local, remote):
            assert np.array_equal(sharded[theirs], served[mine])
        if round_:
            assert hits > 0 and misses == 0
        else:
            assert hits == 0 and misses > 0
        for mine, theirs in zip(local, remote):
            subspace = list(manager.session(mine)._subsessions)[0]
            state = serve_lte.states[subspace]
            for front, sid in ((manager, mine), (gateway, theirs)):
                front.add_labels(sid, subspace,
                                 state.to_raw(state.data[40:43]),
                                 np.array([1, 0, 1]))
        gateway.flush_all()
        manager.flush()


def test_the_memo_is_neither_checkpointed_nor_pickled(memo_fleet):
    """On a manager of its own: the fleet's may hold sessions adapted
    before ``refresh_drifted``, whose snapshot is refused
    (``tests/persist/test_classifier_checkpoints.py``)."""
    lte = memo_fleet["lte"]
    manager = SessionManager(lte)
    sid = drive(manager, lte, memo_fleet["make_oracle"], FLEET[0], 50)
    manager.flush()
    store = store_of(lte, draw_rows(lte, 19, 900), 300)
    scan_and_check(manager, [sid], store)
    optimizer = settling(manager, sid)[0]
    assert set(store.zone_maps.digests) <= set(optimizer._memo._entries)
    assert set(optimizer.state_dict()) == {"n_sup", "n_sub", "outer",
                                           "inner", "hulls"}
    for clone in (pickle.loads(pickle.dumps(optimizer)),
                  copy.deepcopy(optimizer)):
        assert not clone._memo._entries
        assert clone._memo is not optimizer._memo
        assert clone.state_dict().keys() == optimizer.state_dict().keys()

    def walk(value):
        assert not isinstance(value, (optimizer_module._DecisionMemo,
                                      FewShotOptimizer))
        if isinstance(value, dict):
            assert not any("memo" in str(key) for key in value)
            for item in value.values():
                walk(item)
        elif isinstance(value, (list, tuple)):
            for item in value:
                walk(item)

    snapshot = manager.snapshot()
    walk(snapshot)
    restored = SessionManager.restore(lte, snapshot)
    assert all(len(o._memo._entries) == 0 for o in settling(restored, sid))


def test_memo_with_a_one_dimensional_subspace_in_the_scan(serve_lte,
                                                          make_oracle):
    """car has five attributes, so ``random_decomposition`` ends in a 1-D
    subspace.  Meta* sessions over all three subspaces answer a store as
    they answer its rows in memory, and as a cold rescan does — before
    and after a label round on the 1-D subspace, memo missed and
    recalled."""
    subspaces = list(serve_lte.states)
    assert [len(subspace.columns) for subspace in subspaces] == [2, 2, 1]
    manager = SessionManager(serve_lte)
    sids = [drive(manager, serve_lte, make_oracle,
                  ("meta_star", seed, (0, 1, 2)), 80 + index)
            for index, seed in enumerate((4, 9, 13, 3))]
    manager.flush()
    lines = [manager.session(sid)._subsessions[subspaces[2]].optimizer
             for sid in sids]
    assert any(optimizer_module._settles(line) for line in lines)
    rows = make_rows(serve_lte, 97, 3000, 20)
    rows[::41, subspaces[2].columns[0]] = np.nan
    store = store_of(serve_lte, rows, 97)
    for round_ in range(2):
        hits, misses, _ = scan_and_check(manager, sids, store)
        if round_:
            assert hits > 0 and misses == 0
        else:
            assert hits == 0 and misses > 0
        scanned = manager.predict_many_store(sids, store)
        in_memory = manager.predict_many(sids, rows)
        restored = SessionManager.restore(serve_lte, manager.snapshot())
        forget_marks(restored, sids)
        cold = restored.predict_many_store(sids, store)
        for sid in sids:
            assert np.array_equal(scanned[sid], in_memory[sid])
            assert np.array_equal(scanned[sid], cold[sid])
        label_round(manager, sids, subspace_index=2)


def test_memo_shared_by_threads_stays_consistent(memo_fleet, monkeypatch):
    """Six threads decide the same chunks through one optimizer, under a
    cap that evicts on every call and a short switch interval: every
    decision equals the computed one, and the memo's row count is the
    sum of its entries' and within the cap."""
    import sys
    import threading

    lte, manager, ids = (memo_fleet[key] for key in ("lte", "manager",
                                                      "ids"))
    subspace, subsession = next(iter(
        manager.session(ids[0])._subsessions.items()))
    optimizer = subsession.optimizer
    monkeypatch.setattr(optimizer, "_memo", optimizer_module._DecisionMemo())
    monkeypatch.setattr(optimizer_module, "_MEMO_ROWS", 200)
    store = store_of(lte, draw_rows(lte, 21, 12 * 53), 53)
    scaled = subsession.state.to_scaled(subspace.project(store_rows(store)))
    spans = [(store.chunk_digest(ci), int(store.offsets[ci]),
              int(store.offsets[ci + 1])) for ci in range(store.n_chunks)]
    want = FewShotOptimizer.decide_batch([optimizer], scaled)[0]
    failures = []

    def work(seed):
        rng = np.random.default_rng(seed)
        try:
            for _ in range(40):
                first = int(rng.integers(len(spans)))
                last = int(rng.integers(first, len(spans))) + 1
                lo, hi = spans[first][1], spans[last - 1][2]
                (inner, open_rows), = FewShotOptimizer.decide_batch(
                    [optimizer], scaled[lo:hi],
                    spans=[(digest, start - lo, stop - lo)
                           for digest, start, stop in spans[first:last]])
                assert np.array_equal(inner, want[0][lo:hi])
                assert np.array_equal(open_rows + lo, want[1][
                    (want[1] >= lo) & (want[1] < hi)])
        except Exception as error:         # reported by the main thread
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[0]
    memo = optimizer._memo
    assert memo._rows == sum(rows for rows, _ in memo._entries.values())
    assert memo._rows <= 200


# ----------------------------------------------------------------------
# Caller rows: a block of rows that is no stored chunk is one memo span,
# keyed by a digest of each subspace's projection of it.
# ----------------------------------------------------------------------
def caller_lookups(manager, sids, rows):
    """``(hits, misses)`` a ``predict_many`` of ``rows`` for ``sids``
    should count, read off the memos before it: one lookup per session
    and settling optimizer, a hit when its memo holds the digest of its
    subspace's projection of the rows."""
    hits = misses = 0
    for sid in sids:
        for subspace, subsession in \
                manager.session(sid)._subsessions.items():
            optimizer = subsession.optimizer
            if not optimizer_module._settles(optimizer):
                continue
            spans = optimizer_module.caller_spans(
                subspace, subspace.project(rows), [optimizer])
            if spans is None:
                continue
            if spans[0][0] in optimizer._memo._entries:
                hits += 1
            else:
                misses += 1
    return hits, misses


def swap_subspaces(rows, first, second):
    """``rows`` with the columns of two subspaces of one width swapped:
    each one's projection is the other's bytes."""
    rows = rows.copy()
    a, b = list(first.columns), list(second.columns)
    rows[:, a], rows[:, b] = rows[:, b].copy(), rows[:, a].copy()
    return rows


def answers_everywhere(fleet, pick, rows):
    """The fleet's answers for ``pick`` from the manager (counting its
    memo lookups), a recall-free manager call, each session alone, the
    restored twin and the gateway — all checked equal to the predict
    oracle.  Returns the manager's ``(hits, misses)``."""
    manager, twin = fleet["manager"], fleet["twin"]
    sids = [fleet["ids"][i] for i in pick]
    want = predict_oracle.predict_many([manager.session(sid) for sid in sids],
                                       rows)
    expected = caller_lookups(manager, sids, rows)
    before = memo_counts()
    got = manager.predict_many(sids, rows)
    counted = tuple(after - was for after, was in zip(memo_counts(), before))
    assert counted == expected
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(optimizer_module, "_MEMO_ROWS", 0)
        was = memo_counts()
        off = manager.predict_many(sids, rows)
        assert memo_counts() == was                 # no span, no lookup
    remote = fleet["gateway"].predict_many(
        [fleet["gateway_ids"][i] for i in pick], rows)
    restored = twin.predict_many(sids, rows)
    for i, sid, expected_answers in zip(pick, sids, want):
        for answers in (got[sid], off[sid], restored[sid],
                        remote[fleet["gateway_ids"][i]],
                        manager.session(sid).predict(rows)):
            assert answers.dtype == np.int64
            assert np.array_equal(answers, expected_answers)
    return counted


CALLER_STEPS = ("repeat", "change", "reorder", "swap")


@settings(deadline=None)
@given(picks, st.integers(2, 600),
       st.lists(st.sampled_from(CALLER_STEPS), min_size=1, max_size=5),
       seeds)
def test_memoized_caller_rows_answer_like_recomputed_ones(
        fleet, pick, n_rows, steps, seed):
    """Caller rows asked again are recalled, rows with one value changed
    or in another order are not, and a block whose projection on one
    subspace is another subspace's earlier bytes recalls nothing of that
    subspace: a manager, its sessions alone, its restored twin and a
    2-worker gateway answer like a manager that recalls nothing, and
    like the predict oracle."""
    lte = fleet["lte"]
    rng = np.random.default_rng(seed)
    subspaces = list(lte.states)
    rows = draw_rows(lte, seed, n_rows)
    answers_everywhere(fleet, pick, rows)
    for step in steps:
        if step == "change":
            column = int(rng.integers(rows.shape[1]))
            rows = rows.copy()
            rows[int(rng.integers(n_rows)), column] += 1.0
        elif step == "reorder":
            rows = np.roll(rows, 1, axis=0)
        elif step == "swap":
            rows = swap_subspaces(rows, subspaces[0], subspaces[1])
        hits, misses = answers_everywhere(fleet, pick, rows)
        if step == "repeat":
            assert misses == 0


def test_memo_recalls_no_caller_rows_of_another_subspace(fleet):
    """Equal bytes through another subspace's columns are another key:
    after a block is answered, the same block with two subspaces'
    columns swapped misses in both (neither optimizer has seen its new
    projection), and swapped back it hits in both."""
    lte, manager = fleet["lte"], fleet["manager"]
    first, second = list(lte.states)[:2]
    sid = fleet["ids"][0]                   # Meta* over subspaces 0 and 1
    optimizers = [manager.session(sid)._subsessions[s].optimizer
                  for s in (first, second)]
    assert all(map(optimizer_module._settles, optimizers))
    rows = draw_rows(lte, 23, 300)
    swapped = swap_subspaces(rows, first, second)
    assert optimizer_module.caller_spans(
        second, second.project(swapped), optimizers) != \
        optimizer_module.caller_spans(first, first.project(rows), optimizers)
    answers_everywhere(fleet, [0], rows)
    assert answers_everywhere(fleet, [0], swapped) == (0, 2)
    assert answers_everywhere(fleet, [0], rows) == (2, 0)


def test_memo_keeps_no_caller_block_above_the_cap(fleet):
    """A block of more rows than the memo holds is neither digested nor
    kept: no lookup is counted, nothing is added; a block of the cap is
    kept and recalled."""
    lte, manager = fleet["lte"], fleet["manager"]
    sid = fleet["ids"][0]
    optimizers = settling(manager, sid)
    rows = draw_rows(lte, 29, 65)
    digests = []
    real = optimizer_module.hashlib.blake2b
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(optimizer_module, "_MEMO_ROWS", 64)
        monkeypatch.setattr(optimizer_module.hashlib, "blake2b",
                            lambda *a, **k: digests.append(1) or real(*a, **k))
        kept = [len(o._memo._entries) for o in optimizers]
        for _ in range(2):
            before = memo_counts()
            answers = manager.predict_many([sid], rows)[sid]
            assert memo_counts() == before
            assert [len(o._memo._entries) for o in optimizers] == kept
        assert digests == []
        assert np.array_equal(answers, predict_oracle.predict_many(
            [manager.session(sid)], rows)[0])
        assert answers_everywhere(fleet, [0], rows[:64])[1] == \
            len(optimizers)
        assert answers_everywhere(fleet, [0], rows[:64]) == \
            (len(optimizers), 0)
