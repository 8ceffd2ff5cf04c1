"""Zone-map pruning correctness: pruned + exact == full exact, bit for bit.

The scan planner's contract is that a pruned chunk provably contains no
region member, so chunk-pruned evaluation must equal a full scan exactly
— for every region type, including NaN-polluted columns, single-row
chunks, empty ``(0, d)`` tables and degenerate hull geometry.  The fuzz
draws clustered (zone-map-friendly) and adversarial (shuffled) data,
random chunk sizes and random regions, and checks both the equality and
the non-vacuity of the plan (selective regions on sorted data must
actually prune).

The store scan's planner, ``plan_conjunctions`` (every session of a
call, the owed chunks only, one broadcast per store column set), is held
to the per-session planner it replaced (``_plan_oracle.py``): equal keep
masks on the owed suffix for fuzzed sessions, watermarks and appends,
and the scan's ``store.scan.chunks.planned`` count and pairing check.
Example counts come from the hypothesis profile (``x10`` in CI's store
lane, registered in ``tests/conftest.py``).
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _plan_oracle as plan_oracle
from repro.core.optimizer import FewShotOptimizer
from repro.data.schema import Table
from repro.explore.query_synthesis import SynthesizedQuery
from repro.geometry import BoxRegion, Hull, UnionRegion
from repro.geometry.regions import ScaledRegion
from repro.ml.scaler import MinMaxScaler
from repro.obs import default_registry
from repro.store import (ChunkScan, plan_conjunctions, region_bounds,
                         scan_region)

pytestmark = pytest.mark.store


def make_store(data, chunk_rows, name="fuzz"):
    columns = ["c{}".format(i) for i in range(data.shape[1])]
    return Table(name, columns, data).to_store(chunk_rows=chunk_rows)


def full_mask(region, data, columns=None):
    """Reference: the unpruned full-table membership pass."""
    projected = data if columns is None else data[:, list(columns)]
    if hasattr(region, "contains"):
        return np.asarray(region.contains(projected), dtype=bool)
    return np.asarray(region.predicate(projected)) == 1


def assert_scan_parity(store, region, data, columns=None):
    scan = ChunkScan(store, region, columns=columns)
    got = scan.row_mask()
    want = full_mask(region, data, columns=columns)
    assert np.array_equal(got, want)
    # The stronger property behind the equality: no pruned chunk holds a
    # member (pruning never drops an in-region point).
    keep = scan.chunk_mask()
    for ci in np.flatnonzero(~keep):
        lo = int(store.offsets[ci])
        hi = int(store.offsets[ci + 1])
        assert not want[lo:hi].any()
    return scan


def clustered_data(rng, n, d, nan_ratio=0.0):
    """Rows with chunk locality: cluster id increases along the table."""
    k = int(rng.integers(3, 7))
    centers = rng.uniform(-5, 5, size=(k, d))
    spread = rng.uniform(0.05, 0.4)
    counts = rng.multinomial(n, np.ones(k) / k)
    rows = np.vstack([c + rng.normal(0, spread, size=(m, d))
                      for c, m in zip(centers, counts) if m]) \
        if n else np.zeros((0, d))
    if nan_ratio and n:
        hit = rng.random(size=rows.shape) < nan_ratio
        rows = np.where(hit, np.nan, rows)
    return rows


def random_hull_union(rng, data, d, parts):
    finite = data[~np.isnan(data).any(axis=1)]
    pool = finite if len(finite) >= 4 else rng.uniform(-5, 5, size=(32, d))
    hulls = []
    for _ in range(parts):
        take = int(rng.integers(d + 1, min(12, len(pool)) + 1))
        idx = rng.choice(len(pool), size=take, replace=False)
        hulls.append(Hull(pool[idx] + rng.normal(0, 0.05, size=(take, d))))
    return UnionRegion(hulls)


@pytest.mark.parametrize("chunk_rows", [1, 7, 64])
@pytest.mark.parametrize("nan_ratio", [0.0, 0.15])
def test_union_region_fuzz(chunk_rows, nan_ratio):
    rng = np.random.default_rng(100 * chunk_rows + int(nan_ratio * 10))
    for trial in range(8):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(0, 400))
        data = clustered_data(rng, n, d, nan_ratio=nan_ratio)
        store = make_store(data, chunk_rows)
        region = random_hull_union(rng, data, d, parts=int(rng.integers(1, 4)))
        assert_scan_parity(store, region, data)


def test_single_hull_and_box():
    rng = np.random.default_rng(7)
    data = clustered_data(rng, 500, 2)
    store = make_store(data, 16)
    hull = Hull(data[:40])
    assert_scan_parity(store, hull, data)
    lo, hi = data.min(axis=0), data.max(axis=0)
    box = BoxRegion(lo + 0.7 * (hi - lo), hi)
    scan = assert_scan_parity(store, box, data)
    assert not scan.chunk_mask().all()   # selective box on clustered data


def test_column_projection_scan():
    rng = np.random.default_rng(11)
    data = clustered_data(rng, 600, 4)
    store = make_store(data, 32)
    region = random_hull_union(rng, data[:, [3, 1]], 2, parts=2)
    assert_scan_parity(store, region, data, columns=(3, 1))
    with pytest.raises(ValueError):
        ChunkScan(store, region, columns=(0, 1, 2))


def test_conjunctive_ground_truth_fuzz():
    """``ConjunctiveOracle.ground_truth_store`` scans each subspace's
    scaled union over its column subset, pruned, and ANDs them: equal to
    the in-memory ground truth, and no pruned chunk holds a member."""
    from repro.data.subspaces import Subspace as ColumnGroup
    from repro.explore import ConjunctiveOracle

    rng = np.random.default_rng(23)
    for trial in range(6):
        data = clustered_data(rng, int(rng.integers(50, 400)), 4)
        store = make_store(data, int(rng.integers(1, 40)))
        regions = {}
        for columns in ((0, 2), (3, 1)):
            scaler = MinMaxScaler().fit(data[:len(data) // 2, list(columns)])
            subspace = ColumnGroup(["c{}".format(c) for c in columns],
                                   columns)
            regions[subspace] = ScaledRegion(scaled_union(rng, 2), scaler)
            assert_scan_parity(store, regions[subspace], data,
                               columns=columns)
        oracle = ConjunctiveOracle(regions)
        assert np.array_equal(oracle.ground_truth_store(store),
                              oracle.ground_truth(data))


def test_scaled_region_matches_raw_membership():
    rng = np.random.default_rng(31)
    for trial in range(6):
        data = clustered_data(rng, 400, 2)
        store = make_store(data, 13)
        scaler = MinMaxScaler().fit(data)
        scaled = scaler.transform(data)
        inner = random_hull_union(rng, scaled, 2, parts=2)
        region = ScaledRegion(inner, scaler)
        assert_scan_parity(store, region, data)


def test_scaled_region_clip_limits_are_conservative():
    # A scaled region touching the [0, 1] clip limits must keep every
    # chunk whose raw values clip into it — including values far outside
    # the scaler's fitted range.
    data = np.concatenate([np.linspace(0, 10, 50),
                           [1e6, -1e6]])[:, None]   # wild outliers
    scaler = MinMaxScaler().fit(np.linspace(0, 10, 50)[:, None])
    store = make_store(data, 4)
    region = ScaledRegion(UnionRegion([Hull(np.array([[-0.5], [0.2]]))]),
                          scaler)
    assert_scan_parity(store, region, data)
    region = ScaledRegion(UnionRegion([Hull(np.array([[0.9], [1.7]]))]),
                          scaler)
    assert_scan_parity(store, region, data)


def test_synthesized_query_scan():
    rng = np.random.default_rng(43)
    data = clustered_data(rng, 500, 3)
    store = make_store(data, 25)
    lo, hi = data.min(axis=0), data.max(axis=0)
    boxes = [(lo + 0.6 * (hi - lo), hi),
             (lo, lo + 0.1 * (hi - lo))]
    query = SynthesizedQuery(["c0", "c1", "c2"], boxes, fidelity=1.0)
    assert region_bounds(query) is not None
    assert_scan_parity(store, query, data)
    empty = SynthesizedQuery(["c0", "c1", "c2"], [], fidelity=1.0)
    scan = ChunkScan(store, empty)
    assert not scan.chunk_mask().any()       # zero boxes -> prune all
    assert not scan.row_mask().any()


def test_all_nan_column_chunks_prune_safely():
    data = np.array([[np.nan, 1.0],
                     [np.nan, 2.0],
                     [0.5, 0.5],
                     [0.6, 0.6]])
    store = make_store(data, 2)   # chunk 0 has an all-NaN column
    region = UnionRegion([Hull(np.array([[0.0, 0.0], [1.0, 1.0],
                                         [0.0, 1.0]]))])
    scan = assert_scan_parity(store, region, data)
    assert not scan.chunk_mask()[0]          # NaN-column chunk pruned


def test_empty_table_scan():
    store = make_store(np.zeros((0, 3)), 8)
    region = BoxRegion([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    assert scan_region(store, region).shape == (0,)
    assert ChunkScan(store, region).chunk_mask().shape == (0,)


def test_unknown_region_scans_everything():
    class Opaque:
        dim = 2

        def contains(self, points):
            points = np.atleast_2d(np.asarray(points, dtype=np.float64))
            return points[:, 0] > 0

    rng = np.random.default_rng(3)
    data = rng.normal(size=(100, 2))
    store = make_store(data, 10)
    assert region_bounds(Opaque()) is None
    scan = assert_scan_parity(store, Opaque(), data)
    assert scan.chunk_mask().all()


def test_pruning_actually_skips_on_sorted_data():
    # The load-bearing use case: data with chunk locality + a selective
    # region -> most chunks never touched.
    rng = np.random.default_rng(77)
    data = rng.uniform(0, 100, size=(5000, 2))
    data = data[np.argsort(data[:, 0])]
    store = make_store(data, 100)
    region = BoxRegion([10.0, 0.0], [12.0, 100.0])
    pruned = default_registry().value("store.scan.chunks.pruned")
    scan = assert_scan_parity(store, region, data)
    assert default_registry().value("store.scan.chunks.pruned") - pruned \
        > 0.9 * store.n_chunks
    keep = scan.chunk_mask()
    assert store.zone_maps.counts[keep].sum() < 0.1 * store.n_rows


# ----------------------------------------------------------------------
# The batched planner against the per-session reference
# ----------------------------------------------------------------------
class Subspace:
    """A subspace key: its store columns."""

    def __init__(self, columns):
        self.columns = tuple(int(c) for c in columns)


class Opaque:
    """A region with no bounds: a subspace holding it keeps every chunk."""

    def __init__(self, dim):
        self.dim = dim


def scaled_union(rng, dim):
    """Hulls in scaled coordinates, reaching past the 0/1 clip limits."""
    return UnionRegion([Hull(rng.uniform(-0.25, 1.25, size=(dim + 2, dim)))
                        for _ in range(int(rng.integers(1, 4)))])


def optimizer_over(rng, state, dim):
    """None, or an optimizer with some of an outer and an inner region."""
    kind = rng.choice(["none", "outer", "inner", "both", "opaque"])
    if kind == "none":
        return None
    optimizer = FewShotOptimizer.__new__(FewShotOptimizer)
    optimizer.__setstate__({
        "summary": state.summary, "n_sup": 2, "n_sub": 2,
        "outer_region": None if kind == "inner"
        else scaled_union(rng, dim),
        "inner_region": Opaque(dim) if kind == "opaque"
        else None if kind == "outer" else scaled_union(rng, dim)})
    return optimizer


def random_conjunctions(rng, data, n_sessions):
    """Sessions over shared subspaces (a 1-column one among them), each
    subspace state a scaler fitted over part of the rows."""
    d = data.shape[1]
    subspaces = [Subspace((int(rng.integers(d)),))] + [
        Subspace(int(c) for c in rng.choice(
            d, size=int(rng.integers(1, min(3, d) + 1)), replace=False))
        for _ in range(int(rng.integers(1, 3)))]
    states = {}
    for subspace in subspaces:
        rows = data[:, list(subspace.columns)]
        rows = rows[np.isfinite(rows).all(axis=1)]
        fitted = rows[: max(1, len(rows) // 2)] if len(rows) \
            else rng.uniform(-5, 5, size=(4, len(subspace.columns)))
        states[subspace] = SimpleNamespace(
            scaler=MinMaxScaler().fit(fitted), summary=object())
    conjunctions = {}
    for key in range(n_sessions):
        picked = rng.choice(len(subspaces), replace=False,
                            size=int(rng.integers(1, len(subspaces) + 1)))
        conjunctions["s{}".format(key)] = {
            subspaces[i]: SimpleNamespace(
                state=states[subspaces[i]],
                optimizer=optimizer_over(rng, states[subspaces[i]],
                                         len(subspaces[i].columns)))
            for i in picked}
    return conjunctions


def assert_plan_parity(store, conjunctions, first_owed):
    planned = default_registry().value("store.scan.chunks.planned")
    first, keep = plan_conjunctions(store, conjunctions, first_owed)
    owing = [key for key in conjunctions
             if first_owed[key] < store.n_chunks]
    assert list(keep) == owing
    assert first == min([first_owed[key] for key in owing],
                        default=store.n_chunks)
    for key in owing:
        want = plan_oracle.session_chunk_keep(store, conjunctions[key])
        assert keep[key].dtype == bool
        assert np.array_equal(keep[key], want[first:])
    assert default_registry().value("store.scan.chunks.planned") \
        - planned == len(owing) * (store.n_chunks - first)


@settings(deadline=None)
@given(st.sampled_from([1, 3, 16, 64]), st.integers(1, 5),
       st.sampled_from([0.0, 0.1]), st.integers(0, 2 ** 32 - 1))
def test_planner_keeps_what_the_per_session_reference_keeps(
        chunk_rows, n_sessions, nan_ratio, seed):
    """Keep masks over the owed suffix equal the per-session reference's,
    for sessions that owe from different chunks, before and after an
    append; the second plan reuses every optimizer's memoized boxes.
    Some values are infinite: a zone bound of -inf meets a box opened
    to -inf at a clip limit."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    data = clustered_data(rng, int(rng.integers(0, 300)), d,
                          nan_ratio=nan_ratio)
    infinite = rng.random(data.shape) < 0.03
    data[infinite] = rng.choice([-np.inf, np.inf], size=int(infinite.sum()))
    store = make_store(data, chunk_rows)
    conjunctions = random_conjunctions(
        rng, clustered_data(rng, 200, d) if not len(data) else data,
        n_sessions)
    assert_plan_parity(store, conjunctions, {
        key: int(rng.integers(0, store.n_chunks + 1))
        for key in conjunctions})
    closed = store.closed_chunks
    store.append_blocks([clustered_data(rng, int(rng.integers(1, 200)), d,
                                        nan_ratio=nan_ratio)])
    assert_plan_parity(store, conjunctions, {
        key: int(rng.choice([closed, rng.integers(0, store.n_chunks + 1)]))
        for key in conjunctions})


def test_planner_edge_conjunctions():
    """NaN zone entries and a scaler whose range the rows exceed (boxes
    at the clip limits opened to infinity), for each optimizer shape:
    none, no outer region, an unbounded inner region, an outer region
    past a clip limit, and a 1-column subspace."""
    data = np.array([[np.nan, 0.0], [np.nan, 1.0], [-50.0, 2.0],
                     [0.5, 3.0], [0.6, np.nan], [80.0, 5.0]])
    store = make_store(data, 2)
    both, first = Subspace((0, 1)), Subspace((1,))
    state = SimpleNamespace(scaler=MinMaxScaler().fit(
        np.array([[0.0, 0.0], [1.0, 4.0]])), summary=object())
    narrow = SimpleNamespace(scaler=MinMaxScaler().fit(
        np.array([[0.0], [4.0]])), summary=object())

    def optimizer(outer, inner, over=state):
        built = FewShotOptimizer.__new__(FewShotOptimizer)
        built.__setstate__({"summary": over.summary, "n_sup": 2,
                            "n_sub": 2, "outer_region": outer,
                            "inner_region": inner})
        return built

    low = UnionRegion([Hull(np.array([[-0.1, -0.1], [0.2, 0.1],
                                      [0.1, 0.3]]))])
    rect = UnionRegion([Hull(np.array([[0.4, 0.9], [0.7, 0.9],
                                      [0.4, 1.3], [0.7, 1.3]]))])
    line = UnionRegion([Hull(np.array([[0.2], [0.3]]))])
    cases = {
        "none": {both: SimpleNamespace(state=state, optimizer=None)},
        "inner only": {both: SimpleNamespace(
            state=state, optimizer=optimizer(None, low))},
        "unbounded inner": {both: SimpleNamespace(
            state=state, optimizer=optimizer(low, Opaque(2)))},
        "past the clip": {both: SimpleNamespace(
            state=state, optimizer=optimizer(rect, None))},
        "outer and inner": {both: SimpleNamespace(
            state=state, optimizer=optimizer(low, rect))},
        "one column": {first: SimpleNamespace(
            state=narrow, optimizer=optimizer(line, None, narrow))},
        "conjunction": {
            both: SimpleNamespace(state=state,
                                  optimizer=optimizer(rect, low)),
            first: SimpleNamespace(state=narrow,
                                   optimizer=optimizer(line, None, narrow))},
    }
    for first_chunk in range(store.n_chunks + 1):
        assert_plan_parity(store, cases, dict.fromkeys(cases, first_chunk))
    keeps = plan_conjunctions(store, cases, dict.fromkeys(cases, 0))[1]
    assert keeps["none"].all() and keeps["inner only"].all()
    assert keeps["unbounded inner"].all()
    assert not keeps["past the clip"].all()
    assert not keeps["one column"].all()


def test_planner_refuses_a_mispaired_optimizer():
    data = np.random.default_rng(0).normal(size=(40, 2))
    store = make_store(data, 8)
    state = SimpleNamespace(scaler=MinMaxScaler().fit(data),
                            summary=object())
    optimizer = FewShotOptimizer.__new__(FewShotOptimizer)
    optimizer.__setstate__({"summary": object(), "n_sup": 2, "n_sub": 2,
                            "outer_region": None, "inner_region": None})
    subsessions = {Subspace((0, 1)): SimpleNamespace(state=state,
                                                     optimizer=optimizer)}
    with pytest.raises(RuntimeError, match="not fitted over"):
        plan_conjunctions(store, {"s": subsessions}, {"s": 0})
    # A session owing nothing is not planned, so not checked.
    assert plan_conjunctions(store, {"s": subsessions},
                             {"s": store.n_chunks}) == (store.n_chunks, {})


def test_an_incremental_scan_plans_only_the_owed_chunks(
        store_lte, store_subspaces, store_table, make_oracle):
    """After one append each session owes the chunks past its watermark:
    that many chunk·sessions are zone-tested, not sessions x n_chunks."""
    from repro.serve import SessionManager

    manager = SessionManager(store_lte)
    sids = []
    for index, variant in enumerate(("meta_star", "meta_star", "basic")):
        sid = manager.open_session(variant=variant,
                                   subspaces=store_subspaces, seed=index)
        oracle = make_oracle(seed=40 + index)
        for subspace, tuples in manager.initial_tuples(sid).items():
            manager.submit_labels(sid, subspace,
                                  oracle.label_subspace(subspace, tuples))
        sids.append(sid)
    manager.flush()
    store = store_table.to_store(chunk_rows=128)
    manager.predict_many_store(sids, store)
    closed = store.closed_chunks
    store.append_blocks([np.array(store_table.data[:300])])
    planned = default_registry().value("store.scan.chunks.planned")
    manager.predict_many_store(sids, store)
    owed = len(sids) * (store.n_chunks - closed)
    assert default_registry().value("store.scan.chunks.planned") \
        - planned == owed < len(sids) * store.n_chunks
    assert manager.last_store_scan["watermark_skipped"] \
        == len(sids) * closed


def test_a_mispaired_session_fails_even_when_every_chunk_is_pruned(
        store_lte, store_subspaces, store_table, make_oracle):
    """Rows with no finite value are pruned for every Meta* session, so
    the scan asks no optimizer to decide a row; the planner still checks
    that each optimizer serves its state."""
    session = store_lte.start_session(variant="meta_star",
                                      subspaces=store_subspaces, seed=3)
    oracle = make_oracle(seed=9)
    for subspace, tuples in session.initial_tuples().items():
        session.submit_labels(subspace,
                              oracle.label_subspace(subspace, tuples))
    store = make_store(np.full((600, store_table.data.shape[1]), np.nan),
                       128)
    assert not session.predict_store(store).any()
    first, second = (session._subsessions[s] for s in store_subspaces)
    assert first.state.summary is not second.state.summary
    first.optimizer, second.optimizer = second.optimizer, first.optimizer
    session._store_marks.clear()
    with pytest.raises(RuntimeError, match="not fitted over"):
        session.predict_store(store)
