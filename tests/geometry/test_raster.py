"""The raster behind ``PackedHulls.unions`` answers what ``Hull.contains``
answers.

A 2-D pack that has been asked ``64 x 64`` rows settles most rows of a
union query by one table read (``geometry/engine.py``).  Pinned here:

* **soundness** — masks ``array_equal`` to OR-ed per-hull
  ``Hull.contains`` before and after the raster exists, over fuzzed
  unions of every hull kind random sampling produces (full, collinear,
  single-point, 1e-3-sized, 1e7-offset, cell-aligned) and the points
  most likely to be filed wrongly: cell edges and one ulp beside them,
  vertices, facet midpoints, box corners, gate bounds, NaN, +-inf, 1e300;
* **threshold** — which kernel runs follows from the rows a pack has
  been asked, and only 2-D packs ever hold a raster;
* **mechanism** — by wrapping ``facet_values`` / ``membership``: once the
  raster exists the exact kernel sees exactly the rows undecided in some
  union and is not called for a block the raster settles;
* **hostile rows** through session, manager and 2-worker gateway.

The example count of the fuzz comes from the hypothesis profile (``x10``
in CI's geometry lane, registered in ``tests/conftest.py``).
"""

import os
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Hull, HullPackCache, PackedHulls, union_masks
from repro.geometry import engine

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "serve"))
import _predict_oracle as oracle  # noqa: E402

pytestmark = pytest.mark.geometry

SIDE = engine._RASTER_SIDE
CELLS = engine._RASTER_CELLS

HULL_KINDS = ("full", "collinear", "point", "tiny", "offset", "aligned")


def make_hull(kind, rng):
    if kind == "collinear":
        return Hull(rng.normal(size=2)
                    + rng.normal(size=(5, 1)) * rng.normal(size=2))
    if kind == "point":
        return Hull(np.tile(rng.normal(size=(1, 2)), (3, 1)))
    if kind == "tiny":
        return Hull(rng.normal(size=2) + rng.normal(size=(6, 2)) * 1e-3)
    if kind == "offset":
        return Hull(rng.normal(size=(7, 2)) + rng.choice([1e7, -1e7]))
    if kind == "aligned":   # a unit square on round numbers
        corner = rng.integers(-3, 3, size=2).astype(float)
        return Hull(corner + [[0, 0], [1, 0], [1, 1], [0, 1]])
    return Hull(rng.normal(size=(int(rng.integers(3, 12)), 2))
                * rng.choice([0.2, 1.0]) + rng.normal(size=2))


def one_ulp_around(values):
    return [values, np.nextafter(values, np.inf),
            np.nextafter(values, -np.inf)]


HOSTILE = np.array([[np.nan, 0.0], [0.0, np.nan], [np.nan, np.nan],
                    [np.inf, 0.0], [-np.inf, 0.0], [0.0, np.inf],
                    [1e300, 1e300], [-1e300, 0.0]])


def adversarial_points(pack, rng):
    """The rows a raster is most likely to file or answer wrongly."""
    gate_lo, gate_hi = pack.gate_bounds
    lo, hi = gate_lo.min(axis=0), gate_hi.max(axis=0)
    parts = [lo + rng.uniform(-0.2, 1.2, size=(300, 2)) * (hi - lo)]
    edges = lo + np.arange(SIDE + 1)[:, None] * (hi - lo) / SIDE
    parts += one_ulp_around(np.stack(
        np.meshgrid(edges[:, 0], edges[::7, 1]), axis=-1).reshape(-1, 2))
    parts += one_ulp_around(gate_lo) + one_ulp_around(gate_hi)
    for hull in pack.hulls:
        vertices = hull.vertices
        box_lo, box_hi = hull.bounding_box
        parts += [vertices, (vertices + np.roll(vertices, -1, axis=0)) / 2,
                  rng.dirichlet(np.ones(len(vertices)), size=10) @ vertices,
                  np.array([[box_lo[0], box_lo[1]], [box_lo[0], box_hi[1]],
                            [box_hi[0], box_lo[1]], [box_hi[0], box_hi[1]]])]
        # The tolerance band of the bounding-box rows.
        system = hull.halfspaces()
        tol = system.tol()
        middle = hull.points.mean(axis=0)
        for edge in (-system.b[:2] + tol[:2], system.b[2:4] - tol[2:4]):
            for axis in range(2):
                band = np.tile(middle, (3, 1))
                band[:, axis] = one_ulp_around(edge[axis])
                parts.append(band)
    return np.vstack(parts + [HOSTILE])


def per_hull_unions(hulls, points, columns):
    """The reference: OR over ``Hull.contains``, one hull at a time."""
    with np.errstate(all="ignore"):     # inf * 0 inside Hull.contains
        member = np.column_stack([hull.contains(points) for hull in hulls])
    return [member[:, list(cols)].any(axis=1) if len(cols)
            else np.zeros(len(points), dtype=bool) for cols in columns]


def ask_until_rastered(pack):
    """Ask the pack as many rows as its raster has cells; the next
    query builds it."""
    while pack._asked < CELLS:
        pack.unions(np.zeros((1024, pack.dim)), [])


def assert_masks(got, want):
    assert len(got) == len(want)
    for mask, expected in zip(got, want):
        assert mask.dtype == np.bool_ and mask.shape == expected.shape
        assert np.array_equal(mask, expected)


# ----------------------------------------------------------------------
# Soundness
# ----------------------------------------------------------------------
@settings(deadline=None)
@given(st.integers(0, 10 ** 6))
def test_property_raster_matches_per_hull_contains(seed):
    rng = np.random.default_rng(seed)
    kinds = list(rng.choice(HULL_KINDS, size=int(rng.integers(1, 41))))
    if rng.random() < 0.7:      # mostly without the 1e7 offsets, which
        kinds = [k for k in kinds if k != "offset"] or ["full"]   # coarsen
    hulls = [make_hull(kind, rng) for kind in kinds]
    # Unions that are empty, repeat a hull and share hulls with others.
    columns = [rng.integers(0, len(hulls),
                            size=int(rng.integers(0, len(hulls) + 2)))
               for _ in range(int(rng.integers(1, 6)))]
    pack = PackedHulls(hulls)
    points = adversarial_points(pack, rng)
    want = per_hull_unions(hulls, points, columns)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_masks(pack.unions(points, columns), want)
        assert pack._raster is None
        ask_until_rastered(pack)
        assert_masks(pack.unions(points, columns), want)
        assert pack._raster is not None
        assert_masks([pack.contains_any(points)],
                     per_hull_unions(hulls, points, [range(len(hulls))]))


def test_zero_width_box():
    """A pack of one coincident-point hull: its box has no width, its
    padded gate box a few 1e-6."""
    hull = Hull(np.full((4, 2), 0.25))
    pack = PackedHulls([hull, Hull(np.full((2, 2), 0.25))])
    ask_until_rastered(pack)
    points = np.vstack([np.full((1, 2), 0.25),
                        0.25 + np.linspace(-3e-6, 3e-6, 41)[:, None]
                        * [[1.0, 0.0]],
                        0.25 + np.linspace(-3e-6, 3e-6, 41)[:, None]
                        * [[1.0, -1.0]], HOSTILE])
    columns = [[0], [1, 0], []]
    assert_masks(pack.unions(points, columns),
                 per_hull_unions(pack.hulls, points, columns))
    assert pack._raster is not None
    assert pack.unions(points, columns)[0].any()


def test_empty_queries_and_empty_packs():
    rng = np.random.default_rng(0)
    pack = PackedHulls([make_hull("full", rng) for _ in range(3)])

    def check_empty():
        masks = pack.unions(np.zeros((0, 2)), [[0, 1], []])
        assert [mask.shape for mask in masks] == [(0,), (0,)]
        assert pack.unions(rng.normal(size=(5, 2)), []) == []
        assert pack.contains_any([]).shape == (0,)

    check_empty()
    assert pack._raster is None
    ask_until_rastered(pack)
    check_empty()
    assert pack._raster is not None
    assert PackedHulls([]).contains_any(np.zeros((0, 0))).shape == (0,)


# ----------------------------------------------------------------------
# Threshold
# ----------------------------------------------------------------------
def test_a_pack_builds_its_raster_once_asked_as_many_rows_as_it_has_cells():
    rng = np.random.default_rng(1)
    hulls = [make_hull("full", rng) for _ in range(6)]
    columns = [[0, 1, 2], [3, 4, 5, 0]]
    points = rng.normal(size=(CELLS - 1, 2)) * 2
    want = per_hull_unions(hulls, points, columns)
    pack = PackedHulls(hulls)
    before = pack.unions(points, columns)
    assert pack._raster is None and pack._asked == CELLS - 1
    assert_masks(pack.unions(points[:1], columns),
                 [mask[:1] for mask in want])
    assert pack._raster is None and pack._asked == CELLS
    after = pack.unions(points, columns)
    assert pack._raster is not None
    assert_masks(before, want)
    assert_masks(after, want)


@pytest.mark.parametrize("dim", [1, 3])
def test_only_two_dimensional_packs_hold_a_raster(dim):
    rng = np.random.default_rng(dim)
    hulls = [Hull(rng.normal(size=(4 * dim, dim)) + rng.normal(size=dim))
             for _ in range(4)]
    pack = PackedHulls(hulls)
    points = rng.normal(size=(3 * CELLS, dim)) * 2
    columns = [[0, 1], [2, 3, 1]]
    want = per_hull_unions(hulls, points, columns)
    for _ in range(2):
        assert_masks(pack.unions(points, columns), want)
    assert pack._raster is None


def test_a_pack_no_cache_holds_is_never_asked_twice():
    """``pack_cache=None`` compiles a pack per call, so every row takes
    the exact kernel however many there are; a cached pack grows its
    raster across calls."""
    rng = np.random.default_rng(2)
    hulls = [make_hull("full", rng) for _ in range(5)]
    points = rng.normal(size=(2 * CELLS, 2)) * 2
    want = per_hull_unions(hulls, points, [range(5), [1]])
    cache = HullPackCache()
    for _ in range(2):
        assert_masks(union_masks([hulls, hulls[1:2]], points), want)
        assert_masks(union_masks([hulls, hulls[1:2]], points,
                                 pack_cache=cache), want)
    assert cache.get(hulls)._raster is not None
    assert cache.metrics.value("geometry.raster.built") == 1
    asked = cache.metrics.value("geometry.raster.rows.settled") \
        + cache.metrics.value("geometry.raster.rows.exact")
    assert asked == len(points)     # the second call; the first was exact


# ----------------------------------------------------------------------
# Mechanism
# ----------------------------------------------------------------------
class Recorder:
    """Wraps a pack's two exact kernels and keeps the points each saw."""

    def __init__(self, pack, monkeypatch):
        self.seen = {"facet_values": [], "membership": []}
        for name in self.seen:
            monkeypatch.setattr(pack, name, self._wrap(name,
                                                       getattr(pack, name)))

    def _wrap(self, name, kernel):
        def recorded(points):
            self.seen[name].append(np.array(points))
            return kernel(points)
        return recorded


def undecided_rows(pack, points, columns):
    """Rows whose cell holds code 2 for some union, from the pack's own
    tables and a cell index spelled out independently."""
    lo, inv = pack._raster[:2]
    codes, _ = pack._union_codes(
        [np.asarray(cols, dtype=np.intp) for cols in columns])
    cells = np.full(len(points), CELLS)
    for row, point in enumerate(points):
        index = np.floor((point - lo) * inv)
        if ((index >= 0) & (index < SIDE)).all():
            cells[row] = int(index[0]) * SIDE + int(index[1])
    return np.flatnonzero((codes[:, cells] == 2).any(axis=0))


def test_the_exact_kernel_sees_exactly_the_undecided_rows(monkeypatch):
    rng = np.random.default_rng(3)
    hulls = [make_hull("full", rng) for _ in range(12)]
    pack = PackedHulls(hulls)
    points = rng.normal(size=(2000, 2)) * 1.5
    first = [[0, 1, 2, 3], [4, 5], [], [6, 7, 8, 9, 10, 11, 0]]
    second = [[11], [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]]

    recorder = Recorder(pack, monkeypatch)
    pack.unions(points, first)
    assert len(recorder.seen["membership"]) == 1       # before: every row
    assert not recorder.seen["facet_values"]
    ask_until_rastered(pack)
    recorder.seen["membership"].clear()

    for columns in (first, second, first):  # one pack, two structures
        recorder.seen["facet_values"].clear()
        got = pack.unions(points, columns)
        assert_masks(got, per_hull_unions(hulls, points, columns))
        rows = undecided_rows(pack, points, columns)
        assert 0 < rows.size < len(points) / 2
        assert len(recorder.seen["facet_values"]) == 1
        assert np.array_equal(recorder.seen["facet_values"][0],
                              points[rows])
    assert not recorder.seen["membership"]


def test_a_block_the_raster_settles_calls_no_kernel(monkeypatch):
    square = Hull(np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]))
    rng = np.random.default_rng(4)
    pack = PackedHulls([square, make_hull("tiny", rng)])
    ask_until_rastered(pack)
    pack.unions(np.zeros((1, 2)), [[0]])
    recorder = Recorder(pack, monkeypatch)
    deep_inside = 0.5 + rng.uniform(-0.2, 0.2, size=(500, 2))
    far_outside = 40.0 + rng.uniform(size=(500, 2))
    inside, outside, hostile = (pack.unions(block, [[0], [0, 1]])
                                for block in (deep_inside, far_outside,
                                              HOSTILE))
    assert inside[0].all() and inside[1].all()
    assert not (outside[0].any() or outside[1].any())
    assert not (hostile[0].any() or hostile[1].any())
    assert recorder.seen == {"facet_values": [], "membership": []}


def test_masks_of_one_query_do_not_alias():
    """Two unions over the same hulls come back as separate vectors."""
    rng = np.random.default_rng(5)
    pack = PackedHulls([make_hull("full", rng) for _ in range(3)])
    points = rng.normal(size=(50, 2))
    for _ in range(2):
        one, two = pack.unions(points, [[0, 1, 2], [0, 1, 2]])
        assert np.array_equal(one, two)
        one[:] = False
        assert np.array_equal(two, pack.contains_any(points))
        ask_until_rastered(pack)


# ----------------------------------------------------------------------
# Hostile rows through the serving path
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def raster_lte():
    from repro.core import LTE, LTEConfig
    from repro.core.meta_training import MetaHyperParams
    from repro.data import make_car
    lte = LTE(LTEConfig(budget=16, ku=20, kq=25, n_tasks=4,
                        meta=MetaHyperParams(epochs=1, local_steps=2,
                                             batch_size=3,
                                             pretrain_epochs=1),
                        basic_steps=10, online_steps=3))
    lte.fit_offline(make_car(n_rows=1500, seed=19))
    return lte


def label_every_subspace(front, lte, sid=None):
    """Label the initial tuples so that every subspace has positive
    anchors, hence hulls."""
    tuples = front.initial_tuples() if sid is None \
        else front.initial_tuples(sid)
    for subspace, points in tuples.items():
        score = lte.states[subspace].to_scaled(points).sum(axis=1)
        labels = (score < np.median(score)).astype(np.int64)
        labels[0] = 1
        if sid is None:
            front.submit_labels(subspace, labels)
        else:
            front.submit_labels(sid, subspace, labels)


def hostile_chunk(lte):
    rows = lte.table.sample_rows(64, seed=3)
    rows[0, :] = np.nan
    rows[1, 0] = np.nan
    rows[2, -1] = np.nan
    rows[3, 0] = np.inf
    rows[4, 1] = -np.inf
    rows[5, :] = 1e300
    rows[6, :] = -1e300
    return rows, np.arange(3)


def check_hostile(predict, wide, want, lte):
    """``predict`` answers the hostile chunk like the oracle, 0 on the
    NaN rows, before and after ``wide`` rows grew the packs' rasters
    (the second time in reverse order: a prediction cache would answer
    the same chunk from memory)."""
    rows, nan_rows = hostile_chunk(lte)
    for order in (slice(None), slice(None, None, -1)):
        got = predict(rows[order])[order]
        assert got.dtype == np.int64 and got.shape == (len(rows),)
        assert not got[nan_rows].any()
        assert np.array_equal(got, want)
        assert predict(rows[:0]).shape == (0,)
        predict(wide)


def test_hostile_rows_at_session_and_manager(raster_lte):
    from repro.serve import SessionManager
    lte = raster_lte
    wide = np.tile(lte.table.data, (3, 1))[:CELLS + 1]
    session = lte.start_session(variant="meta_star", seed=5)
    label_every_subspace(session, lte)
    with np.errstate(all="ignore"):     # the oracle scores the NaN rows
        want = oracle.predict_session(session, hostile_chunk(lte)[0])
    manager = SessionManager(lte)
    sid = manager.open_session(variant="meta_star", seed=5)
    label_every_subspace(manager, lte, sid)
    manager.flush()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_hostile(session.predict, wide, want, lte)
        check_hostile(lambda rows: manager.predict(sid, rows), wide, want,
                      lte)
    for cache in (session._region_packs, manager._region_packs):
        assert cache.metrics.value("geometry.raster.built") >= 1
    assert 0 < want.sum() < len(want)


def test_hostile_rows_at_a_two_worker_gateway(raster_lte):
    from repro.shard import ShardGateway
    lte = raster_lte
    wide = np.tile(lte.table.data, (3, 1))[:CELLS + 1]
    session = lte.start_session(variant="meta_star", seed=5)
    label_every_subspace(session, lte)
    with np.errstate(all="ignore"):
        want = oracle.predict_session(session, hostile_chunk(lte)[0])
    with ShardGateway(lte, n_workers=2) as gateway:
        sid = gateway.open_session(variant="meta_star", seed=5)
        label_every_subspace(gateway, lte, sid)
        gateway.flush_all()
        check_hostile(lambda rows: gateway.predict(sid, rows), wide, want,
                      lte)
        built = gateway.metrics()["merged"]["geometry.raster.built"]["value"]
    assert built >= 1
