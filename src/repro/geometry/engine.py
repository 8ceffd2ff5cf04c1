"""Packed halfspace engine: all points x all hulls in one fused kernel.

The online hot path of the Meta* variant is geometric: every prediction
is demoted/promoted by testing membership in unions of convex hulls
(paper Sections V-C and VII-B).  Looping ``Hull.contains`` one hull at a
time evaluates every facet of every hull against every point — almost
all of it wasted, because a typical UIS hull occupies a small fraction
of the subspace.  This module stacks every hull's canonical lowering
(:meth:`~repro.geometry.convex_hull.Hull.halfspaces`, a uniform
``A x + b <= tol`` facet form whose first ``2 d`` rows are always the
hull's bounding box) and answers two kinds of query.

**The ``(n, H)`` matrix** (:meth:`PackedHulls.membership`): gate, then
exact.

1. **Gate** — one vectorized pass over (points x hulls x dims) against
   conservatively padded float32 copies of every hull's bbox rows.  The
   padding (outward ``nextafter`` of the float64 bound + tolerance)
   guarantees the gate is a *superset* of the exact bbox-row test, so a
   gated-out pair is provably outside — no exact arithmetic needed.
2. **Sparse exact evaluation** — only the surviving (point, hull)
   candidate pairs (typically ~1%) are run through the hull's full
   float64 facet rows, hull by hull, in BLAS, with the hull's own
   ``(A, b, tol)`` exactly as ``Hull.contains`` uses them.

**Union queries** (:meth:`PackedHulls.unions`, the one routine behind
:func:`union_masks` and :meth:`PackedHulls.contains_any`): raster, then
dense exact.  A 2-D pack that has been asked as many rows as a
``64 x 64`` raster has cells holds a conservative raster of itself
(cell -> certainly inside / certainly outside / undecided, per hull);
a row's union membership is then one table read, and only the rows in
cells some union's boundary crosses reach the facets — one dense
product over the pack's stacked system.  Before that threshold, and
for every other dimensionality, the exact kernel answers every row.

**The contract is equal masks, not equal facet values.**  Every kernel
here evaluates the same ``(A, b, tol)`` rows ``Hull.contains`` does,
but BLAS picks its inner kernel by operand shape: a two-term product
over a row subset or a facet slab differs from the same entries of the
dense ``P @ A.T`` in the last place (~1e-16 relative, measured on this
OpenBLAS in ``tests/geometry/test_engine.py``).  Tolerances are
``>= 1e-9`` — seven orders above that disagreement — so the *masks* of
the per-hull loop, the gated kernel, the dense kernel and the raster
agree on every point that is not within 1e-15 of a tolerance boundary,
which is what the parity suites pin; facet values are not promised.

Layers stack on top:

* :class:`PackedHulls` — the two kernels above;
* :func:`union_masks` — many unions over one shared point set, hulls
  deduplicated by identity, one engine call total (what
  ``FewShotOptimizer.decide_batch`` rides);
* :class:`HullPackCache` — identity-keyed LRU of compiled packs so a
  serving engine reuses one pack — and the raster it grew — across
  model versions and repeated predict calls.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .convex_hull import _EPS, as_query_array

__all__ = ["PackedHulls", "HullPackCache", "union_masks"]

#: Cap on the (points x hulls) gate slab evaluated at once; larger
#: queries are chunked over points so the gate stays cache-resident.
_GATE_BUDGET = 1 << 24

#: Cells a side of a 2-D pack's raster.  Its square is also the
#: threshold: a pack builds its raster once it has been asked as many
#: rows as the raster has cells, so the build (~3 ms at 30 hulls) is
#: only paid by packs that scans keep asking.
_RASTER_SIDE = 64
_RASTER_CELLS = _RASTER_SIDE * _RASTER_SIDE


class PackedHulls:
    """A stack of hulls compiled into one gated halfspace program.

    Parameters
    ----------
    hulls:
        Sequence of :class:`~repro.geometry.convex_hull.Hull`, all of
        one dimensionality.  Strong references are kept, so identity
        keys derived from the hulls stay valid for the pack's lifetime.
    eps:
        Facet tolerance parameter resolved at compile time (same
        default as ``Hull.contains``).
    """

    def __init__(self, hulls, eps=_EPS):
        hulls = tuple(hulls)
        dims = {h.dim for h in hulls}
        if len(dims) > 1:
            raise ValueError("hulls of mixed dimensionality: {}".format(dims))
        self.hulls = hulls
        self.dim = dims.pop() if dims else 0
        self.eps = float(eps)
        # Union-query state (see unions()): rows asked so far, the raster
        # once built, the code tables of the last column structure asked
        # and, for a pack a HullPackCache compiled, that cache's counters.
        self._asked = 0
        self._raster = None
        self._codes = (None, None)
        self._tally = None
        if not hulls:
            self.A = np.zeros((0, self.dim))
            self.b = np.zeros(0)
            self.tol = np.zeros(0)
            self.starts = np.zeros(1, dtype=np.intp)
            self._rows = []
            self._gate_lo = np.zeros((0, self.dim), dtype=np.float32)
            self._gate_hi = np.zeros((0, self.dim), dtype=np.float32)
            return
        systems = [h.halfspaces() for h in hulls]
        counts = np.array([s.n_facets for s in systems], dtype=np.intp)
        if (counts == 0).any():
            raise ValueError("cannot pack a hull with no facets")
        # Stacked form (facet_values, introspection, benchmarks).
        self.A = np.ascontiguousarray(np.vstack([s.A for s in systems]))
        self.b = np.concatenate([s.b for s in systems])
        self.tol = np.concatenate([s.tol(self.eps) for s in systems])
        self.starts = np.concatenate([[0], np.cumsum(counts)])
        # Per-hull exact rows for the sparse stage.
        self._rows = [(s.A, s.b, s.tol(self.eps)) for s in systems]
        # Conservative float32 gate, read straight off each system's
        # leading bounding-box rows (the lowering's layout invariant —
        # verified here) so gate and exact test share one source of
        # truth, including for deserialized hulls.  Padding each bound
        # outward past its resolved tolerance with a nextafter absorbs
        # every float64 rounding slack of the exact comparison, making
        # gate_pass a strict superset of the exact bbox-row test.
        d, eye = self.dim, np.eye(self.dim)
        pad_hi = np.empty((len(hulls), d))
        pad_lo = np.empty((len(hulls), d))
        for i, (A, b, tol) in enumerate(self._rows):
            if len(b) < 2 * d or not np.array_equal(A[:d], eye) \
                    or not np.array_equal(A[d:2 * d], -eye):
                raise ValueError(
                    "hull system lacks the canonical leading bbox rows")
            pad_hi[i] = -b[:d] + tol[:d]
            pad_lo[i] = b[d:2 * d] - tol[d:2 * d]
        self._gate_lo = np.nextafter(pad_lo.astype(np.float32),
                                     -np.inf).astype(np.float32)
        self._gate_hi = np.nextafter(pad_hi.astype(np.float32),
                                     np.inf).astype(np.float32)

    @property
    def n_hulls(self):
        return len(self.hulls)

    @property
    def n_facets(self):
        return len(self.b)

    @property
    def gate_bounds(self):
        """Conservative per-hull bounding boxes: ``(lo, hi)`` float64
        ``(n_hulls, dim)`` arrays.  Every point a hull's exact facet test
        accepts lies inside its row's box (the padded gate the membership
        kernel screens with — the zone-map scan planner prunes chunks
        against the same source of truth)."""
        return (self._gate_lo.astype(np.float64),
                self._gate_hi.astype(np.float64))

    # ------------------------------------------------------------------
    def facet_values(self, points):
        """Raw ``(n, total_facets)`` facet evaluations: one dense matmul
        against the whole stacked system — the exact kernel of
        :meth:`unions` for the rows a raster leaves undecided (the
        ``(n, H)`` matrix uses the gated sparse route instead)."""
        points = as_query_array(points, self.dim)
        values = points @ self.A.T
        values += self.b
        return values

    def candidates(self, points):
        """Boolean ``(n, n_hulls)`` conservative gate matrix.

        True wherever the point may lie in the hull (padded-bbox hit);
        guaranteed True for every actual member.
        """
        points = as_query_array(points, self.dim)
        gate = np.ones((len(points), self.n_hulls), dtype=bool)
        if self.n_hulls == 0 or len(points) == 0:
            return gate
        with np.errstate(over="ignore"):    # 1e300 -> inf: gated out
            pts32 = points.astype(np.float32)
        for j in range(self.dim):
            column = pts32[:, j, None]
            gate &= column >= self._gate_lo[:, j]
            gate &= column <= self._gate_hi[:, j]
        return gate

    def membership(self, points):
        """Boolean ``(n, n_hulls)`` matrix: point i inside hull j.

        Chunked over points so the gate slab stays cache-resident; the
        exact stage evaluates each hull's own float64 facet rows on its
        candidate points only.
        """
        points = as_query_array(points, self.dim)
        n = len(points)
        out = np.zeros((n, self.n_hulls), dtype=bool)
        if n == 0 or self.n_hulls == 0:
            return out
        chunk = max(1024, _GATE_BUDGET // max(self.n_hulls, 1))
        for start in range(0, n, chunk):
            block = points[start:start + chunk]
            gate = self.candidates(block)
            for h in np.flatnonzero(gate.any(axis=0)):
                idx = np.flatnonzero(gate[:, h])
                sub = block if len(idx) == len(block) else block[idx]
                A, b, tol = self._rows[h]
                values = sub @ A.T
                values += b
                out[start + idx, h] = (values <= tol).all(axis=1)
        return out

    def contains_any(self, points):
        """Boolean ``(n,)`` union-membership mask (inside *some* hull)."""
        return self.unions(points, [np.arange(self.n_hulls)])[0]

    # ------------------------------------------------------------------
    def unions(self, points, columns):
        """Union membership of ``points`` for many unions of this pack's
        hulls: one ``(n,)`` boolean mask per entry of ``columns``, each
        an index array into :attr:`hulls` (empty: an all-False mask).

        Which kernel runs follows from what the pack has observed.
        Until it has been asked ``64 x 64`` rows — and always, for a
        pack that is not 2-D — every row goes through
        :meth:`membership` and each union ORs its columns.  From then on
        a 2-D pack holds a **raster** of its padded gate box, built
        once, hull by hull over the cells of that hull's own box: with
        ``v = a.c + b`` a facet's value at a cell's centre, ``r =
        |a|.half`` its reach over the padded cell and ``s = 1e-12 (1 +
        |b| + |a|.reach)`` a slack, a cell is *certainly inside* a hull
        iff ``v + r + s <= tol`` on every facet and *certainly outside*
        iff ``v - r - s > tol`` on some facet; one sentinel cell,
        outside everything, takes the rows off the grid, NaN and
        +-inf.  Per column structure (the last one asked is kept) the
        hull tables fold into one ``uint8`` code a union and cell — 1
        some hull certainly inside, 0 every hull certainly outside, 2
        undecided — so a query is a cell index and one ``take``; the
        rows undecided in *any* union go through :meth:`facet_values`
        (one dense product, ``logical_and.reduceat`` per hull) and
        their per-union ORs overwrite the codes.  A rastered pack holds
        ``2 x 4 097 x H`` bytes of hull tables and ``4 097`` a union.

        **Why the codes are sound.**  A row is filed under cell
        ``floor((p - lo) * inv)`` and cells are padded by 1e-6 of their
        width, a million times the rounding of that index, so a row
        lies inside the padded cell it is filed under.  Facets are
        affine, so over a padded cell a facet's extremes sit at the
        corners, within ``r`` of ``v``; ``s`` exceeds every rounding of
        any kernel's ``a.p + b`` on the grid by three orders, so 1 and
        0 are what *every* exact kernel answers for every row of the
        cell.  A row off the grid is outside the pack's gate box, which
        contains every hull.  The contract is on the masks (``tol >=
        1e-9`` where kernels disagree by <= 1e-15); facet values are
        not promised.
        """
        points = as_query_array(points, self.dim)
        columns = [np.asarray(cols, dtype=np.intp) for cols in columns]
        out = np.zeros((len(columns), len(points)), dtype=np.uint8)
        if len(points) and self.n_hulls:
            if self._raster is None and self._asked >= _RASTER_CELLS \
                    and self.dim == 2 and np.isfinite(self._gate_lo).all() \
                    and np.isfinite(self._gate_hi).all():
                self._raster = self._build_raster()
                if self._tally is not None:
                    self._tally[0].inc()
            self._asked += len(points)
            if self._raster is None:
                self._or_columns(out, slice(None), self.membership(points),
                                 columns)
            else:
                self._look_up(points, columns, out)
        return list(out.view(np.bool_))

    @staticmethod
    def _or_columns(out, rows, member, columns):
        """Write each union's OR over its ``member`` columns."""
        for codes, cols in zip(out, columns):
            if len(cols):
                codes[rows] = member[:, cols].any(axis=1)

    def _build_raster(self):
        """``(lo, inv, inside, maybe)``: the grid's origin and cells per
        unit length, and per hull two ``(H, cells + 1)`` tables — cell
        certainly inside the hull, cell not certainly outside it — whose
        last column is the sentinel cell."""
        side = _RASTER_SIDE
        gate_lo, gate_hi = self.gate_bounds
        lo, hi = gate_lo.min(axis=0), gate_hi.max(axis=0)
        # The grid overhangs the gate box by 1e-6 of its span, so no
        # rounding files a row inside the box under the sentinel.
        pad = 1e-6 * (hi - lo)
        lo, hi = lo - pad, hi + pad
        inv = side / (hi - lo)
        half = (0.5 + 1e-6) / inv
        reach = np.maximum(np.abs(lo), np.abs(hi)) + half
        centres = lo + (np.arange(side)[:, None] + 0.5) / inv
        # A hull's own cells: the cells its gate box's corners are filed
        # under and those between.  ``(p - lo) * inv`` is monotone in p
        # also after rounding, so a row filed elsewhere lies outside
        # that box, hence outside the hull.
        first = ((gate_lo - lo) * inv).astype(np.intp)
        stop = ((gate_hi - lo) * inv).astype(np.intp) + 1
        inside = np.zeros((self.n_hulls, _RASTER_CELLS + 1), dtype=bool)
        maybe = np.zeros_like(inside)
        for h, (A, b, tol) in enumerate(self._rows):
            (i0, j0), (i1, j1) = first[h], stop[h]
            magnitude = np.abs(A)
            margin = magnitude @ half \
                + 1e-12 * (1.0 + np.abs(b) + magnitude @ reach)
            values = (A[:, :1] * centres[i0:i1, 0])[:, :, None] \
                + (A[:, 1:] * centres[j0:j1, 1] + b[:, None])[:, None, :]
            window = np.s_[i0:i1, j0:j1]
            inside[h, :-1].reshape(side, side)[window] = \
                (values <= (tol - margin)[:, None, None]).all(axis=0)
            maybe[h, :-1].reshape(side, side)[window] = \
                ~(values > (tol + margin)[:, None, None]).any(axis=0)
        return lo, inv, inside, maybe

    def _union_codes(self, columns):
        """``(codes, undecided)`` for this column structure: the ``(U,
        cells + 1)`` uint8 code table and the cells undecided in some
        union.  One structure is kept — a serving group asks the same
        one chunk after chunk."""
        key = tuple(cols.tobytes() for cols in columns)
        kept, tables = self._codes
        if kept != key:
            inside, maybe = self._raster[2:]
            codes = np.zeros((len(columns), _RASTER_CELLS + 1),
                             dtype=np.uint8)
            for row, cols in zip(codes, columns):
                if len(cols):
                    row[:] = np.where(inside[cols].any(axis=0), 1,
                                      2 * maybe[cols].any(axis=0))
            tables = (codes, (codes == 2).any(axis=0))
            self._codes = (key, tables)
        return tables

    def _look_up(self, points, columns, out):
        """Fill ``out`` (``(U, n)`` uint8) from the raster, the rows in
        undecided cells from the dense exact kernel."""
        lo, inv = self._raster[:2]
        codes, undecided = self._union_codes(columns)
        settled = 0
        chunk = max(1024, _GATE_BUDGET // (8 * self.n_facets))
        for start in range(0, len(points), chunk):
            block = points[start:start + chunk]
            with np.errstate(over="ignore", invalid="ignore"):
                scaled = (block - lo) * inv
            x, y = scaled[:, 0], scaled[:, 1]
            off = ~((x >= 0.0) & (x < _RASTER_SIDE)
                    & (y >= 0.0) & (y < _RASTER_SIDE))
            scaled[off] = 0.0
            index = scaled.astype(np.intp)     # truncation: floor of >= 0
            cell = index[:, 0] * _RASTER_SIDE + index[:, 1]
            cell[off] = _RASTER_CELLS
            window = out[:, start:start + chunk]
            window[...] = codes.take(cell, axis=1)
            rows = np.flatnonzero(undecided.take(cell))
            if rows.size:
                member = np.logical_and.reduceat(
                    self.facet_values(block[rows]) <= self.tol,
                    self.starts[:-1], axis=1)
                self._or_columns(window, rows, member, columns)
            settled += len(block) - rows.size
        if self._tally is not None:
            self._tally[1].inc(settled)
            self._tally[2].inc(len(points) - settled)

    def __repr__(self):
        return "PackedHulls(dim={}, hulls={}, facets={})".format(
            self.dim, self.n_hulls, self.n_facets)


def union_masks(hull_lists, points, pack_cache=None):
    """Evaluate many unions of hulls over one shared point set.

    Deduplicates hulls by identity across all unions (concurrent
    sessions built via ``FewShotOptimizer.fit_batch`` share hull
    objects) and asks the distinct hulls' pack **one** union query
    (:meth:`PackedHulls.unions`).

    Parameters
    ----------
    hull_lists:
        Iterable whose entries are sequences of hulls (one entry per
        union); an entry may be empty, yielding an all-False mask.
    points:
        The shared ``(n, d)`` query array.
    pack_cache:
        Optional :class:`HullPackCache`; the compiled pack for this
        exact hull set is then reused across calls (e.g. across model
        versions of the same serving sessions) and, once asked enough
        rows, answers from its raster.  Without one the pack lives for
        this call and every row takes the exact kernel.

    Returns
    -------
    List of ``(n,)`` boolean masks, one per entry of ``hull_lists``.
    """
    hull_lists = [list(hulls) for hulls in hull_lists]
    index, distinct = {}, []
    columns = []
    for hulls in hull_lists:
        cols = []
        for hull in hulls:
            col = index.get(id(hull))
            if col is None:
                col = index[id(hull)] = len(distinct)
                distinct.append(hull)
            cols.append(col)
        columns.append(cols)
    if not distinct:
        dim = np.atleast_2d(np.asarray(points, dtype=np.float64)).shape[-1]
        n = len(as_query_array(points, dim))
        return [np.zeros(n, dtype=bool) for _ in hull_lists]
    if pack_cache is not None:
        pack = pack_cache.get(distinct)
    else:
        pack = PackedHulls(distinct)
    return pack.unions(points, columns)


class HullPackCache:
    """Identity-keyed LRU of compiled :class:`PackedHulls`.

    The key is the tuple of hull object identities; the cached pack
    holds strong references to its hulls, so a key can never be
    recycled to a different hull set while its entry is alive.  The
    serving layer keeps one of these so the per-group pack built for a
    set of sessions survives model-version bumps (re-adaptation changes
    classifiers, never the few-shot hull geometry) and repeated predict
    calls — and with it the raster a pack builds once scans have asked
    it enough rows (``geometry.raster.*`` in the same registry).  Packs
    and rasters are never serialized: a restored owner recompiles.
    """

    def __init__(self, capacity=128, metrics=None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._entries = OrderedDict()
        # Hit/miss counts live in a repro.obs registry (the owner may
        # share its own, e.g. the serving manager) under
        # ``geometry.pack_cache.*``.
        if metrics is None:
            from ..obs import MetricsRegistry
            metrics = MetricsRegistry()
        self.metrics = metrics
        self._hits = metrics.counter("geometry.pack_cache.hits")
        self._misses = metrics.counter("geometry.pack_cache.misses")
        # What the packs compiled here do with their rasters (see
        # PackedHulls.unions): rasters built, and of the rows asked of
        # packs holding one, those a table read settled and those the
        # exact kernel answered.
        self._raster_tally = tuple(
            metrics.counter("geometry.raster." + name)
            for name in ("built", "rows.settled", "rows.exact"))

    def __len__(self):
        return len(self._entries)

    def get(self, hulls):
        """The compiled pack for exactly this hull sequence."""
        hulls = tuple(hulls)
        key = tuple(map(id, hulls))
        entry = self._entries.get(key)
        if entry is not None:
            self._hits.inc()
            self._entries.move_to_end(key)
            return entry
        self._misses.inc()
        pack = PackedHulls(hulls)
        pack._tally = self._raster_tally
        self._entries[key] = pack
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return pack

    def evict_containing(self, hulls):
        """Drop every cached pack referencing any of these hulls.

        Called when the hulls' owner goes away (e.g. a serving session
        closes) so retired geometry is not pinned until LRU churn.
        Entries for packs *sharing* some of the hulls with live owners
        are dropped too — they recompile cheaply on next use.
        """
        ids = set(map(id, hulls))
        if not ids:
            return 0
        stale = [key for key in self._entries if ids.intersection(key)]
        for key in stale:
            del self._entries[key]
        return len(stale)
