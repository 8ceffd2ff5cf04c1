"""Zone-map scan planner: prune chunks a region provably cannot touch.

Every region type in the system admits a *conservative bounding-box
form*: a disjunction of boxes over the region's input columns, such that
every point the region accepts lies inside some box.  The sources:

* hull-backed regions (``Hull``, ``UnionRegion``): the packed engine's
  padded float32 gate (:attr:`~repro.geometry.engine.PackedHulls.
  gate_bounds`), already a proven superset of the exact facet test;
* ``BoxRegion`` and ``SynthesizedQuery``: the boxes themselves (their
  membership tests are exact interval comparisons);
* ``ScaledRegion``: the wrapped region's bounds mapped back through the
  min-max scaler's affine inverse, widened for rounding, with bounds
  touching the clip limits 0/1 opened to +-inf (clipping makes the
  transform non-injective there, so every raw preimage must survive).

A chunk whose zone map (NaN-ignoring per-column min/max) fails the
interval-overlap test against every box contains no member
of the region: rows with finite values lie outside every box, and rows
with NaN coordinates fail every membership predicate in the system (all
facet/interval comparisons are ``False`` under NaN).  Pruned + exact is
therefore **bit-identical** to full exact — verified by the property
fuzz in ``tests/store/test_zonemap_pruning.py``.
"""

from __future__ import annotations

import numpy as np

from ..geometry.convex_hull import Hull
from ..geometry.engine import PackedHulls
from ..geometry.regions import BoxRegion, ScaledRegion, UnionRegion
from ..obs import default_registry

__all__ = ["ChunkScan", "region_bounds", "scan_region",
           "plan_conjunctions", "session_chunk_keep"]


def _widen(lo, hi):
    """Open a box outward by a small relative margin (rounding slack)."""
    pad_lo = 1e-12 * np.maximum(1.0, np.abs(lo))
    pad_hi = 1e-12 * np.maximum(1.0, np.abs(hi))
    return lo - pad_lo, hi + pad_hi


def _unscale_bounds(scaler, lo, hi):
    """Map normalized-space boxes back to raw space, conservatively.

    The scaler's transform is affine-increasing per column *inside* the
    fitted range and clipped to [0, 1] outside it; a scaled bound at (or
    beyond) a clip limit therefore has an unbounded raw preimage.
    """
    mn, mx = scaler.min_, scaler.max_
    span = np.where(mx > mn, mx - mn, 1.0)
    lo_raw, hi_raw = _widen(lo * span + mn, hi * span + mn)
    lo_raw = np.where(lo <= 0.0, -np.inf, lo_raw)
    hi_raw = np.where(hi >= 1.0, np.inf, hi_raw)
    return lo_raw, hi_raw


def region_bounds(region):
    """Conservative bounding-box form of a region predicate.

    Returns ``(lo, hi)``, float64 ``(n_parts, k)`` box stacks over the
    region's input row, or ``None`` when the region offers no usable
    bounds (every chunk must then be scanned).  Zero parts encode an
    always-empty region: every chunk is prunable.
    """
    if isinstance(region, Hull):
        return PackedHulls([region]).gate_bounds
    if isinstance(region, UnionRegion):
        return region.compiled().gate_bounds
    if isinstance(region, BoxRegion):
        return _widen(region.lo[None, :].astype(np.float64),
                      region.hi[None, :].astype(np.float64))
    if isinstance(region, ScaledRegion):
        inner = region_bounds(region.region)
        return None if inner is None \
            else _unscale_bounds(region.scaler, *inner)
    if hasattr(region, "boxes") and hasattr(region, "predicate"):
        # SynthesizedQuery (duck-typed: repro.store must not import
        # repro.explore).  Its predicate is an exact DNF of boxes.
        d = len(region.attribute_names)
        if not region.boxes:
            return np.zeros((0, d)), np.zeros((0, d))
        lo = np.vstack([np.asarray(lo, dtype=np.float64)
                        for lo, _ in region.boxes])
        hi = np.vstack([np.asarray(hi, dtype=np.float64)
                        for _, hi in region.boxes])
        return _widen(lo, hi)
    return None


def _membership(region, rows):
    """Exact boolean membership for any supported predicate object."""
    if hasattr(region, "contains"):
        return np.asarray(region.contains(rows), dtype=bool)
    return np.asarray(region.predicate(rows)) == 1


def _overlaps(zone, columns, lo, hi, first=0):
    """``(n_chunks - first, n_parts)``: whether each chunk's zone map from
    ``first`` on overlaps each ``(n_parts, k)`` box over the store's
    ``columns``.  A chunk can hold a member of a box only if every
    column range overlaps it.  NaN zone entries (no finite value in the
    chunk's column) compare False on both sides — correctly pruned,
    since NaN coordinates fail every membership test."""
    hit = np.ones((zone.n_chunks - first, len(lo)), dtype=bool)
    for j, column in enumerate(columns):
        hit &= zone.mins[first:, column, None] <= hi[:, j]
        hit &= zone.maxs[first:, column, None] >= lo[:, j]
    return hit


class ChunkScan:
    """A planned, zone-map-pruned evaluation of one region over a store.

    Parameters
    ----------
    store:
        The :class:`~repro.store.ChunkStore` to scan.
    region:
        Any region predicate (``Hull`` / ``UnionRegion`` /
        ``ScaledRegion`` / ``BoxRegion`` /
        ``SynthesizedQuery`` / custom ``Region``).
    columns:
        Store columns the region's input dimensions refer to (default:
        all, in order) — e.g. a subspace's column tuple for a
        per-subspace UIS region.
    first_chunk:
        Freshness watermark: chunks before this index are skipped
        outright (the caller already holds their answer from a previous
        scan of the same store version prefix).  Incremental serving
        passes a session's closed-chunk watermark here.

    The plan is computed at construction: :meth:`chunk_mask` tells which
    chunks survive pruning, :meth:`row_mask` runs the exact membership
    test on the survivors only.  ``pruned + exact == full exact`` holds
    bit-for-bit because pruned chunks provably contain no member.
    """

    def __init__(self, store, region, columns=None, first_chunk=0):
        self.store = store
        self.region = region
        self.columns = None if columns is None \
            else tuple(int(c) for c in columns)
        base = tuple(range(store.n_attributes)) if columns is None \
            else self.columns
        expected = getattr(region, "dim", None)
        if expected is None and hasattr(region, "attribute_names"):
            expected = len(region.attribute_names)
        if expected is not None and expected != len(base):
            raise ValueError(
                "region over {} dims scanned against {} store columns"
                .format(expected, len(base)))
        zone = store.zone_maps
        bounds = region_bounds(region)
        keep = np.ones(zone.n_chunks, dtype=bool) if bounds is None \
            else _overlaps(zone, base, *bounds).any(axis=1)
        self.first_chunk = max(0, min(int(first_chunk), len(keep)))
        keep[:self.first_chunk] = False
        self._keep = keep
        # Pruning telemetry (process default registry, store.scan.*).
        metrics = default_registry()
        metrics.counter("store.scan.plans").inc()
        scanned = int(keep.sum())
        metrics.counter("store.scan.chunks.scanned").inc(scanned)
        metrics.counter("store.scan.chunks.watermark_skipped") \
            .inc(self.first_chunk)
        metrics.counter("store.scan.chunks.pruned") \
            .inc(len(keep) - scanned - self.first_chunk)

    # ------------------------------------------------------------------
    def chunk_mask(self):
        """Boolean ``(n_chunks,)``: True where the chunk must be scanned."""
        return self._keep.copy()

    def row_mask(self):
        """Exact boolean membership over all rows, scanning survivors only."""
        store = self.store
        out = np.zeros(store.n_rows, dtype=bool)
        cols = None if self.columns is None else list(self.columns)
        for ci in np.flatnonzero(self._keep):
            block = store.chunk(ci)
            if cols is not None:
                block = block[:, cols]
            start = int(store.offsets[ci])
            out[start:start + len(block)] = _membership(self.region, block)
        return out


def scan_region(store, region, columns=None):
    """Boolean row mask of ``region`` over ``store``, chunk-pruned."""
    return ChunkScan(store, region, columns=columns).row_mask()


def plan_conjunctions(store, conjunctions, first_owed):
    """Chunks each conjunction could mark positive, from the first chunk
    any owes: ``(first, {id: (n_chunks - first,) keep})`` for the ids
    with ``first_owed[id] < n_chunks``, in ``conjunctions`` order — the
    single soundness site of ``core.framework.scan_conjunctions``.

    ``conjunctions`` maps an id to ``{subspace: _SubspaceSession}``.  The
    Meta* refinement demotes every positive outside the outer subregion
    and promotes only inside the inner one, so a chunk whose zone map
    meets neither region's boxes (:meth:`~repro.core.optimizer.
    FewShotOptimizer.gate_boxes`, which also refuses a mispaired state)
    is all 0, and so is the conjunction there.  A keep is OR over a
    region's boxes and over its outer and inner region, AND over its
    subspaces.  Every box over one store column set is tested in one
    broadcast; ``store.scan.chunks.planned`` counts the chunk·ids.
    """
    zone = store.zone_maps
    keys = [key for key in conjunctions if first_owed[key] < zone.n_chunks]
    first = min((first_owed[key] for key in keys), default=zone.n_chunks)
    stacks, slots = {}, []      # store columns -> ([lo], [hi]); per region
    regions, subspaces = [], []     # a subspace's, a conjunction's: counts
    for key in keys:
        subspaces.append(0)
        for subspace, session in conjunctions[key].items():
            boxes = None if session.optimizer is None \
                else session.optimizer.gate_boxes(session.state)
            if boxes is None:
                continue
            sel = tuple(subspace.columns)
            los, his = stacks.setdefault(sel, ([], []))
            for lo, hi in boxes:
                slots.append((sel, len(los)))
                los.append(lo)
                his.append(hi)
            regions.append(len(boxes))
            subspaces[-1] += 1
    n_chunks = zone.n_chunks - first
    met, at = [np.zeros((n_chunks, 0), dtype=bool)], {}
    for sel, (los, his) in stacks.items():
        at[sel] = sum(part.shape[1] for part in met)
        hit = _overlaps(zone, sel, np.concatenate(los), np.concatenate(his),
                        first)
        met.append(_held(hit, [len(lo) for lo in los]) > 0)
    met = np.concatenate(met, axis=1)[:, [at[sel] + i for sel, i in slots]]
    reached = _held(met, regions) > 0
    keep = _held(reached, subspaces) == subspaces
    default_registry().counter("store.scan.chunks.planned").inc(
        len(keys) * n_chunks)
    return first, dict(zip(keys, np.ascontiguousarray(keep.T)))


def _held(values, runs):
    """``(n, len(runs))``: how many columns of the boolean ``(n, m)``
    ``values`` hold in each run of ``runs[i]`` consecutive columns (0 in
    an empty run), row by row."""
    runs = np.asarray(runs, dtype=np.int64)
    padded = np.zeros((len(values), values.shape[1] + 1), dtype=bool)
    padded[:, :-1] = values     # every run, even an empty one, starts inside
    return np.add.reduceat(padded, np.cumsum(runs) - runs, axis=1,
                           dtype=np.int64) * (runs > 0)


def session_chunk_keep(store, subsessions):
    """One conjunction's ``(n_chunks,)`` :func:`plan_conjunctions` keep."""
    return plan_conjunctions(store, {0: subsessions}, {0: 0})[1].get(
        0, np.ones(0, dtype=bool))
