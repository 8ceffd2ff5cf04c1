"""Zone-map scan planner: prune chunks a region provably cannot touch.

Every region type in the system admits a *conservative bounding-box
form*: a conjunction of groups, each group a disjunction of per-column
boxes, such that every point the region accepts lies — for every group —
inside some box of that group on the group's columns.  The sources:

* hull-backed regions (``Hull``, ``UnionRegion``): the packed engine's
  padded float32 gate (:attr:`~repro.geometry.engine.PackedHulls.
  gate_bounds`), already a proven superset of the exact facet test;
* ``BoxRegion`` and ``SynthesizedQuery``: the boxes themselves (their
  membership tests are exact interval comparisons);
* ``ScaledRegion``: the wrapped region's bounds mapped back through the
  min-max scaler's affine inverse, widened for rounding, with bounds
  touching the clip limits 0/1 opened to +-inf (clipping makes the
  transform non-injective there, so every raw preimage must survive);
* ``ConjunctiveRegion``: one group per hull/box part, mapped onto the
  part's column subset; parts with no known bounds simply contribute no
  group (they never cause pruning).

A chunk whose zone map (NaN-ignoring per-column min/max) fails the
interval-overlap test against every box of some group contains no member
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
from ..geometry.regions import (BoxRegion, ConjunctiveRegion, ScaledRegion,
                                UnionRegion)
from ..obs import default_registry

__all__ = ["ChunkScan", "region_bounds", "scan_region",
           "optimizer_chunk_keep", "session_chunk_keep"]


def _widen(lo, hi):
    """Open a box outward by a small relative margin (rounding slack)."""
    pad_lo = 1e-12 * np.maximum(1.0, np.abs(lo))
    pad_hi = 1e-12 * np.maximum(1.0, np.abs(hi))
    return lo - pad_lo, hi + pad_hi


def _unscale_bounds(scaler, lo, hi, columns):
    """Map normalized-space boxes back to raw space, conservatively.

    The scaler's transform is affine-increasing per column *inside* the
    fitted range and clipped to [0, 1] outside it; a scaled bound at (or
    beyond) a clip limit therefore has an unbounded raw preimage.
    """
    mn = scaler.min_ if columns is None else scaler.min_[list(columns)]
    mx = scaler.max_ if columns is None else scaler.max_[list(columns)]
    span = np.where(mx > mn, mx - mn, 1.0)
    lo_raw, hi_raw = _widen(lo * span + mn, hi * span + mn)
    lo_raw = np.where(lo <= 0.0, -np.inf, lo_raw)
    hi_raw = np.where(hi >= 1.0, np.inf, hi_raw)
    return lo_raw, hi_raw


def region_bounds(region):
    """Conservative bounding-box form of a region predicate.

    Returns a list of conjunct groups ``(columns, lo, hi)`` — ``columns``
    a tuple of column indices relative to the region's input row (or
    ``None`` for the whole row), ``lo`` / ``hi`` float64 ``(n_parts, k)``
    box stacks — or ``None`` when the region offers no usable bounds
    (every chunk must then be scanned).  A group with zero parts encodes
    an always-empty region: every chunk is prunable.
    """
    if isinstance(region, Hull):
        lo, hi = PackedHulls([region]).gate_bounds
        return [(None, lo, hi)]
    if isinstance(region, UnionRegion):
        lo, hi = region.compiled().gate_bounds
        return [(None, lo, hi)]
    if isinstance(region, BoxRegion):
        lo, hi = _widen(region.lo[None, :].astype(np.float64),
                        region.hi[None, :].astype(np.float64))
        return [(None, lo, hi)]
    if isinstance(region, ScaledRegion):
        inner = region_bounds(region.region)
        if inner is None:
            return None
        return [(cols, *_unscale_bounds(region.scaler, lo, hi, cols))
                for cols, lo, hi in inner]
    if isinstance(region, ConjunctiveRegion):
        groups = []
        for cols, sub in region.subspace_regions:
            sub_groups = region_bounds(sub)
            if sub_groups is None:
                continue   # unconstrained part: never causes pruning
            for sub_cols, lo, hi in sub_groups:
                mapped = cols if sub_cols is None \
                    else tuple(cols[c] for c in sub_cols)
                groups.append((tuple(mapped), lo, hi))
        return groups or None
    if hasattr(region, "boxes") and hasattr(region, "predicate"):
        # SynthesizedQuery (duck-typed: repro.store must not import
        # repro.explore).  Its predicate is an exact DNF of boxes.
        d = len(region.attribute_names)
        if not region.boxes:
            return [(None, np.zeros((0, d)), np.zeros((0, d)))]
        lo = np.vstack([np.asarray(lo, dtype=np.float64)
                        for lo, _ in region.boxes])
        hi = np.vstack([np.asarray(hi, dtype=np.float64)
                        for _, hi in region.boxes])
        return [(None, *_widen(lo, hi))]
    return None


def _membership(region, rows):
    """Exact boolean membership for any supported predicate object."""
    if hasattr(region, "contains"):
        return np.asarray(region.contains(rows), dtype=bool)
    return np.asarray(region.predicate(rows)) == 1


def _zone_map_keep(store, region, columns=None):
    """The zone-map test itself: ``(keep, prunable)`` — a fresh boolean
    ``(n_chunks,)`` mask, False where the chunk's zone map proves it
    holds no member of ``region`` (given over the store's ``columns``,
    default all in order), and whether the region offered any bounds to
    prune by.  Counts nothing: a plan that is only *consulted*
    (:func:`optimizer_chunk_keep`) is not a scan."""
    base = tuple(range(store.n_attributes)) if columns is None \
        else tuple(columns)
    expected = getattr(region, "dim", None)
    if expected is None and hasattr(region, "attribute_names"):
        expected = len(region.attribute_names)
    if expected is not None and expected != len(base):
        raise ValueError(
            "region over {} dims scanned against {} store columns"
            .format(expected, len(base)))
    zone = store.zone_maps
    keep = np.ones(zone.n_chunks, dtype=bool)
    groups = region_bounds(region)
    if groups is not None:
        for cols, lo, hi in groups:
            sel = list(base) if cols is None else [base[c] for c in cols]
            zmin = zone.mins[:, sel]
            zmax = zone.maxs[:, sel]
            # (chunks, parts, cols): a chunk can hold a member of a
            # part only if every column range overlaps the part's
            # box.  NaN zone entries (no finite value in the chunk's
            # column) compare False on both sides — correctly pruned,
            # since NaN coordinates fail every membership test.
            overlap = ((zmin[:, None, :] <= hi[None, :, :])
                       & (zmax[:, None, :] >= lo[None, :, :]))
            keep &= overlap.all(axis=2).any(axis=1)
    return keep, groups is not None


class ChunkScan:
    """A planned, zone-map-pruned evaluation of one region over a store.

    Parameters
    ----------
    store:
        The :class:`~repro.store.ChunkStore` to scan.
    region:
        Any region predicate (``Hull`` / ``UnionRegion`` /
        ``ConjunctiveRegion`` / ``ScaledRegion`` / ``BoxRegion`` /
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
        keep, self._prunable = _zone_map_keep(store, region, self.columns)
        self.first_chunk = max(0, min(int(first_chunk), len(keep)))
        keep[:self.first_chunk] = False
        self._keep = keep
        # Cumulative pruning telemetry (process default registry, under
        # store.scan.*) — the per-plan breakdown stays in `stats`.
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

    @property
    def stats(self):
        """Pruning accounting: chunks/rows scanned vs skipped."""
        counts = self.store.zone_maps.counts
        scanned = int(self._keep.sum())
        return {
            "chunks": int(len(self._keep)),
            "chunks_scanned": scanned,
            "chunks_watermarked": int(self.first_chunk),
            "chunks_pruned": int(len(self._keep) - scanned
                                 - self.first_chunk),
            "rows_total": int(counts.sum()),
            "rows_scanned": int(counts[self._keep].sum()),
            "prunable": bool(self._prunable),
        }

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


def optimizer_chunk_keep(store, columns, scaler, optimizer):
    """Chunks a few-shot optimizer's refinement could mark positive.

    The Meta* refinement demotes every positive prediction outside the
    outer subregion and promotes only points inside the inner subregion,
    so a chunk intersecting *neither* region's conservative bbox (in raw
    coordinates, through the subspace scaler) ends up all-negative
    regardless of the classifier — it can be skipped entirely without
    changing a bit of the output.  Returns a ``(n_chunks,)`` keep mask,
    or ``None`` when the optimizer gives no pruning leverage: no
    optimizer, or no **outer** region — the outer demotion is the step
    that zeroes classifier positives in skipped chunks, so without it
    pruning would be unsound even if an inner region existed.
    """
    if optimizer is None or optimizer.outer_region is None:
        return None
    regions = [r for r in (optimizer.outer_region, optimizer.inner_region)
               if r is not None]
    keep = np.zeros(store.zone_maps.n_chunks, dtype=bool)
    for region in regions:
        keep |= _zone_map_keep(store, ScaledRegion(region, scaler),
                              columns)[0]
    return keep


def session_chunk_keep(store, subsessions):
    """Chunks a whole conjunctive session could mark positive.

    ``subsessions`` maps each subspace to its online state (anything
    with ``state.scaler`` and ``optimizer`` — the framework's
    ``_SubspaceSession``).  One subspace's refinement zeroing a chunk
    zeroes the whole conjunction, so the per-subspace keeps from
    :func:`optimizer_chunk_keep` are ANDed; subspaces with no pruning
    leverage contribute all-True.  This is the single soundness site
    of the one store scan, ``core.framework.scan_conjunctions`` — which
    also does the counting: what it evaluated, skipped by watermark and
    pruned goes under ``store.scan.chunks.*`` per chunk·session.
    """
    keep = np.ones(store.zone_maps.n_chunks, dtype=bool)
    for subspace, subsession in subsessions.items():
        chunk_keep = optimizer_chunk_keep(
            store, subspace.columns, subsession.state.scaler,
            subsession.optimizer)
        if chunk_keep is not None:
            keep &= chunk_keep
    return keep
