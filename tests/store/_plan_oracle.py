"""The per-session zone-map planner, kept as the test oracle of
``repro.store.scan.plan_conjunctions``.

This is the store scan's planning code before it was batched: every
session, every subspace and every region tested on its own against the
zone maps of the whole store, the raw-space boxes rebuilt from the
optimizer's regions on every call.  It counts nothing.
"""

import numpy as np

from repro.geometry.regions import ScaledRegion
from repro.store.scan import region_bounds


def zone_map_keep(store, region, columns):
    """``(n_chunks,)``: False where the chunk's zone map proves it holds
    no member of ``region`` (given over the store's ``columns``)."""
    zone = store.zone_maps
    keep = np.ones(zone.n_chunks, dtype=bool)
    bounds = region_bounds(region)
    if bounds is not None:
        lo, hi = bounds
        zmin = zone.mins[:, list(columns)]
        zmax = zone.maxs[:, list(columns)]
        overlap = ((zmin[:, None, :] <= hi[None, :, :])
                   & (zmax[:, None, :] >= lo[None, :, :]))
        keep = overlap.all(axis=2).any(axis=1)
    return keep


def optimizer_chunk_keep(store, columns, scaler, optimizer):
    """Chunks a few-shot optimizer's refinement could mark positive, or
    None without an optimizer or an outer region."""
    if optimizer is None or optimizer.outer_region is None:
        return None
    regions = [r for r in (optimizer.outer_region, optimizer.inner_region)
               if r is not None]
    keep = np.zeros(store.zone_maps.n_chunks, dtype=bool)
    for region in regions:
        keep |= zone_map_keep(store, ScaledRegion(region, scaler), columns)
    return keep


def session_chunk_keep(store, subsessions):
    """Chunks a whole conjunctive session could mark positive: the AND
    of its subspaces' keeps."""
    keep = np.ones(store.zone_maps.n_chunks, dtype=bool)
    for subspace, subsession in subsessions.items():
        chunk_keep = optimizer_chunk_keep(
            store, subspace.columns, subsession.state.scaler,
            subsession.optimizer)
        if chunk_keep is not None:
            keep &= chunk_keep
    return keep
