"""Chunked columnar dataset store with zone-map pruning.

``repro.store`` is the out-of-core data substrate: tables split into
fixed-size row chunks (in memory or memory-mapped from disk), each chunk
carrying a zone map (per-attribute min/max, row count, NaN flags, content
digest).  The scan planner turns any region predicate into a chunk-pruned
evaluation — whole chunks whose zone map cannot intersect the region's
conservative bounding box are skipped before the exact packed membership
test runs on the survivors, bit-identically to a full scan.

Callers across the stack branch on ``hasattr(rows, "iter_chunks")``
rather than importing this package: the chunk-iteration protocol *is*
the store interface, and the duck check keeps every layer importable
without the store loaded.
"""

from .chunks import (DEFAULT_CHUNK_ROWS, ChunkStore, StoreCorruptedError,
                     StoreReadOnlyError, ZoneMaps)
from .ingest import FreshnessMonitor
from .scan import (ChunkScan, plan_conjunctions, region_bounds,
                   scan_region, session_chunk_keep)

__all__ = [
    "ChunkStore", "ZoneMaps", "DEFAULT_CHUNK_ROWS",
    "StoreCorruptedError", "StoreReadOnlyError", "FreshnessMonitor",
    "ChunkScan", "region_bounds", "scan_region", "plan_conjunctions",
    "session_chunk_keep",
]
