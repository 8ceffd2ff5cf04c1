"""Allocator policy of the array engine: freed memory stays in the process.

Every stacked step program builds its working set out of fresh arrays
and frees it when its adapt bucket, query pass or pretrain epoch ends —
tens of MB, over 100 MB for a paper-size meta-batch.  glibc's default
policy hands such memory back to the kernel as soon as it lies free at the top of the
heap (``M_TRIM_THRESHOLD``: 128 KiB, later twice the largest block it
has seen freed) and maps every block above ``M_MMAP_THRESHOLD`` afresh,
so the next step faults the same pages in again, zero-filled.  Whether a
given step pays that depends on what happens to sit above its arrays on
the heap: a paper-size ``fit_offline`` faulted 8 000 to 55 000 pages
(0.2 to 0.7 s of system time in a 2.4 s fit) from one call to the next.
Until PR 13 the optimizer step's own temporaries pinned the heap often
enough to hide most of it; the in-place step allocates nothing, so the
policy is now stated instead of left to the layout.

:func:`retain_freed_memory` runs once, when :mod:`repro.nn` is imported:
blocks up to 32 MiB (the largest threshold glibc accepts) come from the
heap, and the heap is trimmed only when a GiB of it lies free.  A
process's resident size then stays at its high-water mark instead of
following the live size down — the same memory a step later needs
again.  It changes no result, and does nothing where the C library is
not glibc.
"""

import ctypes

__all__ = ["retain_freed_memory"]

# <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 1 << 30


def retain_freed_memory():
    """Set the two thresholds; True if the C library took both."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):    # no glibc here
        return False
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
                and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD))
