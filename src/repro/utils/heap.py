"""Keep freed heap memory mapped between training steps (glibc only)."""

from __future__ import annotations

import ctypes
import functools

_M_TRIM_THRESHOLD = -1  # mallopt parameters, <malloc.h>
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20  # glibc's DEFAULT_MMAP_THRESHOLD_MAX on 64-bit


@functools.cache
def keep_freed_heap() -> None:
    """Set glibc's malloc thresholds to where its own heuristic tops out.

    A training step frees its whole autograd graph before the next step
    builds one of the same size.  At glibc's starting thresholds (arrays of
    128 KiB and up mmapped, the heap trimmed above 256 KiB free, both raised
    only when a large mmapped block is freed) small graphs — N=200, say —
    were handed back to the OS at the end of every step and faulted in again
    by the next: ~13× the minor faults and ~10× the sys time of keeping two
    graphs alive.  These are the thresholds glibc reaches by itself once a
    32 MiB array is freed: mmap from 32 MiB, trim above 64 MiB.  Runs once
    per process; a no-op where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)
