"""Fixed glibc malloc thresholds for numpy's large temporaries.

Every autodiff op returns a fresh array, and the context encoder's are
megabytes each (a (64, 30, 256) float32 FFN activation is 1.9 MB). glibc
serves a request above its mmap threshold with a fresh ``mmap``, and gives
the top of the heap back to the kernel once more than its trim threshold lies
free there; either way the next pass faults the pages in again. By default
both thresholds adapt: they rise with the largest mmapped block freed so far
(the trim threshold to twice that). A pass that holds a few such blocks at
once then grows the heap past the trim threshold and shrinks it again on
every pass, or not, depending on what the process allocated before, down to
the locale it started in.

``pin_malloc_thresholds`` sets both thresholds once, to the highest values
glibc's adaptive rule would reach: every temporary up to 32 MB stays on the
heap, and the adaptation is off. A process started with either threshold set
(``MALLOC_MMAP_THRESHOLD_``, ``MALLOC_TRIM_THRESHOLD_`` or their
``GLIBC_TUNABLES`` names) keeps its own; other C libraries are left alone.
"""

from __future__ import annotations

import ctypes
import os
import sys

M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
# the ceiling of glibc's adaptive mmap threshold on 64-bit, and twice that
# for trimming, as its own rule would set them
MMAP_THRESHOLD = 32 * 1024 * 1024
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def pin_malloc_thresholds() -> bool:
    """Set glibc's mmap and trim thresholds; True when both were set."""
    if not sys.platform.startswith("linux"):
        return False
    tunables = os.environ.get("GLIBC_TUNABLES", "")
    if "MALLOC_MMAP_THRESHOLD_" in os.environ or "MALLOC_TRIM_THRESHOLD_" in os.environ \
            or "mmap_threshold" in tunables or "trim_threshold" in tunables:
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)) \
        and bool(mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD))
