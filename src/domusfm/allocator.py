"""Process settings pinned at import: glibc's malloc thresholds and one BLAS thread.

Each pass allocates new arrays for op outputs and temporaries (the hot ops
reuse buffers within a call, not across calls), and the context encoder's
are megabytes each (a (64, 30, 256) float32 FFN activation is 1.9 MB). glibc
serves a request above its mmap threshold with a fresh ``mmap``, and gives
the top of the heap back to the kernel once more than its trim threshold lies
free there; either way the next pass faults the pages in again. By default
both thresholds adapt: they rise with the largest mmapped block freed so far
(the trim threshold to twice that). A pass that holds a few such blocks at
once then grows the heap past the trim threshold and shrinks it again on
every pass, or not, depending on what the process allocated before, down to
the locale it started in.

``pin_malloc_thresholds`` sets both thresholds once, so the adaptation is
off: every temporary up to 32 MB (the rule's highest mmap threshold) stays on
the heap, and the heap is never trimmed. A desk-size pretraining step used to
free up to 67 MB at the heap top (glibc's ``keepcost`` after backward), past
the rule's 64 MB trim ceiling, so it gave those pages back and faulted them in
again every step, or not, depending on what lay below them. Since backward
keeps only the arrays it reads, a step frees up to 51 MB there, under the
ceiling; a larger batch or model passes it again. A process started with
either threshold set (``MALLOC_MMAP_THRESHOLD_``, ``MALLOC_TRIM_THRESHOLD_`` or
their ``GLIBC_TUNABLES`` names) keeps its own; other C libraries are left
alone.

OpenBLAS splits a large GEMM across its threads, which reorders the float32
sums: the same pretraining run wrote other checkpoint bytes on two CPUs than on
one. ``pin_blas_threads`` sets one thread through the entry point that numpy's
wheels bundle, unless a thread variable is set; a numpy without that entry
point is left alone.
"""

from __future__ import annotations

import ctypes
import os
import sys

import numpy as np

M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
# the ceiling of glibc's adaptive mmap threshold on 64-bit; -1 turns trimming off
MMAP_THRESHOLD = 32 * 1024 * 1024
TRIM_THRESHOLD = -1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


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


def _openblas(name: str):
    """An entry point of the OpenBLAS that numpy's wheels bundle, or None."""
    core = getattr(np, "_core", None) or np.core
    try:
        return getattr(ctypes.CDLL(core._multiarray_umath.__file__), name)
    except (OSError, AttributeError):
        return None


def pin_blas_threads() -> bool:
    """Run numpy's bundled OpenBLAS on one thread; True when it was set."""
    if any(var in os.environ for var in BLAS_THREAD_VARS):
        return False
    set_threads = _openblas("scipy_openblas_set_num_threads64_")
    if set_threads is None:
        return False
    set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
    set_threads(1)
    return True


def blas_threads() -> int | None:
    """The thread count of numpy's bundled OpenBLAS; None when numpy has none."""
    get_threads = _openblas("scipy_openblas_get_num_threads64_")
    if get_threads is None:
        return None
    get_threads.argtypes, get_threads.restype = (), ctypes.c_int
    return get_threads()
