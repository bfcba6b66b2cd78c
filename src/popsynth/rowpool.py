"""Row-local numpy work on even row ranges, one range per worker thread.

numpy's ufuncs run on one core, while OpenBLAS runs a GEMM on every core
and its idle threads then spin, so a ufunc thread started right after a
GEMM finds no free core. Inside a ``parked`` block, numpy's OpenBLAS runs
one thread, and ``split_rows`` runs a function on even row ranges: the
calling thread takes the first range and a module pool, created on first
use, the others, ``min(4, CPUs)`` ranges in all. Each range runs its own
one-thread GEMMs and its elementwise passes over all its rows, so both use
every core.

A split keeps every bit of a row-local function: each range computes its
rows as the whole call would. Its GEMMs keep their bits only where the
BLAS gives a product on the range's rows, at one thread, the bits of the
whole product at its own thread count. That holds at the shapes the tests
pin (``tests/test_losses.py``), not at every shape; it is the fact that
``generation.decode_latent``'s row blocks rest on too.

Outside a parked block, below ``THRESHOLD`` values, or with one worker,
``split_rows`` calls the function once on all rows, on the calling thread.
There is no setting for the pool, the threshold or the parking.
"""

from __future__ import annotations

import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager

from .schema import DataError, read_input

THRESHOLD = 2**19  # values (rows x columns) from which a job is split
# every range but the last is a multiple of ALIGN rows: OpenBLAS's GEMV
# kernel takes rows in fours, so such a range keeps its rows' bits
ALIGN = 4

# (getter, setter) symbol pairs of numpy's OpenBLAS, in the order tried
_BLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

_pool: ThreadPoolExecutor | None = None
_workers = 0  # ranges per split inside a parked block; 0 outside one


def max_workers() -> int:
    """Ranges per split inside a parked block: the CPUs this process may
    run on, at most 4."""
    return min(4, len(os.sched_getaffinity(0)))


@functools.cache
def openblas_threads():
    """numpy's OpenBLAS thread-count getter and setter, or None: the mapped
    library whose path names both ``openblas`` and ``numpy``."""
    try:
        maps = read_input("/proc/self/maps").splitlines()
    except DataError:  # no /proc: not Linux
        return None
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line and "numpy" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for get_name, set_name in _BLAS_SYMBOLS:
            get, put = getattr(handle, get_name, None), getattr(handle, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def parked(values: int):
    """Run the block with numpy's OpenBLAS at one thread and ``split_rows``
    on up to ``max_workers()`` ranges, if a job of ``values`` reaches
    ``THRESHOLD`` and numpy's OpenBLAS is found; else run it as it is. The
    thread count in force before the block is restored on the way out, also
    on error."""
    global _workers
    blas = openblas_threads() if values >= THRESHOLD else None
    if blas is None:
        yield
        return
    get, put = blas
    before, outer = get(), _workers
    put(1)
    _workers = max_workers()
    try:
        yield
    finally:
        _workers = outer
        put(before)


def ranges(rows: int, cols: int) -> int:
    """How many ranges ``split_rows`` runs a job of ``rows`` x ``cols``
    values on, here and now: 1 outside a parked block."""
    return max(1, min(_workers, -(-rows // ALIGN))) if rows * cols >= THRESHOLD else 1


def split_rows(fn, rows: int, cols: int) -> None:
    """Call ``fn(lo, hi)`` on even ranges that cover ``range(rows)``, one per
    worker, each starting on a multiple of ``ALIGN`` rows, and return when
    all are done; a job is ``rows * cols`` values.
    ``fn`` writes its rows into arrays the caller allocated, allocates
    nothing larger than one value per row of its range, and calls nothing
    the benchmark traces: only the calling thread may record spans."""
    global _pool
    w = ranges(rows, cols)
    if w < 2:
        fn(0, rows)
        return
    if _pool is None:
        _pool = ThreadPoolExecutor(max(1, max_workers() - 1), "popsynth-rows")
    bounds = [min(rows, (rows * k // w + ALIGN // 2) // ALIGN * ALIGN) for k in range(w)] + [rows]
    futures = [_pool.submit(fn, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        fn(bounds[0], bounds[1])
    finally:
        wait(futures)
    for f in futures:
        f.result()
