"""Row-local numpy work on two row ranges, one per core.

numpy's ufuncs run on one core, while OpenBLAS runs a GEMM on every core
and its idle threads then spin, so a ufunc thread started right after a
GEMM finds no free core. ``parked`` makes the one decision: a block whose
job has more than ``ALIGN`` rows and reaches ``THRESHOLD`` values, where
numpy's OpenBLAS is found, runs with that OpenBLAS at one thread, and
inside it ``split_rows`` runs a function on two row ranges: the calling
thread takes the first and a one-thread module pool, created on first
use, the second. Each range runs its own one-thread GEMMs and its
elementwise passes over all its rows, so both use two cores. The range
count does not depend on the machine, so a split's bits do not either
(see below).

A split keeps every bit of a row-local function: each range computes its
rows as the whole call would. Its GEMMs keep their bits only where the
BLAS gives a product on the range's rows, at one thread, the bits of the
whole product at its own thread count. That holds at the shapes the tests
pin (``tests/test_losses.py``), not at every shape; it is the fact that
``generation.decode_latent``'s row blocks rest on too.

Outside a parked block, or for at most ``ALIGN`` rows, ``split_rows``
calls the function once on all rows, on the calling thread. Every job
split inside a parked block is the block's own job, of more than ``ALIGN``
rows, so it runs on the two ranges ``parked`` yields. There is no setting
for the pool, the threshold or the parking.
"""

from __future__ import annotations

import ctypes
import functools
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager

from .schema import DataError, read_input

THRESHOLD = 2**19  # values (rows x columns) from which parked parks a job
# the first range is a multiple of ALIGN rows: OpenBLAS's GEMV kernel takes
# rows in fours, so such a range keeps its rows' bits
ALIGN = 4

# (getter, setter) symbol pairs of numpy's OpenBLAS, in the order tried
_BLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

_pool: ThreadPoolExecutor | None = None
_split = False  # inside a parked block: split_rows runs two ranges


@functools.cache
def openblas_threads():
    """numpy's OpenBLAS thread-count getter and setter, or None: the first
    mapped library whose path names both ``openblas`` and ``numpy`` and that
    ``ctypes`` can load."""
    try:
        maps = read_input("/proc/self/maps").splitlines()
    except DataError:  # no /proc: not Linux
        return None
    # a maps line's sixth field, the path, may hold spaces
    libs = sorted({line.split(maxsplit=5)[5] for line in maps
                   if "openblas" in line and "numpy" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:  # not loadable here: parked runs unparked
            continue
        for get_name, set_name in _BLAS_SYMBOLS:
            get, put = getattr(handle, get_name, None), getattr(handle, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def parked(rows: int, cols: int):
    """Run the block with numpy's OpenBLAS at one thread and ``split_rows``
    on two ranges, if the job has more than ``ALIGN`` rows, ``rows * cols``
    reaches ``THRESHOLD`` and numpy's OpenBLAS is found; else run it as it
    is. Yields the ranges ``split_rows`` runs the job's rows on in the
    block: 2 when it parks, 1 otherwise. The thread count in force before
    the block is restored on the way out, also on error."""
    global _split
    blas = openblas_threads() if rows > ALIGN and rows * cols >= THRESHOLD else None
    if blas is None:
        yield 1
        return
    get, put = blas
    before, outer = get(), _split
    put(1)
    _split = True
    try:
        yield 2
    finally:
        _split = outer
        put(before)


def split_rows(fn, rows: int) -> None:
    """Call ``fn(lo, hi)`` on ranges that cover ``range(rows)`` and return
    when all are done: inside a parked block and for more than ``ALIGN``
    rows, ``fn(0, mid)`` on the calling thread and ``fn(mid, rows)`` on the
    pool, ``mid`` the multiple of ``ALIGN`` nearest half the rows; else
    ``fn(0, rows)``.
    ``fn`` writes its rows into arrays the caller allocated, allocates
    nothing larger than one value per row of its range, and calls nothing
    the benchmark traces: only the calling thread may record spans."""
    global _pool
    if not _split or rows <= ALIGN:
        fn(0, rows)
        return
    if _pool is None:
        _pool = ThreadPoolExecutor(1, "popsynth-rows")
    mid = (rows // 2 + ALIGN // 2) // ALIGN * ALIGN
    future = _pool.submit(fn, mid, rows)
    try:
        fn(0, mid)
    finally:
        wait([future])
    future.result()
