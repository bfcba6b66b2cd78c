"""The row-range helper: when it splits, how it splits, the BLAS thread count
around a parked block, and a desk chain's bytes at one and two workers."""

import json
import os
import sys
import threading

import numpy as np
import pytest

import oracles
from conftest import load_desk_script
from popsynth import rowpool
from popsynth.losses import softmin

DESK = load_desk_script()


def ranges_of(rows, cols):
    seen, lock = [], threading.Lock()

    def fn(lo, hi):
        with lock:
            seen.append((lo, hi, threading.get_ident()))

    rowpool.split_rows(fn, rows, cols)
    return sorted(seen)


def test_split_rows_runs_inline_outside_a_parked_block_and_below_the_threshold(monkeypatch):
    caller = threading.get_ident()
    assert ranges_of(400, 4000) == [(0, 400, caller)]  # not parked
    monkeypatch.setattr(rowpool, "_workers", 2)
    assert ranges_of(400, 100) == [(0, 400, caller)]  # 40,000 values
    monkeypatch.setattr(rowpool, "_workers", 1)
    assert ranges_of(400, 4000) == [(0, 400, caller)]


@pytest.mark.parametrize(
    "rows, workers, bounds",
    [(400, 2, [0, 200, 400]), (400, 3, [0, 132, 268, 400]), (401, 4, [0, 100, 200, 300, 401]),
     (12, 4, [0, 4, 8, 12]), (5, 2, [0, 4, 5]), (3, 4, [0, 3])],
)
def test_split_rows_covers_the_rows_in_even_ranges_on_fours(monkeypatch, rows, workers, bounds):
    monkeypatch.setattr(rowpool, "THRESHOLD", 0)
    monkeypatch.setattr(rowpool, "_workers", workers)
    seen = ranges_of(rows, 10)
    assert [(lo, hi) for lo, hi, _ in seen] == list(zip(bounds, bounds[1:]))
    assert seen[0][2] == threading.get_ident()  # the caller takes the first range


def test_split_rows_raises_a_ranges_error_after_every_range_ends(monkeypatch):
    monkeypatch.setattr(rowpool, "THRESHOLD", 0)
    monkeypatch.setattr(rowpool, "_workers", 2)
    done = []

    def fn(lo, hi):
        if lo > 0:
            raise ArithmeticError(f"rows {lo}:{hi}")
        done.append(lo)

    with pytest.raises(ArithmeticError, match="rows 4:8"):
        rowpool.split_rows(fn, 8, 1)
    assert done == [0]


def test_split_rows_keeps_every_row_with_more_workers_than_cores(monkeypatch):
    """Eight ranges on a fresh pool of up to seven threads, with a short
    switch interval: every split softmin keeps the one-call form's bytes, so
    no range's rows are lost or written twice."""
    rng = np.random.default_rng(8)
    x, weights = rng.normal(size=(403, 257)), rng.integers(1, 4, size=257)
    want = oracles.one_call_softmin(x, 0.3, weights)
    monkeypatch.setattr(rowpool, "THRESHOLD", 0)
    monkeypatch.setattr(rowpool, "WORKERS", 8)
    monkeypatch.setattr(rowpool, "_workers", 8)
    monkeypatch.setattr(rowpool, "_pool", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            assert softmin(x, 0.3, weights).tobytes() == want.tobytes()
    finally:
        sys.setswitchinterval(interval)
        rowpool._pool.shutdown(wait=True)


def test_parked_sets_one_blas_thread_and_restores_the_count_on_error(monkeypatch):
    blas = rowpool.openblas_threads()
    if blas is None:
        pytest.skip("numpy's OpenBLAS is not found: nothing is parked")
    get, _ = blas
    before = get()
    with rowpool.parked(rowpool.THRESHOLD - 1):
        assert get() == before and rowpool.ranges(400, 4000) == 1
    with pytest.raises(KeyError):
        with rowpool.parked(rowpool.THRESHOLD):
            assert get() == 1 and rowpool.ranges(400, 4000) == 2
            raise KeyError("inside")
    assert get() == before and rowpool.ranges(400, 4000) == 1


def test_openblas_path_may_hold_a_space_and_an_unloadable_one_is_skipped(
    tmp_path, monkeypatch
):
    """A maps line's path may hold spaces: numpy's OpenBLAS under such a
    directory is found; a line naming a library that does not load finds
    none, so a parked block runs unparked instead of failing."""
    blas = rowpool.openblas_threads()
    if blas is None:
        pytest.skip("numpy's OpenBLAS is not found")
    with open("/proc/self/maps") as fh:
        real = sorted(line.split(maxsplit=5)[5].rstrip("\n") for line in fh
                      if "openblas" in line and "numpy" in line)[0]
    link = tmp_path / "my env" / "numpy.libs" / os.path.basename(real)
    link.parent.mkdir(parents=True)
    link.symlink_to(real)
    line = "7f0000000000-7f0000001000 r-xp 00000000 08:01 42                 {}\n"
    try:
        for path, found in ((link, True), (tmp_path / "numpy.libs" / "libopenblas.so", False)):
            monkeypatch.setattr(rowpool, "read_input", lambda _, path=path: line.format(path))
            rowpool.openblas_threads.cache_clear()
            got = rowpool.openblas_threads()
            assert (got is not None) == found
            if found:
                assert got[0]() == blas[0]()
    finally:
        rowpool.openblas_threads.cache_clear()


def test_desk_chain_keeps_its_bytes_at_one_and_two_workers(tmp_path, monkeypatch):
    """The desk recipe's data and tract with a few epochs: every output,
    unparked (its matcher is below the threshold), then parked at one and at
    two workers with the threshold at 0; the finetune manifest records the
    workers. The matcher's shape is the desk recipe's, where the split GEMMs
    keep their bits (see the module docstring of ``popsynth.rowpool``)."""
    if rowpool.openblas_threads() is None:
        pytest.skip("numpy's OpenBLAS is not found: nothing is split")
    recipe = DESK.RECIPE | {
        "pretrain": DESK.RECIPE["pretrain"] | dict(epochs=6, decay_start=3),
        "finetune": DESK.RECIPE["finetune"] | dict(epochs=20, decay_start=10),
        "wide_sample": 300,
    }
    digests, workers = [], []
    for run, forced in (("default", None), ("one", 1), ("two", 2)):
        if forced is not None:
            monkeypatch.setattr(rowpool, "THRESHOLD", 0)
            monkeypatch.setattr(rowpool, "WORKERS", forced)
        root = tmp_path / run
        DESK.run_chain(str(root), recipe)
        DESK.write_digests(str(root))
        digests.append(json.loads((root / "digests.json").read_text()))
        manifest = json.loads((root / "latent.psl.manifest.json").read_text())
        workers.append(manifest["config"]["matcher_workers"])
    assert workers == [1, 1, 2]
    assert {"model.psv", "latent.psl", "syn_tuned/households.csv"} <= set(digests[0])
    assert digests[1] == digests[0] and digests[2] == digests[0]
