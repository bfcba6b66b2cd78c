"""The row-range helper: when it splits, how it splits, the BLAS thread count
around a parked block, and a desk chain's bytes at one and two ranges."""

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
# a job of more than ALIGN rows: its (rows, cols) at the threshold, and one
# column below it
ROWS = 2 * rowpool.ALIGN
AT = (ROWS, rowpool.THRESHOLD // ROWS)
BELOW = (ROWS, rowpool.THRESHOLD // ROWS - 1)


def ranges_of(rows):
    seen, lock = [], threading.Lock()

    def fn(lo, hi):
        with lock:
            seen.append((lo, hi, threading.get_ident()))

    rowpool.split_rows(fn, rows)
    return sorted(seen)


def test_split_rows_runs_inline_outside_a_parked_block_and_below_the_threshold():
    caller = threading.get_ident()
    assert ranges_of(400) == [(0, 400, caller)]  # not parked
    with rowpool.parked(*BELOW):
        assert ranges_of(400) == [(0, 400, caller)]


def test_parked_yields_two_ranges_from_the_threshold_and_one_below_it():
    if rowpool.openblas_threads() is None:
        pytest.skip("numpy's OpenBLAS is not found: nothing is parked")
    with rowpool.parked(*AT) as ranges:
        assert ranges == 2
    with rowpool.parked(*BELOW) as ranges:
        assert ranges == 1


def test_parked_leaves_a_job_of_align_rows_alone():
    """``split_rows`` runs a job of at most ``ALIGN`` rows on one range, so
    ``parked`` parks no such job, however many values it has."""
    blas = rowpool.openblas_threads()
    if blas is None:
        pytest.skip("numpy's OpenBLAS is not found: nothing is parked")
    get, _ = blas
    before, caller = get(), threading.get_ident()
    with rowpool.parked(rowpool.ALIGN, rowpool.THRESHOLD) as ranges:
        assert ranges == 1
        assert get() == before and ranges_of(400) == [(0, 400, caller)]


@pytest.mark.parametrize(
    "rows, bounds", [(400, [0, 200, 400]), (5, [0, 4, 5]), (4, [0, 4]), (3, [0, 3])]
)
def test_split_rows_covers_the_rows_in_even_ranges_on_fours(monkeypatch, rows, bounds):
    monkeypatch.setattr(rowpool, "_split", True)
    seen = ranges_of(rows)
    assert [(lo, hi) for lo, hi, _ in seen] == list(zip(bounds, bounds[1:]))
    assert seen[0][2] == threading.get_ident()  # the caller takes the first range


def test_split_rows_raises_a_ranges_error_after_every_range_ends(monkeypatch):
    monkeypatch.setattr(rowpool, "_split", True)
    done = []

    def fn(lo, hi):
        if lo > 0:
            raise ArithmeticError(f"rows {lo}:{hi}")
        done.append(lo)

    with pytest.raises(ArithmeticError, match="rows 4:8"):
        rowpool.split_rows(fn, 8)
    assert done == [0]


def test_split_rows_keeps_every_row_with_more_workers_than_cores(monkeypatch):
    """Two ranges on a fresh pool, with a short switch interval: every
    split softmin keeps the one-call form's bytes, so no range's rows are
    lost or written twice."""
    rng = np.random.default_rng(8)
    x, weights = rng.normal(size=(403, 257)), rng.integers(1, 4, size=257)
    want = oracles.one_call_softmin(x, 0.3, weights)
    monkeypatch.setattr(rowpool, "_split", True)
    monkeypatch.setattr(rowpool, "_pool", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            assert softmin(x, 0.3, weights).tobytes() == want.tobytes()
    finally:
        sys.setswitchinterval(interval)
        rowpool._pool.shutdown(wait=True)


def test_parked_sets_one_blas_thread_and_restores_the_count_on_error():
    blas = rowpool.openblas_threads()
    if blas is None:
        pytest.skip("numpy's OpenBLAS is not found: nothing is parked")
    get, _ = blas
    before = get()
    caller = threading.get_ident()
    with rowpool.parked(*BELOW):
        assert get() == before and ranges_of(400) == [(0, 400, caller)]
    with pytest.raises(KeyError):
        with rowpool.parked(*AT):
            assert get() == 1 and len(ranges_of(400)) == 2
            raise KeyError("inside")
    assert get() == before and ranges_of(400) == [(0, 400, caller)]


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
    unparked on one range (its matcher is below the threshold), then parked
    on two with the threshold at 0; the finetune manifest records the
    ranges. The matcher's shape is the desk recipe's, where the split GEMMs
    keep their bits (see the module docstring of ``popsynth.rowpool``)."""
    if rowpool.openblas_threads() is None:
        pytest.skip("numpy's OpenBLAS is not found: nothing is split")
    recipe = DESK.RECIPE | {
        "pretrain": DESK.RECIPE["pretrain"] | dict(epochs=6, decay_start=3),
        "finetune": DESK.RECIPE["finetune"] | dict(epochs=20, decay_start=10),
        "wide_sample": 300,
    }
    digests, workers = [], []
    for run in ("default", "parked"):
        if run == "parked":
            monkeypatch.setattr(rowpool, "THRESHOLD", 0)
        root = tmp_path / run
        DESK.run_chain(str(root), recipe)
        DESK.write_digests(str(root))
        digests.append(json.loads((root / "digests.json").read_text()))
        manifest = json.loads((root / "latent.psl.manifest.json").read_text())
        workers.append(manifest["config"]["matcher_workers"])
    assert workers == [1, 2]
    assert {"model.psv", "latent.psl", "syn_tuned/households.csv"} <= set(digests[0])
    assert digests[1] == digests[0]
