"""Acceptance criteria 4-7 over seed pairs of the desk recipe.

Usage: python scripts/seed_sweep.py --pairs 6 --out sweep.json

Pair 0 is the recipe's own (pretrain seed 21, finetune seed 7); pair k >= 1
takes pretrain seed k and finetune seed 10 + k. Each pair runs
``run_desk_pipeline.run_chain`` in a fresh temporary directory and scores
it with ``run_desk_pipeline.scorecard``. The JSON holds each pair's seeds,
seconds and scorecard, and per criterion the number of pairs that pass and
the median of each of its numbers.

It gates nothing. One seed pair can pass or fail a bound by chance, so a
change that moves pretrain or finetune bits runs the sweep on both sides
and reports both files.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]

import run_desk_pipeline as desk  # noqa: E402
from popsynth.schema import write_json  # noqa: E402


def sweep(pairs: int, recipe: dict) -> dict:
    """The scorecards of ``pairs`` seed pairs of ``recipe``, and their
    pass counts and medians per criterion."""
    runs = []
    for k in range(pairs):
        pre, fine = (recipe["pretrain"]["seed"], recipe["finetune"]["seed"]) if k == 0 else (k, 10 + k)
        pair = recipe | {"pretrain": recipe["pretrain"] | {"seed": pre},
                         "finetune": recipe["finetune"] | {"seed": fine}}
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="seed_sweep_") as work:
            desk.run_chain(work, pair)
            card = desk.scorecard(work)
        runs.append({"pretrain_seed": pre, "finetune_seed": fine,
                     "seconds": time.perf_counter() - t0, **card})
    criteria = {
        key: {"passes": sum(run[key]["pass"] for run in runs),
              "median": {name: statistics.median(run[key][name] for run in runs)
                         for name, value in runs[0][key].items() if isinstance(value, float)}}
        for key in desk.NAMES
    }
    return {"pairs": runs, "criteria": criteria}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    result = sweep(args.pairs, desk.RECIPE)
    write_json(args.out, result)
    for key, entry in result["criteria"].items():
        print(f"{key} {desk.NAMES[key]}: {entry['passes']}/{args.pairs} pass, "
              f"median {entry['median']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
