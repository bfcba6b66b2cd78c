"""One census chain, checked, with the sha256 of every output.

Writes perfbench's census inputs (``make_inputs``) to ``<work-dir>/data``
and runs one chain of the benchmark (``run_chain``: restructure, pretrain,
finetune, generate x3, evaluate x2, privacy) into ``<work-dir>/chain``,
with every data and stage seed derived from ``--seed`` as the benchmark
derives them. It then writes ``<work-dir>/digests.json`` with
``run_desk_pipeline.write_digests``: the sha256 of every file under the
work directory except the manifests. Two checkouts compare by comparing
their digests (or their trees, with ``scripts/compare_outputs.py``).

Usage: python scripts/run_census_chain.py --work-dir /tmp/census [--seed 3]

Exits 1, after naming them, if any of the chain's checks fails.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "scripts")]

import run  # noqa: E402  (perfbench/run.py)
from run_desk_pipeline import write_digests  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--work-dir", required=True, type=Path)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args(argv)

    w = run.WORKLOADS["census"]
    data = args.work_dir / "data"
    run.make_inputs(w, args.seed, data)
    _, checks, _ = run.run_chain(w, data, args.seed, args.work_dir / "chain")
    failed = [name for name, ok in checks if not ok]
    if failed:
        print(f"census chain failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    write_digests(str(args.work_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
