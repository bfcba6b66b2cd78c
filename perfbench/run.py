"""popsynth pipeline benchmark.

Runs one workload's CLI chain (restructure -> pretrain -> finetune ->
generate x3 -> evaluate x2 -> privacy) again and again for --seconds, in this
process, through ``popsynth.cli.run``: a single closed-loop client, one
command after another, no concurrency. Every data and stage seed comes from
--seed. Each chain's outputs are checked, and the last line of standard
output is one JSON object with the result.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 50 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced chains and reports its per-layer metrics.
See perfbench/README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3

# acceptance recipe (tests/test_acceptance.py) with truncated epochs
MODEL_FLAGS = [
    "--batch-size", "125", "--latent-dim", "3", "--hidden-widths", "48,48,40,40,32,32",
    "--reparam-mode", "standard", "--kl-weight", "0.3", "--focal-gamma", "0.0",
    "--lr", "1e-3", "--min-lr", "1e-4",
]
FINETUNE_FLAGS = [
    "--lr", "2e-3", "--min-lr", "2e-4", "--w-marginal", "5.0", "--w-dbce", "0.5",
    "--w-normkl", "0.1", "--temperature", "0.05",
]


@dataclass(frozen=True)
class Workload:
    name: str
    source: str  # "oracle" (oracle-make) or "census" (census.write_census)
    households: int
    tract_households: int
    pretrain_epochs: int
    finetune_epochs: int
    wide_rows: int  # rows of the prior inventory evaluated against the microdata


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk", "oracle", 2000, 400, pretrain_epochs=30, finetune_epochs=60, wide_rows=8000),
        Workload("census", "census", 4000, 400, pretrain_epochs=6, finetune_epochs=16, wide_rows=8000),
    )
}

REPORT_COMMANDS = ("restructure", "generate", "evaluate", "privacy")
CHAIN_COMMANDS = ("restructure", "pretrain", "finetune", "generate", "evaluate", "privacy")


def read_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def stage_seeds(seed: int) -> dict[str, int]:
    import numpy as np

    names = ("data", "pretrain", "finetune", "prior", "generate")
    return dict(zip(names, (int(s) for s in np.random.SeedSequence(seed).generate_state(len(names)))))


def make_inputs(w: Workload, seed: int, out: Path) -> None:
    """The workload's input files: schema, microdata and tract marginals."""
    data_seed = stage_seeds(seed)["data"]
    if w.source == "census":
        import census

        census.write_census(out, data_seed, w.households, w.tract_households)
        return
    from popsynth import cli

    rc = cli.run(["oracle-make", "--out-dir", str(out), "--households", str(w.households),
                  "--tract-households", str(w.tract_households), "--seed", str(data_seed)])
    if rc != 0:
        raise ChainFailed(f"oracle-make exited {rc}")


class ChainFailed(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# one chain


class Chain:
    """One pass of the CLI chain in ``out``; records times and exit codes."""

    def __init__(self, w: Workload, data: Path, out: Path, seeds: dict, recorder=None):
        self.w, self.data, self.out, self.seeds, self.recorder = w, data, out, seeds, recorder
        self.times: dict[str, float] = {}
        self.rcs: list[tuple[str, int]] = []
        self.model = None

    def cli(self, *argv) -> None:
        from popsynth import cli

        argv = [str(a) for a in argv]
        t0 = time.perf_counter()
        if self.recorder is None:
            rc = cli.run(argv)
        else:
            with self.recorder.span(f"cli.{argv[0]}"):
                rc = cli.run(argv)
        self.times[argv[0]] = self.times.get(argv[0], 0.0) + time.perf_counter() - t0
        self.rcs.append((argv[0], rc))
        if rc != 0:
            raise ChainFailed(f"{argv[0]} exited {rc}")

    def run(self) -> None:
        from popsynth import training, vae

        w, d, o, s = self.w, self.data, self.out, self.seeds
        micro = ["--schema", d / "schema.json", "--microdata-hh", d / "households.csv",
                 "--microdata-p", d / "persons.csv"]
        targets = ["--tract-marginals", d / "tract_marginals.csv"]
        t0 = time.perf_counter()
        self.cli("restructure", *micro, "--out-dir", o / "restructured", "--write-encoded")
        self.cli("pretrain", *micro, "--out", o / "model.psv", "--seed", s["pretrain"],
                 "--epochs", w.pretrain_epochs, "--decay-start", int(w.pretrain_epochs * 0.3),
                 *MODEL_FLAGS)
        self.cli("finetune", *micro, *targets, "--model", o / "model.psv",
                 "--out-latent", o / "latent.psl", "--seed", s["finetune"],
                 "--epochs", w.finetune_epochs, "--decay-start", w.finetune_epochs // 3,
                 *FINETUNE_FLAGS)
        # prior inventories: a wide sample, and the exact rows finetune started from
        model = self.model = vae.load_model(o / "model.psv")
        for name, rows, seed in (("prior_wide.psl", w.wide_rows, s["prior"]),
                                 ("prior_tract.psl", w.tract_households, s["finetune"])):
            training.save_latent(training.init_latent(rows, model.latent_dim, seed), o / name,
                                 model.schema_fingerprint, model.checksum())
        gen = ["--model", o / "model.psv", "--schema", d / "schema.json", "--seed", s["generate"]]
        if (d / "rules.json").exists():
            gen += ["--rules", d / "rules.json"]
        for latent, inv in (("prior_wide.psl", "syn_wide"), ("prior_tract.psl", "syn_tract"),
                            ("latent.psl", "syn_tuned")):
            self.cli("generate", *gen, "--latent", o / latent, "--out-dir", o / inv)
        for inv in ("syn_wide", "syn_tuned"):
            self.cli("evaluate", *micro, *targets, "--syn-hh", o / inv / "households.csv",
                     "--syn-p", o / inv / "persons.csv", "--out-dir", o / f"report_{inv[4:]}")
        self.cli("privacy", *micro, "--a-hh", o / "syn_tract/households.csv",
                 "--a-p", o / "syn_tract/persons.csv", "--b-hh", o / "syn_tuned/households.csv",
                 "--b-p", o / "syn_tuned/persons.csv", "--out-dir", o / "privacy")
        self.times["pipeline"] = time.perf_counter() - t0


# ---------------------------------------------------------------------------
# output checks


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


MANIFESTS = ("restructured/manifest.json", "model.psv.manifest.json", "latent.psl.manifest.json",
             "syn_wide/manifest.json", "syn_tract/manifest.json", "syn_tuned/manifest.json",
             "report_wide/manifest.json", "report_tuned/manifest.json", "privacy/manifest.json")


def check_chain(w: Workload, out: Path) -> tuple[list[tuple[str, bool]], dict]:
    """Checks on one finished chain, and the values read from its outputs.

    Returns (check name, passed) pairs and a dict with the quality metrics,
    the dropped-household ratio and the sha256 of every manifest output.
    """
    checks, found = [], {"hashes": {}}
    for rel in MANIFESTS:
        manifest = out / rel
        outputs = json.loads(manifest.read_text())["outputs"]
        ok = True
        for name, digest in outputs.items():
            actual = _sha256(manifest.parent / name)
            found["hashes"][f"{manifest.parent.name}/{name}"] = actual
            ok &= actual == digest
        checks.append((f"sha256 {rel}", ok))
    dropped = latent_rows = 0
    for inv in ("syn_wide", "syn_tract", "syn_tuned"):
        prov = json.loads((out / inv / "provenance.json").read_text())
        emitted = len(_rows(out / inv / "households.csv"))
        checks.append((f"rows {inv}", emitted + prov["dropped_households"] == prov["n_latent_rows"]))
        dropped += prov["dropped_households"]
        latent_rows += prov["n_latent_rows"]
    found["dropped_ratio"] = dropped / latent_rows
    # every epoch ran, so a "speed-up" cannot come from skipping training
    checks.append(("pretrain epochs", len(_rows(out / "model.psv.history.csv")) == w.pretrain_epochs))
    history = _rows(out / "latent.psl.history.csv")
    checks.append(("finetune epochs", len(history) == w.finetune_epochs))
    checks.append(("finetune total falls", float(history[-1]["total"]) < float(history[0]["total"])))
    mean = next(r for r in _rows(out / "report_tuned/marginals_report.csv") if r["variable"] == "__mean__")
    found["tract_rmse"] = float(mean["rmse_vs_target"])
    found["finetune_loss"] = float(
        json.loads((out / "latent.psl.soft_marginals.json").read_text())["final_losses"]["total"]
    )
    checks.append(("tract_rmse finite", math.isfinite(found["tract_rmse"])))
    checks.append(("finetune_loss finite", math.isfinite(found["finetune_loss"])))
    return checks, found


# ---------------------------------------------------------------------------
# facts


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and "numpy" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                threads = int(fn())
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def workload_facts(w: Workload, seed: int, chain_out: Path, model) -> dict:
    with open(chain_out / "restructured/encoded.csv", encoding="utf-8") as fh:
        rows = fh.read().splitlines()[1:]
    return {
        "workload": w.name,
        "seed": seed,
        "stage_seeds": stage_seeds(seed),
        "rows": len(rows),
        "tract_rows": w.tract_households,
        "columns": model.d,
        "groups": len(model.groups),
        "param_scalars": sum(p.value.size for p in model.parameters()),
        # encoded.csv prints equal rows as equal text
        "unique_row_ratio": len(set(rows)) / len(rows),
    }


# ---------------------------------------------------------------------------
# the run

SETUP_CODE = (
    "import json, sys; sys.path[:0] = sys.argv[1:3]; import run; "
    "run.make_inputs(run.Workload(**json.loads(sys.argv[3])), int(sys.argv[4]), run.Path(sys.argv[5]))"
)


def timed_setups(w: Workload, seed: int, work: Path) -> tuple[list[float], list[tuple[str, bool]], Path]:
    """Set up SETUP_REPEATS times, each in a fresh interpreter so that the
    imports are paid every time; every copy must be byte-identical."""
    times, digests = [], []
    for k in range(SETUP_REPEATS):
        out = work / f"setup{k}"
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(HERE), str(SRC),
                               json.dumps(asdict(w)), str(seed), str(out)])
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            return times, [("setup", False)], out
        # oracle-make's manifest holds timestamps and the output path
        digests.append({p.name: _sha256(p) for p in sorted(out.iterdir()) if p.name != "manifest.json"})
    same = all(d == digests[0] for d in digests)
    return times, [("setup", True), ("setup reproducible", same)], work / "setup0"


def run_chain(w: Workload, data: Path, seed: int, out: Path, recorder=None):
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    chain = Chain(w, data, out, stage_seeds(seed), recorder)
    try:
        chain.run()
        checks, found = check_chain(w, out)
    except ChainFailed:
        checks, found = [], {}
    except (OSError, ValueError, KeyError, StopIteration) as exc:
        # an output that is missing or unreadable fails the chain
        print(f"check failed: {exc!r}", file=sys.stderr)
        checks, found = [("outputs readable", False)], {}
    return chain, [(sub, rc == 0) for sub, rc in chain.rcs] + checks, found


def layer_metrics(recorder, setup_spans) -> dict[str, float]:
    import spans

    stats = spans.self_times(recorder.spans)
    # set-up runs only for the oracle.* names; its other calls (the census
    # writer's schema.marginal_counts, say) are not part of the chain
    stats.update((n, v) for n, v in spans.self_times(setup_spans).items() if n.startswith("oracle."))
    out = {}
    for name in spans.span_names():
        calls, self_s = stats.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    for sub in CHAIN_COMMANDS:
        out[f"cli.{sub}.s"] = sum(e - s for n, s, e, _ in recorder.spans if n == f"cli.{sub}")
        out[f"cli.{sub}.self_s"] = stats.get(f"cli.{sub}", (0, 0.0))[1]
    for name in ("losses.dbce.pairs", "evaluation.dcr.pairs", "training.Lion.step.scalars"):
        out[name] = recorder.counts.get(name, 0)
    return out


def benchmark(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Set up, then run chains until ``seconds`` would be exceeded (at least
    one). In trace mode every untraced chain is followed by a traced one."""
    import spans
    from popsynth import cli  # noqa: F401  (imported before anything is timed)

    ops: list[tuple[str, bool]] = []
    res = {"ops": ops, "chains": [], "found": [], "layers": [], "traced_pipeline": [],
           "setup_times": [], "facts": None}
    setup_spans: list = []
    if trace:
        rec = spans.SpanRecorder()
        data = work / "setup0"
        try:
            with spans.installed(rec):
                make_inputs(w, seed, data)
        except ChainFailed:
            ops.append(("setup", False))
            return res
        setup_spans = list(rec.spans)
    else:
        res["setup_times"], setup_ops, data = timed_setups(w, seed, work)
        ops += setup_ops
        if not all(ok for _, ok in setup_ops):
            return res

    recorder = spans.SpanRecorder()
    first_hashes = None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        chain, chain_ops, found = run_chain(w, data, seed, work / "chain")
        ops += chain_ops
        if not found:
            break
        if first_hashes is None:
            first_hashes = found["hashes"]
            res["facts"] = workload_facts(w, seed, work / "chain", chain.model)
        else:
            ops.append(("outputs identical across chains", found["hashes"] == first_hashes))
        res["chains"].append(chain.times)
        res["found"].append(found)
        if trace:
            recorder.clear()
            with spans.installed(recorder):
                tchain, chain_ops, tfound = run_chain(w, data, seed, work / "chain", recorder)
            ops += chain_ops
            if not tfound:
                break
            ops.append(("traced outputs identical", tfound["hashes"] == first_hashes))
            res["traced_pipeline"].append(tchain.times["pipeline"])
            res["layers"].append(layer_metrics(recorder, setup_spans))
        lap = time.perf_counter() - t0
        if time.perf_counter() + lap > start + seconds:
            break
    return res


def summary_values(res: dict) -> dict[str, float]:
    """Every metric the run can report, by name."""
    med, mean = statistics.median, statistics.mean
    chains, found = res["chains"], res["found"]
    # Chain timings are means, not medians: this machine's speed flips
    # between states about 1.3x apart for seconds to minutes, and a median of
    # a few chains jumps between the states where a mean does not. The first
    # chain in a process pays one-off costs (page faults, lazy imports) and
    # is left out when there are others.
    timed = chains[1:] or chains
    values = {
        "setup_s": med(res["setup_times"] or [math.nan]),
        "pipeline_s": mean(c["pipeline"] for c in timed),
        "pretrain_s": mean(c["pretrain"] for c in timed),
        "finetune_s": mean(c["finetune"] for c in timed),
        "report_s": mean(sum(c[k] for k in REPORT_COMMANDS) for c in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "quality.tract_rmse": med(f["tract_rmse"] for f in found),
        "quality.finetune_loss": med(f["finetune_loss"] for f in found),
        "generation.dropped_ratio": med(f["dropped_ratio"] for f in found),
    }
    if res["layers"]:
        for name in res["layers"][0]:
            values[name] = med(layer[name] for layer in res["layers"])
        # each traced chain against the untraced chain just before it,
        # leaving out the first pair as the chain timings do
        pairs = list(zip(res["traced_pipeline"], (c["pipeline"] for c in chains)))
        values["trace.overhead_s"] = med(t - u for t, u in pairs[1:] or pairs)
        for key in ("unique_row_ratio", "columns", "groups"):
            values[f"data.{key}"] = res["facts"][key]
    return values


def summarize(res: dict, trace: bool) -> dict:
    """The metrics BENCHMARK.json lists for this mode, with their units."""
    values = summary_values(res)
    spec = read_spec()["per_layer" if trace else "end_to_end"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "popsynth" / "__init__.py").is_file():
        print(f"error: no popsynth sources under {SRC}; run from a popsynth checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".bench_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        res = benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ops = res["ops"]
    failed = sum(not ok for _, ok in ops)
    complete = res["layers"] if args.trace else res["chains"]
    metrics = summarize(res, bool(args.trace)) if complete else {}
    facts = {
        "machine": machine_facts(), "workload": res["facts"], "chains": len(res["chains"]),
        "per_chain": res["chains"], "failed_checks": [name for name, ok in ops if not ok],
    }
    print("facts " + json.dumps(facts, sort_keys=True))
    # printed but not gated by BENCHMARK.json; the README says why
    ungated = {"fail_ratio": (failed / len(ops), "ratio")}
    if res["chains"] and not args.trace:
        values = summary_values(res)
        ungated["report_s"] = (values["report_s"], "s")
        ungated["tract_rmse"] = (values["quality.tract_rmse"], "proportion")
        ungated["finetune_loss"] = (values["quality.finetune_loss"], "loss")
    for name, (value, unit) in ungated.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
