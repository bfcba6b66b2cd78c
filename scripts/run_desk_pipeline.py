"""End-to-end desk-scale run: ground truth -> pretrain -> fine-tune ->
generate -> evaluate -> privacy, printing a compact summary of the numbers
the test suite checks. Everything goes through the CLI entry points, so a
run of this script exercises the same paths as a user would. It ends by
writing ``<work-dir>/digests.json``: the sha256 of every file it left under
the work directory except the manifests, which hold timestamps. Its last
line is the sha256 of ``digests.json`` itself, so two runs of the same
arguments on two checkouts compare by that one value.

Usage: python scripts/run_desk_pipeline.py --work-dir /tmp/desk

``RECIPE`` is the one copy of the desk recipe and ``run_chain`` the one
copy of the chain: the acceptance suite (tests/test_acceptance.py) runs
``run_chain`` with ``RECIPE`` for criteria 4-8 and with a smaller recipe,
twice, for criterion 9.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import resource
import sys
import time

from popsynth import cli, evaluation, training, vae
from popsynth.schema import load_schema, load_tables, write_json

# each of "data", "pretrain" and "finetune" is the flag set of one command
RECIPE = {
    "data": dict(households=2000, tract_households=400, seed=42),
    "pretrain": dict(seed=21, epochs=1000, decay_start=300, batch_size=125,
                     hidden_widths="48,48,40,40,32,32", latent_dim=3,
                     kl_weight=0.3, focal_gamma=0.0, lr=1e-3, min_lr=1e-4),
    "finetune": dict(seed=7, epochs=3000, decay_start=1000, lr=2e-3, min_lr=2e-4,
                     w_marginal=5.0, w_dbce=0.5, w_normkl=0.1, temperature=0.05),
    "wide_sample": 8000,  # prior draws for the pretrain fidelity check
    "wide_seed": 9,
    "gen_seed": 5,
}


class CommandFailed(RuntimeError):
    def __init__(self, label: str, rc: int):
        super().__init__(f"{label} exited {rc}")
        self.rc = rc


def flags(settings: dict) -> list[str]:
    return [s for k, v in settings.items() for s in (f"--{k.replace('_', '-')}", str(v))]


def run_chain(work_dir: str, recipe: dict = RECIPE) -> dict[str, float]:
    """Run the desk chain under ``work_dir`` and return the seconds each
    command took, keyed by its label ("pretrain", "generate syn_tuned",
    ...). Each command's line also prints the process's peak RSS so far, the
    figure its manifest records. A command that exits non-zero raises
    ``CommandFailed``."""
    seconds = {}

    def sh(label: str, args: list[str]) -> None:
        print(f"+ popsynth {' '.join(args)}")
        t0 = time.perf_counter()
        rc = cli.run(args)
        seconds[label] = time.perf_counter() - t0
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"  -> rc={rc} ({seconds[label]:.1f}s, peak RSS {peak:.1f} MB)")
        if rc != 0:
            raise CommandFailed(label, rc)

    w = work_dir
    os.makedirs(w, exist_ok=True)
    data = os.path.join(w, "data")
    model_path = os.path.join(w, "model.psv")
    latent_path = os.path.join(w, "latent.psl")

    sh("oracle-make", ["oracle-make", "--out-dir", data, *flags(recipe["data"])])
    micro = [
        "--schema", f"{data}/schema.json",
        "--microdata-hh", f"{data}/households.csv",
        "--microdata-p", f"{data}/persons.csv",
    ]
    sh("pretrain", ["pretrain", *micro, "--out", model_path, *flags(recipe["pretrain"])])
    sh("finetune", [
        "finetune", *micro, "--model", model_path,
        "--tract-marginals", f"{data}/tract_marginals.csv",
        "--out-latent", latent_path, *flags(recipe["finetune"]),
    ])

    # inventories: wide prior sample (pretrain fidelity), tract-sized prior
    # sample (privacy reference, same latents fine-tuning started from) and
    # the fine-tuned tract
    model = vae.load_model(model_path)
    wide_latent = os.path.join(w, "prior_wide.psl")
    training.save_latent(
        training.init_latent(recipe["wide_sample"], model.latent_dim, recipe["wide_seed"]),
        wide_latent, model.schema_fingerprint, model.checksum(),
    )
    pre_latent = os.path.join(w, "prior_tract.psl")
    training.save_latent(
        training.init_latent(recipe["data"]["tract_households"], model.latent_dim,
                             recipe["finetune"]["seed"]),
        pre_latent, model.schema_fingerprint, model.checksum(),
    )
    gen_common = ["--model", model_path, "--schema", f"{data}/schema.json",
                  "--seed", str(recipe["gen_seed"]), "--rules", f"{data}/rules.json"]
    for latent, out in [(wide_latent, "syn_pre_wide"), (pre_latent, "syn_pre_tract"),
                        (latent_path, "syn_tuned")]:
        sh(f"generate {out}",
           ["generate", *gen_common, "--latent", latent, "--out-dir", f"{w}/{out}"])

    sh("evaluate report_pre", [
        "evaluate", *micro,
        "--syn-hh", f"{w}/syn_pre_wide/households.csv",
        "--syn-p", f"{w}/syn_pre_wide/persons.csv",
        "--out-dir", f"{w}/report_pre",
    ])
    sh("evaluate report_tuned", [
        "evaluate", *micro,
        "--syn-hh", f"{w}/syn_tuned/households.csv",
        "--syn-p", f"{w}/syn_tuned/persons.csv",
        "--tract-marginals", f"{data}/tract_marginals.csv",
        "--out-dir", f"{w}/report_tuned",
    ])
    sh("privacy", [
        "privacy", *micro,
        "--a-hh", f"{w}/syn_pre_tract/households.csv",
        "--a-p", f"{w}/syn_pre_tract/persons.csv",
        "--b-hh", f"{w}/syn_tuned/households.csv",
        "--b-p", f"{w}/syn_tuned/persons.csv",
        "--out-dir", f"{w}/privacy",
    ])
    return seconds


def read_report(path) -> dict[str, dict[str, float]]:
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    out = {}
    for row in rows:
        name = row.pop("variable")
        out[name] = {k: float(v) for k, v in row.items() if v != ""}
    return out


def _sha256(file: str) -> str:
    with open(file, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_digests(work_dir: str) -> None:
    """Write ``<work_dir>/digests.json`` and print its own sha256 last."""
    path = os.path.join(work_dir, "digests.json")
    digests = {}
    for root, _, names in os.walk(work_dir):
        for name in names:
            file = os.path.join(root, name)
            if file != path and not name.endswith("manifest.json"):
                digests[os.path.relpath(file, work_dir)] = _sha256(file)
    write_json(path, digests)
    print(f"\n== digests == {len(digests)} files -> {path}")
    print(f"== digests.json sha256 == {_sha256(path)}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args()

    w = args.work_dir
    try:
        run_chain(w)
    except CommandFailed as exc:
        print(exc, file=sys.stderr)
        sys.exit(exc.rc)
    data = os.path.join(w, "data")

    print("\n== pretrain fidelity (prior sample vs microdata) ==")
    pre = read_report(f"{w}/report_pre/marginals_report.csv")
    for name, row in pre.items():
        print(f"  {name:10s} rmse={row['rmse_vs_microdata']:.4f} "
              f"kl={row['kl_vs_microdata']:.4f} p={row['p_vs_microdata']:.3f}")

    print("\n== fine-tune fidelity (tuned inventory vs tract targets) ==")
    tuned = read_report(f"{w}/report_tuned/marginals_report.csv")
    for name, row in tuned.items():
        if name == "__mean__":
            continue
        print(f"  {name:10s} rmse_t={row['rmse_vs_target']:.4f} "
              f"baseline={row['baseline_rmse']:.4f} p_t={row['p_vs_target']:.3f}")

    with open(f"{w}/latent.psl.history.csv", encoding="utf-8") as fh:
        hist = list(csv.DictReader(fh))
    d0, d1 = float(hist[0]["dbce"]), float(hist[-1]["dbce"])
    print(f"\n== realism == dbce start={d0:.4f} end={d1:.4f} ratio={d1 / d0:.3f}")

    with open(f"{w}/privacy/privacy_summary.json", encoding="utf-8") as fh:
        priv = json.load(fh)
    for level, row in priv["levels"].items():
        print(f"== privacy == {level}: KS={row['ks_statistic']:.4f} "
              f"p={row['ks_p_value']:.4f}")

    [table] = load_tables(
        load_schema(f"{data}/schema.json"), (f"{data}/households.csv", f"{data}/persons.csv")
    )
    m = evaluation.household_matrix(table)
    print(f"== privacy == microdata self-DCR max={evaluation.dcr(m, m).max():.2e}")

    for d in (f"{w}/syn_pre_wide", f"{w}/syn_pre_tract", f"{w}/syn_tuned"):
        with open(f"{d}/sanity_report.json", encoding="utf-8") as fh:
            rep = json.load(fh)
        print(f"== sanity == {os.path.basename(d)}: "
              f"{sum(rep['counts'].values())} violations / {rep['total_households']}")

    write_digests(w)


if __name__ == "__main__":
    main()
