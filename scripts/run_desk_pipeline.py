"""End-to-end desk-scale run: ground truth -> pretrain -> fine-tune ->
generate -> evaluate -> privacy, printing a compact summary of the numbers
the test suite checks. Everything goes through the CLI entry points, so a
run of this script exercises the same paths as a user would. It ends by
writing ``<work-dir>/digests.json``: the sha256 of every file it left under
the work directory except the manifests, which hold timestamps. Two runs of
the same arguments on two checkouts compare by comparing their digests.

Usage: python scripts/run_desk_pipeline.py --work-dir /tmp/desk [options]
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time

import numpy as np

from popsynth import cli, evaluation, training, vae
from popsynth.schema import load_microdata, load_schema, restructure, write_json


def sh(args: list[str]) -> None:
    print(f"+ popsynth {' '.join(args)}")
    t0 = time.time()
    rc = cli.run(args)
    print(f"  -> rc={rc} ({time.time() - t0:.1f}s)")
    if rc != 0:
        sys.exit(rc)


def read_report(path: str) -> dict[str, dict[str, float]]:
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    out = {}
    for row in rows:
        name = row.pop("variable")
        out[name] = {k: float(v) for k, v in row.items() if v != ""}
    return out


def write_digests(work_dir: str) -> None:
    path = os.path.join(work_dir, "digests.json")
    digests = {}
    for root, _, names in os.walk(work_dir):
        for name in names:
            file = os.path.join(root, name)
            if file != path and not name.endswith("manifest.json"):
                with open(file, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                digests[os.path.relpath(file, work_dir)] = digest
    write_json(path, digests)
    print(f"\n== digests == {len(digests)} files -> {path}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--households", type=int, default=2000)
    ap.add_argument("--tract-households", type=int, default=400)
    ap.add_argument("--latent-dim", type=int, default=3)
    ap.add_argument("--hidden-widths", default="48,48,40,40,32,32")
    ap.add_argument("--pretrain-epochs", type=int, default=1000)
    ap.add_argument("--pretrain-decay-start", type=int, default=300)
    ap.add_argument("--batch-size", type=int, default=125)
    ap.add_argument("--kl-weight", type=float, default=0.3)
    ap.add_argument("--focal-gamma", type=float, default=0.0)
    ap.add_argument("--finetune-epochs", type=int, default=3000)
    ap.add_argument("--finetune-decay-start", type=int, default=1000)
    ap.add_argument("--finetune-lr", type=float, default=2e-3)
    ap.add_argument("--finetune-min-lr", type=float, default=2e-4)
    ap.add_argument("--w-marginal", type=float, default=5.0)
    ap.add_argument("--w-dbce", type=float, default=0.5)
    ap.add_argument("--w-normkl", type=float, default=0.1)
    ap.add_argument("--temperature", type=float, default=0.05)
    ap.add_argument("--wide-sample", type=int, default=8000,
                    help="prior draws for the pretrain fidelity check")
    ap.add_argument("--data-seed", type=int, default=42)
    ap.add_argument("--pretrain-seed", type=int, default=21)
    ap.add_argument("--finetune-seed", type=int, default=7)
    ap.add_argument("--prior-seed", type=int, default=9)
    ap.add_argument("--gen-seed", type=int, default=5)
    args = ap.parse_args()

    w = args.work_dir
    os.makedirs(w, exist_ok=True)
    data = os.path.join(w, "data")
    model_path = os.path.join(w, "model.psv")
    latent_path = os.path.join(w, "latent.psl")

    sh([
        "oracle-make", "--out-dir", data,
        "--households", str(args.households),
        "--tract-households", str(args.tract_households),
        "--seed", str(args.data_seed),
    ])
    micro = [
        "--schema", f"{data}/schema.json",
        "--microdata-hh", f"{data}/households.csv",
        "--microdata-p", f"{data}/persons.csv",
    ]
    sh([
        "pretrain", *micro, "--out", model_path,
        "--seed", str(args.pretrain_seed),
        "--epochs", str(args.pretrain_epochs),
        "--decay-start", str(args.pretrain_decay_start),
        "--batch-size", str(args.batch_size),
        "--hidden-widths", args.hidden_widths,
        "--latent-dim", str(args.latent_dim),
        "--reparam-mode", "standard",
        "--kl-weight", str(args.kl_weight),
        "--focal-gamma", str(args.focal_gamma),
    ])
    sh([
        "finetune", *micro, "--model", model_path,
        "--tract-marginals", f"{data}/tract_marginals.csv",
        "--out-latent", latent_path,
        "--seed", str(args.finetune_seed),
        "--epochs", str(args.finetune_epochs),
        "--decay-start", str(args.finetune_decay_start),
        "--lr", str(args.finetune_lr),
        "--min-lr", str(args.finetune_min_lr),
        "--w-marginal", str(args.w_marginal),
        "--w-dbce", str(args.w_dbce),
        "--w-normkl", str(args.w_normkl),
        "--temperature", str(args.temperature),
    ])

    # inventories: wide prior sample (pretrain fidelity), tract-sized prior
    # sample (privacy reference, same latents fine-tuning started from) and
    # the fine-tuned tract
    model = vae.load_model(model_path)
    wide_latent = os.path.join(w, "prior_wide.psl")
    training.save_latent(
        training.init_latent(args.wide_sample, model.latent_dim, args.prior_seed),
        wide_latent, model.schema_fingerprint, model.checksum(),
    )
    pre_latent = os.path.join(w, "prior_tract.psl")
    training.save_latent(
        training.init_latent(args.tract_households, model.latent_dim, args.finetune_seed),
        pre_latent, model.schema_fingerprint, model.checksum(),
    )
    gen_common = ["--model", model_path, "--schema", f"{data}/schema.json",
                  "--seed", str(args.gen_seed), "--rules", f"{data}/rules.json"]
    sh(["generate", *gen_common, "--latent", wide_latent, "--out-dir", f"{w}/syn_pre_wide"])
    sh(["generate", *gen_common, "--latent", pre_latent, "--out-dir", f"{w}/syn_pre_tract"])
    sh(["generate", *gen_common, "--latent", latent_path, "--out-dir", f"{w}/syn_tuned"])

    sh([
        "evaluate", *micro,
        "--syn-hh", f"{w}/syn_pre_wide/households.csv",
        "--syn-p", f"{w}/syn_pre_wide/persons.csv",
        "--out-dir", f"{w}/report_pre",
    ])
    sh([
        "evaluate", *micro,
        "--syn-hh", f"{w}/syn_tuned/households.csv",
        "--syn-p", f"{w}/syn_tuned/persons.csv",
        "--tract-marginals", f"{data}/tract_marginals.csv",
        "--out-dir", f"{w}/report_tuned",
    ])
    sh([
        "privacy", *micro,
        "--a-hh", f"{w}/syn_pre_tract/households.csv",
        "--a-p", f"{w}/syn_pre_tract/persons.csv",
        "--b-hh", f"{w}/syn_tuned/households.csv",
        "--b-p", f"{w}/syn_tuned/persons.csv",
        "--out-dir", f"{w}/privacy",
    ])

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

    with open(f"{latent_path}.history.csv", encoding="utf-8") as fh:
        hist = list(csv.DictReader(fh))
    d0, d1 = float(hist[0]["dbce"]), float(hist[-1]["dbce"])
    print(f"\n== realism == dbce start={d0:.4f} end={d1:.4f} ratio={d1 / d0:.3f}")

    with open(f"{w}/privacy/privacy_summary.json", encoding="utf-8") as fh:
        priv = json.load(fh)
    for level, row in priv["levels"].items():
        print(f"== privacy == {level}: KS={row['ks_statistic']:.4f} "
              f"p={row['ks_p_value']:.4f}")

    schema = load_schema(f"{data}/schema.json")
    table = restructure(
        load_microdata(f"{data}/households.csv", f"{data}/persons.csv", schema), schema
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
