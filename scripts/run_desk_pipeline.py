"""End-to-end desk-scale run: ground truth -> pretrain -> fine-tune ->
generate -> evaluate -> privacy, printing the scorecard of acceptance
criteria 4-7 on its outputs. Everything goes through the CLI entry points,
so a run of this script exercises the same paths as a user would. It ends
by writing ``<work-dir>/digests.json``: the sha256 of every file it left
under the work directory except the manifests, which hold timestamps. Its
last line is the sha256 of ``digests.json`` itself, so two runs of the same
arguments on two checkouts compare by that one value.

Usage: python scripts/run_desk_pipeline.py --work-dir /tmp/desk

``RECIPE`` is the one copy of the desk recipe, ``run_chain`` the one copy
of the chain, and ``scorecard`` with ``BOUNDS`` the one copy of criteria
4-7. The acceptance suite (tests/test_acceptance.py) runs ``run_chain``
with ``RECIPE`` and asserts ``scorecard``'s flags for criteria 4-7, and
runs it with ``SMALL_RECIPE``, twice, for criterion 9;
scripts/seed_sweep.py scores it over seed pairs.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from popsynth import cli, evaluation, losses, training, vae  # noqa: E402
from popsynth.schema import load_schema, load_tables, write_json  # noqa: E402

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
# criterion 9's chain: small enough to run twice in a test
SMALL_RECIPE = RECIPE | {
    "data": RECIPE["data"] | dict(households=120, tract_households=40),
    "pretrain": RECIPE["pretrain"] | dict(epochs=40, decay_start=10,
                                          hidden_widths="16,14,12,12,10,8"),
    "finetune": RECIPE["finetune"] | dict(epochs=40, decay_start=10),
    "wide_sample": 300,
}

NAMES = {"C4": "pretrain recovery", "C5": "fine-tune distribution shift",
         "C6": "realism preservation", "C7": "privacy non-degradation"}
BOUNDS = {
    "pretrain_rmse": 0.03,  # C4: worst RMSE and KL of a variable's proportions,
    "pretrain_kl": 0.05,    # wide prior sample against the microdata, at most
    "tuned_rmse": 0.01,     # C5: worst RMSE of the tuned tract to its targets, at most,
    "tuned_p": 0.9,         # and its smallest chi-square p, at least
    "dbce_ratio": 10.0,     # C6: matcher BCE of the tuned over the prior latents, at most
    "ks_p": 0.05,           # C7: KS p of the two inventories' DCRs, at least,
    "self_dcr": 1e-5,       # and the microdata's largest DCR to itself, at most
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


def _variables(path) -> list[dict[str, float]]:
    """The per-variable rows of a marginals report, without its mean row."""
    with open(path, encoding="utf-8") as fh:
        return [{k: float(v) for k, v in row.items() if k != "variable" and v != ""}
                for row in csv.DictReader(fh) if row["variable"] != "__mean__"]


def scorecard(work_dir) -> dict[str, dict]:
    """Criteria 4-7 on the files of a finished desk chain under ``work_dir``:
    for each of "C4" ... "C7", the numbers that ``BOUNDS`` apply to and
    ``pass``. It writes nothing, so a chain's digests do not depend on it."""
    w, b = Path(work_dir), BOUNDS
    pre, tuned = (_variables(w / d / "marginals_report.csv") for d in ("report_pre", "report_tuned"))
    c4 = dict(worst_rmse=max(r["rmse_vs_microdata"] for r in pre),
              worst_kl=max(r["kl_vs_microdata"] for r in pre))
    c4["pass"] = c4["worst_rmse"] <= b["pretrain_rmse"] and c4["worst_kl"] <= b["pretrain_kl"]

    model = vae.load_model(w / "model.psv")
    z0, _ = training.load_latent(w / "prior_tract.psl")
    z1, header = training.load_latent(w / "latent.psl")
    c5 = dict(worst_rmse=max(r["rmse_vs_target"] for r in tuned),
              min_p=min(r["p_vs_target"] for r in tuned),
              beats_baseline=all(r["rmse_vs_target"] < r["baseline_rmse"] for r in tuned),
              # the latent header pins the decoder it was tuned through
              decoder_intact=header["model_fingerprint"] == model.checksum())
    c5["pass"] = (c5["worst_rmse"] <= b["tuned_rmse"] and c5["min_p"] >= b["tuned_p"]
                  and c5["beats_baseline"] and c5["decoder_intact"])

    data = w / "data"
    [table] = load_tables(load_schema(data / "schema.json"),
                          (data / "households.csv", data / "persons.csv"))
    micro = evaluation.household_matrix(table)
    tau = json.loads((w / "latent.psl.manifest.json").read_text())["config"]["temperature"]
    start, end = (losses.dbce(model.decode(z.z, train=False), micro, temperature=tau).dbce_loss
                  for z in (z0, z1))
    c6 = dict(dbce_start=start, dbce_end=end, ratio=end / start)
    c6["pass"] = c6["ratio"] <= b["dbce_ratio"]

    levels = json.loads((w / "privacy" / "privacy_summary.json").read_text())["levels"]
    c7 = dict(ks_p_household=levels["household"]["ks_p_value"],
              ks_p_person=levels["person"]["ks_p_value"],
              self_dcr=float(evaluation.dcr(micro, micro).max()))
    c7["pass"] = (min(c7["ks_p_household"], c7["ks_p_person"]) >= b["ks_p"]
                  and c7["self_dcr"] <= b["self_dcr"])
    return {"C4": c4, "C5": c5, "C6": c6, "C7": c7}


def details(card: dict[str, dict]) -> dict[str, str]:
    """Each criterion's numbers and bounds, as its scorecard line shows them."""
    c4, c5, c6, c7 = card.values()
    b = {k: f"{v:g}".replace("e-0", "e-") for k, v in BOUNDS.items()}  # 1e-5, not 1e-05
    return {
        "C4": f"worst RMSE {c4['worst_rmse']:.4f} (<={b['pretrain_rmse']}), "
              f"worst KL {c4['worst_kl']:.4f} (<={b['pretrain_kl']})",
        "C5": f"worst RMSE-to-target {c5['worst_rmse']:.4f} (<={b['tuned_rmse']}), "
              f"min p {c5['min_p']:.3f} (>={b['tuned_p']}), beats baseline "
              f"{c5['beats_baseline']}, decoder intact {c5['decoder_intact']}",
        "C6": f"matcher BCE {c6['dbce_start']:.4f} -> {c6['dbce_end']:.4f}, "
              f"ratio {c6['ratio']:.2f} (<={b['dbce_ratio']})",
        "C7": f"KS p household {c7['ks_p_household']:.3f}, person {c7['ks_p_person']:.3f} "
              f"(>={b['ks_p']}), self-DCR {c7['self_dcr']:.1e} (<={b['self_dcr']})",
    }


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
    card = scorecard(w)
    print("\n== scorecard ==")
    for key, detail in details(card).items():
        print(f"[{key}] {NAMES[key]}: {'PASS' if card[key]['pass'] else 'FAIL'} ({detail})")

    for d in ("syn_pre_wide", "syn_pre_tract", "syn_tuned"):
        rep = json.loads(Path(w, d, "sanity_report.json").read_text())
        print(f"== sanity == {d}: {sum(rep['counts'].values())} violations / {rep['total_households']}")

    write_digests(w)


if __name__ == "__main__":
    main()
