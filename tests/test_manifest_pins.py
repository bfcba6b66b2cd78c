"""Pins of every subcommand's manifest.

One small oracle set goes through all seven subcommands once. For each run
the manifest must sit at its documented path, name its subcommand, record
every resolved flag (plus the command's own extra keys) as ``config``, carry
the schema and model fingerprints, list exactly the files the command wrote
with their sha256, and give a duration that is its two timestamps apart.
"""

import hashlib
import json

import numpy as np
import pytest

from popsynth import __version__, vae
from popsynth.cli import _load_tables, run
from popsynth.losses import distinct_rows
from popsynth.schema import encode_onehot, load_schema

TINY_WIDTHS = "16,14,12,12,10,8"
VARIABLES = ("AGEP", "EDU", "R65", "TEN", "VEH")
MANIFEST_KEYS = {
    "subcommand", "toolkit_version", "config", "fingerprints",
    "started_unix", "finished_unix", "duration_s", "outputs",
}


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """Runs the seven subcommands; returns {manifest path: (config, outputs, fingerprints)}."""
    d = tmp_path_factory.mktemp("chain")
    data, model, latent, inv = d / "data", d / "model.psv", d / "latent.psl", d / "inv"
    schema = str(data / "schema.json")
    hh, pp = str(data / "households.csv"), str(data / "persons.csv")
    micro = {"schema": schema, "microdata_hh": hh, "microdata_p": pp}
    flags = ["--schema", schema, "--microdata-hh", hh, "--microdata-p", pp]
    expected = {}

    def cli(argv, manifest, config, outputs, with_model=False):
        assert run([str(a) for a in argv]) == 0
        fingerprints = {"schema": load_schema(schema).fingerprint()}
        if with_model:
            fingerprints["model"] = vae.load_model(model).checksum()
        expected[manifest] = (config | {"subcommand": argv[0]}, outputs, fingerprints)

    cli(["oracle-make", "--out-dir", data, "--households", 40, "--tract-households", 12,
         "--seed", 3],
        data / "manifest.json",
        {"households": 40, "out_dir": str(data), "seed": 3, "tract_households": 12},
        [data / n for n in ("schema.json", "households.csv", "persons.csv",
                            "tract_marginals.csv", "rules.json")])
    cli(["restructure", *flags, "--out-dir", d / "rows", "--write-encoded"],
        d / "rows" / "manifest.json",
        micro | {"out_dir": str(d / "rows"), "write_encoded": True},
        [d / "rows" / "restructured.csv", d / "rows" / "encoded.csv"])

    [table] = _load_tables(load_schema(schema), (hh, pp))
    x = encode_onehot(table).values
    cli(["pretrain", *flags, "--out", model, "--seed", 1, "--epochs", 4, "--decay-start", 2,
         "--latent-dim", 3, "--hidden-widths", TINY_WIDTHS, "--reparam-mode", "standard"],
        d / "model.psv.manifest.json",
        micro | {"out": str(model), "seed": 1, "epochs": 4, "decay_start": 2, "latent_dim": 3,
                 "hidden_widths": TINY_WIDTHS, "reparam_mode": "standard", "lr": 1e-3,
                 "min_lr": 1e-4, "kl_weight": 1.0, "focal_gamma": 2.0,
                 "focal_alpha_used": float(1.0 - np.asarray(x, dtype=np.float64).mean())},
        [model, d / "model.psv.history.csv"], with_model=True)
    cli(["finetune", *flags, "--model", model, "--tract-marginals", data / "tract_marginals.csv",
         "--out-latent", latent, "--seed", 2, "--epochs", 3, "--temperature", 0.5],
        d / "latent.psl.manifest.json",
        micro | {"model": str(model), "tract_marginals": str(data / "tract_marginals.csv"),
                 "out_latent": str(latent), "seed": 2, "epochs": 3, "decay_start": 1000,
                 "lr": 1e-3, "min_lr": 1e-4, "w_marginal": 1.0, "w_dbce": 1.0,
                 "w_normkl": 0.1, "temperature": 0.5, "reference_rows": 40,
                 "distinct_reference_rows": int(distinct_rows(x)[0].shape[0])},
        [latent, d / "latent.psl.history.csv", d / "latent.psl.soft_marginals.json"],
        with_model=True)
    cli(["generate", "--model", model, "--schema", schema, "--latent", latent,
         "--out-dir", inv, "--seed", 5, "--tract-id", "T1", "--rules", data / "rules.json"],
        inv / "manifest.json",
        {"model": str(model), "schema": schema, "latent": str(latent), "out_dir": str(inv),
         "seed": 5, "tract_id": "T1", "rules": str(data / "rules.json"), "mode": "argmax"},
        [inv / n for n in ("households.csv", "persons.csv", "provenance.json",
                           "sanity_report.json")],
        with_model=True)
    syn = {"syn_hh": str(inv / "households.csv"), "syn_p": str(inv / "persons.csv")}
    cli(["evaluate", *flags, "--syn-hh", syn["syn_hh"], "--syn-p", syn["syn_p"],
         "--tract-marginals", data / "tract_marginals.csv", "--out-dir", d / "report"],
        d / "report" / "manifest.json",
        micro | syn | {"tract_marginals": str(data / "tract_marginals.csv"),
                       "out_dir": str(d / "report")},
        [d / "report" / n for n in ("marginals_report.csv", "joint_rmse.csv", "joint_kl.csv",
                                    "joint_chi2_p.csv", "summary.json",
                                    *(f"hist_{v}.csv" for v in VARIABLES))])
    cli(["privacy", *flags, "--a-hh", hh, "--a-p", pp, "--b-hh", syn["syn_hh"],
         "--b-p", syn["syn_p"], "--out-dir", d / "privacy", "--bins", 5],
        d / "privacy" / "manifest.json",
        micro | {"a_hh": hh, "a_p": pp, "b_hh": syn["syn_hh"], "b_p": syn["syn_p"],
                 "out_dir": str(d / "privacy"), "binned": False, "bins": 5},
        [d / "privacy" / n for n in ("dcr_histogram_household.csv", "dcr_histogram_person.csv",
                                     "dcr_distances.csv", "privacy_summary.json")])
    return d, expected


def test_every_manifest_sits_at_its_path(chain):
    d, expected = chain
    assert set(d.rglob("*manifest.json")) == set(expected)
    assert len(expected) == 7


@pytest.mark.parametrize(
    "sub", ["oracle-make", "restructure", "pretrain", "finetune", "generate", "evaluate", "privacy"]
)
def test_manifest_pins(chain, sub):
    _, expected = chain
    [(path, (config, outputs, fingerprints))] = [
        item for item in expected.items() if item[1][0]["subcommand"] == sub
    ]
    manifest = json.loads(path.read_text())
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["subcommand"] == sub
    assert manifest["toolkit_version"] == __version__
    assert manifest["config"] == config
    assert manifest["fingerprints"] == fingerprints
    assert manifest["outputs"] == {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs
    }
    assert manifest["started_unix"] <= manifest["finished_unix"]
    assert manifest["duration_s"] == manifest["finished_unix"] - manifest["started_unix"]
