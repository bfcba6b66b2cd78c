import hashlib
import json
import os

import numpy as np
import pytest

from popsynth import training, vae
from popsynth.cli import _resolve_window, run
from popsynth.schema import HouseholdRecord

TINY_WIDTHS = "16,14,12,12,10,8"


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    rc = run(
        [
            "oracle-make",
            "--out-dir", str(d),
            "--households", "80",
            "--tract-households", "30",
            "--seed", "42",
        ]
    )
    assert rc == 0
    return d


def cli_pretrain(data_dir, out, seed=1, epochs=25):
    return run(
        [
            "pretrain",
            "--schema", str(data_dir / "schema.json"),
            "--microdata-hh", str(data_dir / "households.csv"),
            "--microdata-p", str(data_dir / "persons.csv"),
            "--out", str(out),
            "--seed", str(seed),
            "--epochs", str(epochs),
            "--decay-start", "10",
            "--latent-dim", "3",
            "--hidden-widths", TINY_WIDTHS,
            "--kl-weight", "0.1",
            "--focal-gamma", "0",
            "--reparam-mode", "standard",
        ]
    )


def test_oracle_make_outputs_and_manifest(data_dir):
    names = {
        "schema.json",
        "households.csv",
        "persons.csv",
        "tract_marginals.csv",
        "rules.json",
        "manifest.json",
    }
    assert names <= {p.name for p in data_dir.iterdir()}
    manifest = json.loads((data_dir / "manifest.json").read_text())
    assert manifest["subcommand"] == "oracle-make"
    for name, digest in manifest["outputs"].items():
        blob = (data_dir / name).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest


def test_restructure_writes_rows(data_dir, tmp_path):
    out = tmp_path / "rows"
    rc = run(
        [
            "restructure",
            "--schema", str(data_dir / "schema.json"),
            "--microdata-hh", str(data_dir / "households.csv"),
            "--microdata-p", str(data_dir / "persons.csv"),
            "--out-dir", str(out),
            "--write-encoded",
        ]
    )
    assert rc == 0
    assert (out / "restructured.csv").exists()
    assert (out / "encoded.csv").exists()
    header = (out / "restructured.csv").read_text().splitlines()[0]
    assert header.startswith("household_id,TEN,VEH,R65,AGEP__s0")


def test_pretrain_writes_model_history_manifest(data_dir, tmp_path):
    out = tmp_path / "model.psv"
    assert cli_pretrain(data_dir, out) == 0
    assert out.exists()
    hist = tmp_path / "model.psv.history.csv"
    assert hist.exists()
    lines = hist.read_text().splitlines()
    assert lines[0] == "epoch,lr,focal,latent_kl,total"
    assert len(lines) == 26
    manifest = json.loads((tmp_path / "model.psv.manifest.json").read_text())
    assert manifest["subcommand"] == "pretrain"
    assert manifest["config"]["seed"] == 1
    assert "focal_alpha_used" in manifest["config"]
    assert manifest["duration_s"] == manifest["finished_unix"] - manifest["started_unix"]


def test_pretrain_is_reproducible(data_dir, tmp_path):
    a = tmp_path / "a.psv"
    b = tmp_path / "b.psv"
    assert cli_pretrain(data_dir, a) == 0
    assert cli_pretrain(data_dir, b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_full_pipeline_and_exit_codes(data_dir, tmp_path):
    model = tmp_path / "model.psv"
    assert cli_pretrain(data_dir, model) == 0

    latent = tmp_path / "tract.psl"
    rc = run(
        [
            "finetune",
            "--schema", str(data_dir / "schema.json"),
            "--microdata-hh", str(data_dir / "households.csv"),
            "--microdata-p", str(data_dir / "persons.csv"),
            "--model", str(model),
            "--tract-marginals", str(data_dir / "tract_marginals.csv"),
            "--out-latent", str(latent),
            "--seed", "2",
            "--epochs", "20",
            "--decay-start", "5",
            "--temperature", "0.1",
        ]
    )
    assert rc == 0
    assert latent.exists()
    soft = json.loads((tmp_path / "tract.psl.soft_marginals.json").read_text())
    assert "final_losses" in soft

    inv_dir = tmp_path / "inventory"
    rc = run(
        [
            "generate",
            "--model", str(model),
            "--schema", str(data_dir / "schema.json"),
            "--latent", str(latent),
            "--out-dir", str(inv_dir),
            "--seed", "5",
            "--tract-id", "T1",
            "--rules", str(data_dir / "rules.json"),
        ]
    )
    assert rc == 0
    assert (inv_dir / "households.csv").exists()
    assert (inv_dir / "sanity_report.json").exists()
    prov = json.loads((inv_dir / "provenance.json").read_text())
    assert prov["tract_id"] == "T1"

    report_dir = tmp_path / "report"
    rc = run(
        [
            "evaluate",
            "--schema", str(data_dir / "schema.json"),
            "--microdata-hh", str(data_dir / "households.csv"),
            "--microdata-p", str(data_dir / "persons.csv"),
            "--syn-hh", str(inv_dir / "households.csv"),
            "--syn-p", str(inv_dir / "persons.csv"),
            "--tract-marginals", str(data_dir / "tract_marginals.csv"),
            "--out-dir", str(report_dir),
        ]
    )
    assert rc == 0
    assert (report_dir / "marginals_report.csv").exists()
    assert (report_dir / "summary.json").exists()
    summary = json.loads((report_dir / "summary.json").read_text())
    assert set(summary["variables"]) == {"TEN", "VEH", "R65", "AGEP", "EDU"}

    priv_dir = tmp_path / "privacy"
    rc = run(
        [
            "privacy",
            "--schema", str(data_dir / "schema.json"),
            "--microdata-hh", str(data_dir / "households.csv"),
            "--microdata-p", str(data_dir / "persons.csv"),
            "--a-hh", str(inv_dir / "households.csv"),
            "--a-p", str(inv_dir / "persons.csv"),
            "--b-hh", str(inv_dir / "households.csv"),
            "--b-p", str(inv_dir / "persons.csv"),
            "--out-dir", str(priv_dir),
        ]
    )
    assert rc == 0
    payload = json.loads((priv_dir / "privacy_summary.json").read_text())
    assert set(payload["levels"]) == {"household", "person"}
    # identical inventories: the two DCR samples coincide
    assert payload["levels"]["household"]["ks_p_value"] == pytest.approx(1.0)


def test_missing_file_is_exit_1(tmp_path):
    rc = run(
        [
            "restructure",
            "--schema", str(tmp_path / "nope.json"),
            "--microdata-hh", str(tmp_path / "h.csv"),
            "--microdata-p", str(tmp_path / "p.csv"),
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert rc == 1


def test_bad_flag_is_exit_1():
    assert run(["pretrain", "--nonsense"]) == 1
    assert run(["no-such-command"]) == 1


def test_evaluate_requires_out_dir(data_dir, tmp_path, monkeypatch):
    inv = tmp_path / "inv"
    model = tmp_path / "m.psv"
    assert cli_pretrain(data_dir, model) == 0
    rc = run(
        [
            "generate",
            "--model", str(model),
            "--schema", str(data_dir / "schema.json"),
            "--latent-rows", "10",
        ]
    )
    assert rc == 1  # generate requires a latent file, not row count

    args = [
        "evaluate",
        "--schema", str(data_dir / "schema.json"),
        "--microdata-hh", str(data_dir / "households.csv"),
        "--microdata-p", str(data_dir / "persons.csv"),
        "--syn-hh", str(data_dir / "households.csv"),
        "--syn-p", str(data_dir / "persons.csv"),
    ]
    monkeypatch.delenv("POPSYNTH_REPORT_DIR", raising=False)
    assert run(args) == 1
    monkeypatch.setenv("POPSYNTH_REPORT_DIR", str(tmp_path / "envout"))
    assert run(args) == 0
    assert (tmp_path / "envout" / "marginals_report.csv").exists()


def test_finetune_rejects_foreign_schema(data_dir, tmp_path):
    model = tmp_path / "model.psv"
    assert cli_pretrain(data_dir, model) == 0
    other = tmp_path / "other"
    assert run(
        [
            "oracle-make",
            "--out-dir", str(other),
            "--households", "40",
            "--tract-households", "20",
            "--seed", "9",
        ]
    ) == 0
    schema2 = json.loads((other / "schema.json").read_text())
    schema2["n_window"] = 4
    (other / "schema4.json").write_text(json.dumps(schema2))
    rc = run(
        [
            "finetune",
            "--schema", str(other / "schema4.json"),
            "--microdata-hh", str(other / "households.csv"),
            "--microdata-p", str(other / "persons.csv"),
            "--model", str(model),
            "--tract-marginals", str(other / "tract_marginals.csv"),
            "--out-latent", str(tmp_path / "x.psl"),
            "--seed", "2",
            "--epochs", "2",
        ]
    )
    assert rc == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0


@pytest.fixture(scope="module")
def artifacts(data_dir, tmp_path_factory):
    """A tiny model and a latent fitted for it, for the generate checks."""
    d = tmp_path_factory.mktemp("artifacts")
    assert cli_pretrain(data_dir, d / "model.psv") == 0
    model = vae.load_model(d / "model.psv")
    training.save_latent(
        training.init_latent(12, model.latent_dim, 3), d / "latent.psl",
        model.schema_fingerprint, model.checksum(),
    )
    return d, model


def cli_generate(data_dir, model, latent, out):
    return run(
        [
            "generate",
            "--model", str(model),
            "--schema", str(data_dir / "schema.json"),
            "--latent", str(latent),
            "--out-dir", str(out),
            "--seed", "5",
        ]
    )


@pytest.mark.parametrize("field", ["schema_fingerprint", "model_fingerprint"])
def test_generate_rejects_latent_of_another_model(data_dir, artifacts, tmp_path, field, capsys):
    d, model = artifacts
    assert cli_generate(data_dir, d / "model.psv", d / "latent.psl", tmp_path / "ok") == 0
    latent, header = training.load_latent(d / "latent.psl")
    fingerprints = {k: header[k] for k in ("schema_fingerprint", "model_fingerprint")}
    fingerprints[field] = "0" * 64
    foreign = tmp_path / "foreign.psl"
    training.save_latent(latent, foreign, **fingerprints)
    capsys.readouterr()
    assert cli_generate(data_dir, d / "model.psv", foreign, tmp_path / "inv") == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "inv" / "households.csv").exists()


CORRUPTIONS = {
    "bad-magic": lambda b: b"XXXXXXXX" + b[8:],
    "corrupt-header": lambda b: b[:12] + b"#" + b[13:],
    "truncated-payload": lambda b: b[:-8],
    "trailing-byte": lambda b: b + b"\x00",
    "ten-bytes": lambda b: b[:10],
}


@pytest.mark.parametrize("fmt", ["model.psv", "latent.psl"])
@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_malformed_artifact_is_exit_1(data_dir, artifacts, tmp_path, fmt, corruption, capsys):
    d, _ = artifacts
    bad = tmp_path / fmt
    bad.write_bytes(CORRUPTIONS[corruption]((d / fmt).read_bytes()))
    paths = {"model.psv": d / "model.psv", "latent.psl": d / "latent.psl", fmt: bad}
    capsys.readouterr()
    rc = cli_generate(data_dir, paths["model.psv"], paths["latent.psl"], tmp_path / "inv")
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1


def test_open_window_resolves_over_all_record_sets(tiny_schema):
    open_schema = tiny_schema.with_n_window(None)
    assert _resolve_window(open_schema, [], []).n_window == 1
    three = HouseholdRecord("h", ("yes", "0"), [("kid", "none")] * 3)
    empty = HouseholdRecord("e", ("no", "1"), [])
    assert _resolve_window(open_schema, [empty], [three], []).n_window == 3
    assert _resolve_window(tiny_schema, [three]).n_window == tiny_schema.n_window


GOOD_RULE = {"id": "R65", "household_var": "R65", "household_value": "Yes",
             "person_var": "AGEP", "person_categories": ["65-74", "75 and over"]}
BAD_RULES = {
    "missing-key": json.dumps([{k: v for k, v in GOOD_RULE.items() if k != "person_var"}]),
    "not-json": '{"rules": [',
    "unknown-direction": json.dumps([GOOD_RULE | {"direction": "sideways"}]),
    "household-value-typo": json.dumps([GOOD_RULE | {"household_value": "yes"}]),
    "person-category-typo": json.dumps([GOOD_RULE | {"person_categories": ["65-74", "75+"]}]),
}


@pytest.mark.parametrize("case", sorted(BAD_RULES))
def test_bad_rules_exit_1_before_writing(data_dir, artifacts, tmp_path, case, capsys):
    d, _ = artifacts
    rules = tmp_path / "rules.json"
    rules.write_text(BAD_RULES[case])
    out = tmp_path / "inv"
    capsys.readouterr()
    rc = run(["generate", "--model", str(d / "model.psv"), "--schema", str(data_dir / "schema.json"),
              "--latent", str(d / "latent.psl"), "--out-dir", str(out), "--seed", "5",
              "--rules", str(rules)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()
