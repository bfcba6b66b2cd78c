import collections
import csv
import hashlib
import json
import os
import re
import shlex
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import popsynth
from conftest import signed
from popsynth import oracle, schema, training, vae
from popsynth.cli import build_parser, run
from popsynth.schema import DataError, HouseholdRecord, load_tables

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


def cli_pretrain(data_dir, out, *extra, seed=1, epochs=25, schema="schema.json"):
    return run(
        [
            "pretrain",
            "--schema", str(data_dir / schema),
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
            *extra,
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


def test_pretrain_default_sampler_is_the_standard_one(data_dir, tmp_path):
    default, standard = tmp_path / "default.psv", tmp_path / "standard.psv"
    assert cli_pretrain(data_dir, default) == 0
    assert cli_pretrain(data_dir, standard, "--reparam-mode", "standard") == 0
    assert default.read_bytes() == standard.read_bytes()
    manifest = json.loads((tmp_path / "default.psv.manifest.json").read_text())
    assert manifest["config"]["reparam_mode"] == "standard"


def test_paper_literal_sampler_is_a_usage_error(data_dir, tmp_path, capsys):
    capsys.readouterr()
    assert cli_pretrain(data_dir, tmp_path / "model.psv", "--reparam-mode", "paper-literal") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: popsynth pretrain: argument --reparam-mode: invalid choice: 'paper-literal'")
    assert err.count("\n") == 1
    assert not any(tmp_path.iterdir())


def write_open_schema(data_dir, path):
    """``data_dir``'s schema without its n_window, written to ``path``;
    returns the pinned schema's JSON."""
    pinned = json.loads((data_dir / "schema.json").read_text())
    path.write_text(json.dumps({k: v for k, v in pinned.items() if k != "n_window"}))
    return pinned


def run_chain(data_dir, schema, out):
    """pretrain -> finetune -> generate -> evaluate -> privacy on ``schema``
    (a path, or a file name in ``data_dir``); returns the exit codes."""
    micro = ["--schema", str(data_dir / schema), "--microdata-hh", str(data_dir / "households.csv"),
             "--microdata-p", str(data_dir / "persons.csv")]
    out.mkdir()
    inv = out / "inventory"
    syn = ["--syn-hh", str(inv / "households.csv"), "--syn-p", str(inv / "persons.csv")]
    return [
        cli_pretrain(data_dir, out / "model.psv", schema=schema),
        run(["finetune", *micro, "--model", str(out / "model.psv"),
             "--tract-marginals", str(data_dir / "tract_marginals.csv"),
             "--out-latent", str(out / "tract.psl"), "--seed", "2", "--epochs", "10",
             "--decay-start", "5", "--temperature", "0.1"]),
        run(["generate", "--model", str(out / "model.psv"), "--schema", str(data_dir / schema),
             "--latent", str(out / "tract.psl"), "--out-dir", str(inv), "--seed", "5",
             "--rules", str(data_dir / "rules.json")]),
        run(["evaluate", *micro, *syn, "--tract-marginals", str(data_dir / "tract_marginals.csv"),
             "--out-dir", str(out / "report")]),
        run(["privacy", *micro, "--a-hh", str(data_dir / "households.csv"),
             "--a-p", str(data_dir / "persons.csv"), "--b-hh", str(inv / "households.csv"),
             "--b-p", str(inv / "persons.csv"), "--out-dir", str(out / "privacy")]),
    ]


def test_open_window_schema_runs_the_chain_like_the_pinned_one(data_dir, tmp_path):
    """An open n_window is pinned by the model for finetune and generate, so
    the chain gives the pinned schema's inventory."""
    pinned = write_open_schema(data_dir, tmp_path / "open.json")
    with open(data_dir / "persons.csv", encoding="utf-8") as fh:
        sizes = collections.Counter(row["household_id"] for row in csv.DictReader(fh))
    assert max(sizes.values()) == pinned["n_window"]

    assert run_chain(data_dir, tmp_path / "open.json", tmp_path / "open") == [0] * 5
    assert run_chain(data_dir, "schema.json", tmp_path / "pinned") == [0] * 5
    for name in ("households.csv", "persons.csv", "provenance.json", "sanity_report.json"):
        open_inv = tmp_path / "open" / "inventory" / name
        assert open_inv.read_bytes() == (tmp_path / "pinned" / "inventory" / name).read_bytes()


def test_open_window_household_larger_than_the_model_is_exit_1(data_dir, artifacts, tmp_path, capsys):
    write_open_schema(data_dir, tmp_path / "open.json")
    lines = (data_dir / "persons.csv").read_text().splitlines()
    (tmp_path / "persons.csv").write_text("\n".join([*lines, *[lines[1]] * 4]) + "\n")
    capsys.readouterr()
    rc = run(["finetune", "--schema", str(tmp_path / "open.json"),
              "--microdata-hh", str(data_dir / "households.csv"),
              "--microdata-p", str(tmp_path / "persons.csv"),
              "--model", str(artifacts[0] / "model.psv"),
              "--tract-marginals", str(data_dir / "tract_marginals.csv"),
              "--out-latent", str(tmp_path / "x.psl"), "--seed", "2", "--epochs", "2"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "n_window is 3" in err and err.count("\n") == 1
    assert not (tmp_path / "x.psl").exists()


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


def test_evaluate_requires_out_dir(data_dir):
    micro = [
        "--schema", str(data_dir / "schema.json"),
        "--microdata-hh", str(data_dir / "households.csv"),
        "--microdata-p", str(data_dir / "persons.csv"),
    ]
    hh, p = str(data_dir / "households.csv"), str(data_dir / "persons.csv")
    assert run(["evaluate", *micro, "--syn-hh", hh, "--syn-p", p]) == 1
    assert run(["privacy", *micro, "--a-hh", hh, "--a-p", p, "--b-hh", hh, "--b-p", p]) == 1


def test_cli_import_leaves_scipy_stats_unloaded():
    # no scipy module at all until evaluate or privacy needs a p-value; the
    # package's own submodules stay eager, since a popsynth module first
    # imported inside perfbench's span wrapping would keep stale wrappers
    src = os.path.dirname(os.path.dirname(popsynth.__file__))
    code = (
        "import json, sys; import popsynth; eager = sorted(sys.modules); "
        "import popsynth.cli; "
        "scipy = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]; "
        "print(json.dumps([eager, scipy]))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    eager, scipy = json.loads(proc.stdout)
    assert scipy == []
    for name in ("evaluation", "generation", "losses", "nn", "schema", "training", "vae"):
        assert f"popsynth.{name}" in eager


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


def test_generate_rejects_latent_of_another_width(data_dir, artifacts, tmp_path, capsys):
    """A latent carrying the model's fingerprints but another width is a
    data error, not a runtime failure in the decoder's first layer."""
    d, model = artifacts
    wide = tmp_path / "wide.psl"
    training.save_latent(
        training.init_latent(12, model.latent_dim + 2, 3), wide,
        model.schema_fingerprint, model.checksum(),
    )
    capsys.readouterr()
    assert cli_generate(data_dir, d / "model.psv", wide, tmp_path / "inv") == 1
    err = capsys.readouterr().err
    assert err == (f"error: {wide} holds latents {model.latent_dim + 2} wide; "
                   f"{d / 'model.psv'} decodes latents {model.latent_dim} wide\n")
    assert not (tmp_path / "inv" / "households.csv").exists()


def test_generate_rejects_foreign_schema(data_dir, artifacts, tmp_path, capsys):
    """generate decodes with the model's own schema; --schema must match it."""
    d, _ = artifacts
    schema = json.loads((data_dir / "schema.json").read_text())
    wider = tmp_path / "wider.json"
    wider.write_text(json.dumps(schema | {"n_window": schema["n_window"] + 1}))
    capsys.readouterr()
    rc = run(["generate", "--model", str(d / "model.psv"), "--schema", str(wider),
              "--latent", str(d / "latent.psl"), "--out-dir", str(tmp_path / "inv"), "--seed", "5"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "does not match the model's schema" in err
    assert not (tmp_path / "inv").exists()


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


def write_records(tmp_path, name, records):
    """The household and person CSVs of ``records`` (tiny schema columns)."""
    hh, pp = tmp_path / f"{name}_hh.csv", tmp_path / f"{name}_p.csv"
    hh.write_text("household_id,OWN,CAR\n" + "".join(
        f"{r.household_id},{','.join(r.values)}\n" for r in records))
    pp.write_text("household_id,AGE,JOB\n" + "".join(
        f"{r.household_id},{','.join(p)}\n" for r in records for p in r.persons))
    return hh, pp


def test_open_window_resolves_over_all_record_sets(tiny_schema, tmp_path):
    open_schema = tiny_schema.with_n_window(None)
    none = write_records(tmp_path, "none", [])
    tables = load_tables(open_schema, none, none)
    assert [t.schema.n_window for t in tables] == [1, 1]
    three = write_records(tmp_path, "three", [HouseholdRecord("h", ("yes", "0"), [("kid", "none")] * 3)])
    empty = write_records(tmp_path, "empty", [HouseholdRecord("e", ("no", "1"), [])])
    tables = load_tables(open_schema, empty, three, none)
    assert [t.schema.n_window for t in tables] == [3, 3, 3]
    assert [t.n_rows for t in tables] == [1, 1, 0]
    # a pinned window is never widened
    with pytest.raises(DataError, match="n_window is 2"):
        load_tables(tiny_schema, three)


def replace_first(var, value):
    """Set the count of the first marginals row of ``var`` to ``value``."""
    def mutate(rows):
        i = next(i for i, row in enumerate(rows) if row[0] == var)
        return rows[:i] + [[var, rows[i][1], value]] + rows[i + 1 :]
    return mutate


BAD_MARGINALS = {
    "non-numeric-count": replace_first("TEN", "many"),
    "nan-count": replace_first("TEN", "nan"),
    "negative-count": replace_first("TEN", "-1"),
    "inf-household-total": replace_first("__n_households__", "inf"),
    "zero-household-total": replace_first("__n_households__", "0"),
    "missing-household-total": lambda rows: [r for r in rows if r[0] != "__n_households__"],
    "duplicate-row": lambda rows: rows + rows[:1],
    "zero-variable-total": lambda rows: [[*r[:2], "0"] if r[0] == "TEN" else r for r in rows],
    "unknown-variable": lambda rows: rows + [["XYZ", "a", "1"]],
    "unknown-category": lambda rows: rows + [["TEN", "Castle", "1"]],
    "person-na-target": lambda rows: rows + [["AGEP", "NA", "0.1"]],
}


BAD_N_WINDOWS = {
    "non-numeric-n-window": lambda n: "x",
    "fractional-n-window": lambda n: 3.5,
    "string-n-window": str,  # the schema's own window, as a JSON string
}


@pytest.mark.parametrize("case", [*sorted(BAD_MARGINALS), *sorted(BAD_N_WINDOWS)])
def test_bad_numeric_input_is_exit_1(data_dir, tmp_path, case, capsys):
    schema, marginals = data_dir / "schema.json", data_dir / "tract_marginals.csv"
    if case in BAD_MARGINALS:
        with open(marginals, newline="") as fh:
            header, *rows = csv.reader(fh)
        marginals = tmp_path / "tract_marginals.csv"
        with open(marginals, "w", newline="") as fh:
            csv.writer(fh).writerows([header, *BAD_MARGINALS[case](rows)])
    else:
        schema = tmp_path / "schema.json"
        raw = json.loads((data_dir / "schema.json").read_text())
        schema.write_text(json.dumps(raw | {"n_window": BAD_N_WINDOWS[case](raw["n_window"])}))
    capsys.readouterr()
    rc = run(
        [
            "evaluate",
            "--schema", str(schema),
            "--microdata-hh", str(data_dir / "households.csv"),
            "--microdata-p", str(data_dir / "persons.csv"),
            "--syn-hh", str(data_dir / "households.csv"),
            "--syn-p", str(data_dir / "persons.csv"),
            "--tract-marginals", str(marginals),
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


GOOD_RULE = {"id": "R65", "household_var": "R65", "household_value": "Yes",
             "person_var": "AGEP", "person_categories": ["65-74", "75 and over"]}


def rules_file(*rules):
    return json.dumps({"rules": list(rules)})


BAD_RULES = {
    "missing-key": rules_file({k: v for k, v in GOOD_RULE.items() if k != "person_var"}),
    "not-json": '{"rules": [',
    "unknown-direction": rules_file(GOOD_RULE | {"direction": "sideways"}),
    "household-value-typo": rules_file(GOOD_RULE | {"household_value": "yes"}),
    "person-category-typo": rules_file(GOOD_RULE | {"person_categories": ["65-74", "75+"]}),
    "categories-a-string": rules_file(GOOD_RULE | {"person_categories": "65-74"}),
    "id-a-number": rules_file(GOOD_RULE | {"id": 5}),
    "misspelt-key": rules_file(GOOD_RULE | {"directon": "flag_implies_member"}),
    "top-level-list": json.dumps([GOOD_RULE]),
    "repeated-id": rules_file(GOOD_RULE, GOOD_RULE | {"direction": "flag_implies_member"}),
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


def test_second_household_total_is_exit_1_before_finetune_writes(data_dir, artifacts, tmp_path, capsys):
    marginals = tmp_path / "tract_marginals.csv"
    marginals.write_text((data_dir / "tract_marginals.csv").read_text() + "__n_households__,,999\n")
    out = tmp_path / "out"
    out.mkdir()
    argv = valid_command("finetune", data_dir, artifacts[0] / "model.psv", out)
    argv[argv.index("--tract-marginals") + 1] = str(marginals)
    capsys.readouterr()
    rc = run(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "duplicate __n_households__ row" in err
    assert not any(out.iterdir())


def assert_key_column_name_is_exit_1(data_dir, tmp_path, capsys, name):
    """restructure with the last person variable renamed to ``name``."""
    raw = json.loads((data_dir / "schema.json").read_text())
    raw["person"][-1]["name"] = name
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(raw))
    out = tmp_path / "rows"
    capsys.readouterr()
    rc = run(["restructure", "--schema", str(schema),
              "--microdata-hh", str(data_dir / "households.csv"),
              "--microdata-p", str(data_dir / "persons.csv"), "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "key column" in err
    assert not out.exists()


def test_household_id_variable_is_exit_1_naming_the_key_column(data_dir, tmp_path, capsys):
    assert_key_column_name_is_exit_1(data_dir, tmp_path, capsys, "household_id")


def test_person_id_variable_is_exit_1_naming_the_key_column(data_dir, tmp_path, capsys):
    # generate writes person_id as the first column of persons.csv
    assert_key_column_name_is_exit_1(data_dir, tmp_path, capsys, "person_id")


def test_pair_without_co_observed_persons_is_exit_1(tmp_path, capsys):
    """No person has both B and C set, so the joint (B, C) table is empty."""
    (tmp_path / "schema.json").write_text(json.dumps({
        "household": [{"name": "H", "categories": ["a", "b"]}],
        "person": [{"name": n, "categories": cats}
                   for n, cats in (("A", ["x", "y"]), ("B", ["u", "v"]), ("C", ["s", "t"]))],
    }))
    hh, pp = tmp_path / "households.csv", tmp_path / "persons.csv"
    hh.write_text("household_id,H\nh1,a\nh2,b\n")
    pp.write_text("household_id,A,B,C\nh1,x,u,NA\nh1,y,NA,s\nh2,x,v,NA\nh2,y,NA,t\n")
    out = tmp_path / "report"
    capsys.readouterr()
    rc = run(["evaluate", "--schema", str(tmp_path / "schema.json"), "--microdata-hh", str(hh),
              "--microdata-p", str(pp), "--syn-hh", str(hh), "--syn-p", str(pp),
              "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: no observations for pair (B, C)\n"
    assert not out.exists()


def micro_flags(data_dir):
    return [
        "--schema", str(data_dir / "schema.json"),
        "--microdata-hh", str(data_dir / "households.csv"),
        "--microdata-p", str(data_dir / "persons.csv"),
    ]


def valid_command(sub, data_dir, model, out):
    """A quick, valid ``sub`` run that writes only into the directory ``out``;
    ``model`` sits next to a latent.psl fitted for it."""
    hh, p = str(data_dir / "households.csv"), str(data_dir / "persons.csv")
    return {
        "restructure": ["restructure", *micro_flags(data_dir), "--out-dir", str(out / "rows")],
        "pretrain": ["pretrain", *micro_flags(data_dir), "--out", str(out / "model.psv"),
                     "--seed", "1", "--epochs", "2", "--latent-dim", "3",
                     "--hidden-widths", TINY_WIDTHS],
        "finetune": ["finetune", *micro_flags(data_dir), "--model", str(model),
                     "--tract-marginals", str(data_dir / "tract_marginals.csv"),
                     "--out-latent", str(out / "latent.psl"), "--seed", "2", "--epochs", "2"],
        "generate": ["generate", "--model", str(model), "--schema", str(data_dir / "schema.json"),
                     "--latent", str(model.with_name("latent.psl")), "--out-dir", str(out / "inv"),
                     "--mode", "sample", "--seed", "4"],
        "evaluate": ["evaluate", *micro_flags(data_dir), "--syn-hh", hh, "--syn-p", p,
                     "--tract-marginals", str(data_dir / "tract_marginals.csv"),
                     "--out-dir", str(out / "report")],
        "oracle-make": ["oracle-make", "--out-dir", str(out / "data"), "--households", "20",
                        "--tract-households", "10", "--seed", "3"],
        "privacy": ["privacy", *micro_flags(data_dir), "--a-hh", hh, "--a-p", p,
                    "--b-hh", hh, "--b-p", p, "--out-dir", str(out / "privacy")],
    }[sub]


@pytest.mark.parametrize(
    "sub", ["restructure", "pretrain", "finetune", "generate", "evaluate", "oracle-make", "privacy"]
)
def test_valid_command_writes(data_dir, artifacts, tmp_path, sub):
    assert run(valid_command(sub, data_dir, artifacts[0] / "model.psv", tmp_path)) == 0
    assert any(tmp_path.iterdir())


BAD_NUMBERS = [
    ("pretrain", "--hidden-widths", "8,8"),
    ("pretrain", "--hidden-widths", "a,b"),
    ("pretrain", "--hidden-widths", ""),
    ("pretrain", "--hidden-widths", "4,4,4,4,4,"),
    ("pretrain", "--latent-dim", "0"),
    ("pretrain", "--epochs", "0"),
    ("pretrain", "--lr", "-1"),
    ("pretrain", "--min-lr", "1"),
    ("pretrain", "--batch-size", "1"),
    ("pretrain", "--focal-gamma", "-1"),
    ("pretrain", "--lr", "nan"),
    ("pretrain", "--lr", "inf"),
    ("pretrain", "--min-lr", "nan"),
    ("pretrain", "--kl-weight", "nan"),
    ("pretrain", "--kl-weight", "-5"),
    ("pretrain", "--focal-gamma", "nan"),
    ("finetune", "--temperature", "0"),
    ("finetune", "--temperature", "nan"),
    ("finetune", "--temperature", "inf"),
    ("finetune", "--w-dbce", "nan"),
    ("finetune", "--w-dbce", "-1"),
    ("finetune", "--w-marginal", "-1"),
    ("finetune", "--w-normkl", "-3"),
    ("finetune", "--epochs", "0"),
    ("oracle-make", "--households", "0"),
    ("oracle-make", "--tract-households", "0"),
    # seeds are checked by the parser
    ("pretrain", "--seed", "-1"),
    ("finetune", "--seed", "-1"),
    ("generate", "--seed", "-1"),
    ("oracle-make", "--seed", "-1"),
]

# flags that set a config field of another name
FLAG_FIELDS = {"--hidden-widths": "encoder_widths"}


@pytest.mark.parametrize("sub,flag,value", BAD_NUMBERS, ids=[" ".join(c) for c in BAD_NUMBERS])
def test_bad_numeric_flag_is_exit_1_before_any_write(data_dir, artifacts, tmp_path, sub, flag, value, capsys):
    capsys.readouterr()
    rc = run([*valid_command(sub, data_dir, artifacts[0] / "model.psv", tmp_path), flag, value])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    # the line starts with the flag, or with the config field it sets
    field = FLAG_FIELDS.get(flag, flag[2:].replace("-", "_"))
    assert re.match(rf"error: (popsynth {sub}: argument {flag}: |{field}\b)", err), err
    if flag == "--seed":
        assert f"argument --seed: must be a non-negative integer, not {value}" in err
    assert not any(tmp_path.iterdir())


# an output path that cannot be written, as (command, flag, path under
# tmp_path): "pretrain" and "finetune" name a --out / --out-latent file in a
# missing directory; the empty cases pass "" as the path; the others plant
# "taken", a directory for --out and --out-latent, a file for --out-dir
OUTPUT_PATH_CASES = {
    "pretrain": ("pretrain", None, None),
    "finetune": ("finetune", None, None),
    "pretrain-out-is-a-directory": ("pretrain", "--out", "taken"),
    "finetune-out-latent-is-a-directory": ("finetune", "--out-latent", "taken"),
    **{f"{sub}-out-dir-is-a-file": (sub, "--out-dir", "taken")
       for sub in ("restructure", "generate", "evaluate", "privacy", "oracle-make")},
    "restructure-out-dir-below-a-file": ("restructure", "--out-dir", "taken/rows"),
    "pretrain-out-is-empty": ("pretrain", "--out", ""),
    "finetune-out-latent-is-empty": ("finetune", "--out-latent", ""),
    **{f"{sub}-out-dir-is-empty": (sub, "--out-dir", "")
       for sub in ("restructure", "generate", "evaluate", "privacy", "oracle-make")},
}


@pytest.mark.parametrize("case", sorted(OUTPUT_PATH_CASES))
def test_missing_output_directory_is_exit_1_before_training(
    data_dir, artifacts, tmp_path, case, capsys, monkeypatch
):
    """A bad output path exits 1 before any data is read, any training or
    sampling runs, or anything is created."""
    called = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            called.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((training, "pretrain"), (training, "finetune"), (schema, "read_input"),
                         (vae, "read_input"), (oracle, "sample_records")):
        spy(module, name)
    sub, flag, path = OUTPUT_PATH_CASES[case]
    if flag is None:
        argv = valid_command(sub, data_dir, artifacts[0] / "model.psv", tmp_path / "nodir")
        named = "nodir"
    elif not path:
        argv = valid_command(sub, data_dir, artifacts[0] / "model.psv", tmp_path)
        argv[argv.index(flag) + 1] = ""
        named = f"{flag}: the path is empty"
    else:
        argv = valid_command(sub, data_dir, artifacts[0] / "model.psv", tmp_path)
        argv[argv.index(flag) + 1] = str(tmp_path / path)
        taken = tmp_path / "taken"
        taken.mkdir() if flag != "--out-dir" else taken.write_text("kept")
        named = str(taken)
    capsys.readouterr()
    rc = run(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert named in err
    assert called == []
    assert [p.name for p in tmp_path.rglob("*")] == (["taken"] if path else [])
    if flag == "--out-dir" and path:
        assert (tmp_path / "taken").read_text() == "kept"


# an output file that is one of the command's input files, as (command,
# output flag, input flag): the run must leave the input as it was
OVERWRITES_INPUT = {
    "finetune-out-latent-is-the-model": ("finetune", "--out-latent", "--model"),
    "pretrain-out-is-the-household-csv": ("pretrain", "--out", "--microdata-hh"),
}


@pytest.mark.parametrize("case", sorted(OVERWRITES_INPUT))
def test_output_that_would_overwrite_an_input_is_exit_1(
    data_dir, artifacts, tmp_path, case, capsys
):
    """An ``--out`` or ``--out-latent`` file that is also an input exits 1
    with one line naming both flags, before anything is read or written."""
    sub, out_flag, in_flag = OVERWRITES_INPUT[case]
    argv = valid_command(sub, data_dir, artifacts[0] / "model.psv", tmp_path)
    victim = tmp_path / "input"
    victim.write_bytes(Path(argv[argv.index(in_flag) + 1]).read_bytes())
    argv[argv.index(in_flag) + 1] = str(victim)
    # the same file by another spelling of its path
    argv[argv.index(out_flag) + 1] = str(tmp_path / "." / "input")
    before = victim.read_bytes()
    capsys.readouterr()
    rc = run(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert out_flag in err and in_flag in err
    assert victim.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["input"]


# every flag that names an input file, per command; the model and the latent
# are binary, the rest UTF-8 text
INPUT_FLAGS = {
    "restructure": ["--schema", "--microdata-hh", "--microdata-p"],
    "pretrain": ["--schema", "--microdata-hh", "--microdata-p"],
    "finetune": ["--schema", "--microdata-hh", "--microdata-p", "--model", "--tract-marginals"],
    "generate": ["--model", "--schema", "--latent", "--rules"],
    "evaluate": ["--schema", "--microdata-hh", "--microdata-p", "--syn-hh", "--syn-p",
                 "--tract-marginals"],
    "privacy": ["--schema", "--microdata-hh", "--microdata-p", "--a-hh", "--a-p", "--b-hh",
                "--b-p"],
}
UNREADABLE = {
    "missing": lambda path: None,
    "directory": lambda path: path.mkdir(),
    "not-utf8": lambda path: path.write_bytes(b"household_id\xff\n"),
}
UNREADABLE_INPUTS = [
    (sub, flag, case)
    for sub, flags in INPUT_FLAGS.items()
    for flag in flags
    for case in UNREADABLE
    if not (case == "not-utf8" and flag in ("--model", "--latent"))
]


@pytest.mark.parametrize(
    "sub,flag,case", UNREADABLE_INPUTS, ids=[" ".join(c) for c in UNREADABLE_INPUTS]
)
def test_unreadable_input_is_exit_1_naming_it(
    data_dir, artifacts, tmp_path, sub, flag, case, capsys
):
    """A missing file, a directory or a text input that is not UTF-8, given
    to any input flag, exits 1 with one line that names it and writes
    nothing. (An unreadable file is not tested: root may read any file.)"""
    out = tmp_path / "out"
    out.mkdir()
    bad = tmp_path / "bad_input"
    UNREADABLE[case](bad)
    argv = valid_command(sub, data_dir, artifacts[0] / "model.psv", out)
    if flag in argv:
        argv[argv.index(flag) + 1] = str(bad)
    else:
        argv += [flag, str(bad)]
    capsys.readouterr()
    rc = run(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(bad) in err
    assert not any(out.iterdir())


DEEP = 100_000  # nested JSON arrays, past the parser's recursion limit
NESTED_TOO_DEEP = {
    "--schema": (b"[" * DEEP, "could not parse schema file"),
    "--rules": (b"[" * DEEP, "could not parse rules file"),
    "--model": (signed(vae.MODEL_MAGIC + struct.pack("<I", DEEP) + b"[" * DEEP), "corrupt header"),
    "--latent": (
        signed(training.LATENT_MAGIC + struct.pack("<I", DEEP) + b"[" * DEEP), "corrupt header"
    ),
}


@pytest.mark.parametrize("flag", sorted(NESTED_TOO_DEEP))
def test_deeply_nested_json_is_exit_1(data_dir, artifacts, tmp_path, flag, capsys):
    """A schema, rules file or blob header nested too deep for the JSON
    parser is bad input, reported by its reader, not a runtime failure."""
    out = tmp_path / "out"
    out.mkdir()
    bad = tmp_path / "deep"
    content, message = NESTED_TOO_DEEP[flag]
    bad.write_bytes(content)
    argv = valid_command("generate", data_dir, artifacts[0] / "model.psv", out)
    if flag in argv:
        argv[argv.index(flag) + 1] = str(bad)
    else:
        argv += [flag, str(bad)]
    capsys.readouterr()
    rc = run(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(bad) in err and message in err
    assert not any(out.iterdir())


def test_finetune_that_changes_the_model_fails(data_dir, artifacts, tmp_path, capsys, monkeypatch):
    """Fine-tuning must leave the whole model as it was, encoder included:
    the latent records the fingerprint taken before training."""
    real = training.finetune

    def finetune(model, *args, **kwargs):
        result = real(model, *args, **kwargs)
        model.parameters()[0].value[0, 0] += 1.0  # the first encoder weight
        return result

    monkeypatch.setattr(training, "finetune", finetune)
    capsys.readouterr()
    rc = run(valid_command("finetune", data_dir, artifacts[0] / "model.psv", tmp_path))
    err = capsys.readouterr().err
    assert rc == 2
    assert "model changed during fine-tuning" in err and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


def test_out_of_memory_is_one_runtime_failure_line(data_dir, artifacts, tmp_path, capsys, monkeypatch):
    """A tract too large for this machine may fit on another: not bad input,
    but one exit-2 line instead of a traceback. The fake allocation fails
    without allocating."""
    def init_latent(n_households, width, seed):
        assert n_households == 10**12
        raise MemoryError(f"Unable to allocate 21.8 TiB for an array with shape ({n_households}, {width})")

    monkeypatch.setattr(training, "init_latent", init_latent)
    with open(data_dir / "tract_marginals.csv", encoding="utf-8", newline="") as fh:
        rows = replace_first("__n_households__", str(10**12))(list(csv.reader(fh)))
    marginals = tmp_path / "tract_marginals.csv"
    with open(marginals, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    out = tmp_path / "out"
    out.mkdir()
    argv = valid_command("finetune", data_dir, artifacts[0] / "model.psv", out)
    argv[argv.index("--tract-marginals") + 1] = str(marginals)
    capsys.readouterr()
    rc = run(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("runtime failure: out of memory: Unable to allocate") and err.count("\n") == 1
    assert not any(out.iterdir())


def test_header_only_person_table_is_one_error_line_and_no_warning(data_dir, tmp_path, capsys):
    no_persons = header_only(data_dir / "persons.csv", tmp_path / "no_persons.csv")
    hh = str(data_dir / "households.csv")
    argv = ["privacy", "--schema", str(data_dir / "schema.json"), "--microdata-hh", hh,
            "--microdata-p", no_persons, "--a-hh", hh, "--a-p", no_persons,
            "--b-hh", hh, "--b-p", no_persons, "--out-dir", str(tmp_path / "privacy")]
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert [str(w.message) for w in caught] == []
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "privacy").exists()


def header_only(src, dst):
    dst.write_text(src.read_text().splitlines()[0] + "\n")
    return str(dst)


TOO_LITTLE_DATA = ["pretrain-one-household", "finetune-no-households",
                   "privacy-no-microdata-persons", "privacy-no-inventory-households"]


@pytest.mark.parametrize("case", TOO_LITTLE_DATA)
def test_too_little_data_is_exit_1_before_any_write(data_dir, artifacts, tmp_path, case, capsys):
    out = tmp_path / "out"
    out.mkdir()
    hh, p = str(data_dir / "households.csv"), str(data_dir / "persons.csv")
    if case == "pretrain-one-household":
        one = tmp_path / "one"
        assert run(["oracle-make", "--out-dir", str(one), "--households", "1",
                    "--tract-households", "10", "--seed", "3"]) == 0
        argv = ["pretrain", "--schema", str(one / "schema.json"),
                "--microdata-hh", str(one / "households.csv"),
                "--microdata-p", str(one / "persons.csv"),
                "--out", str(out / "model.psv"), "--seed", "1", "--epochs", "2"]
    elif case == "finetune-no-households":
        argv = valid_command("finetune", data_dir, artifacts[0] / "model.psv", out)
        argv[argv.index("--microdata-hh") + 1] = header_only(data_dir / "households.csv",
                                                             tmp_path / "no_hh.csv")
        argv[argv.index("--microdata-p") + 1] = header_only(data_dir / "persons.csv",
                                                            tmp_path / "no_p.csv")
    else:
        a_hh, a_p = hh, p
        if case == "privacy-no-microdata-persons":
            p = header_only(data_dir / "persons.csv", tmp_path / "no_persons.csv")
        else:
            inv = tmp_path / "inv"
            assert cli_generate(data_dir, artifacts[0] / "model.psv",
                                artifacts[0] / "latent.psl", inv) == 0
            a_hh = header_only(inv / "households.csv", tmp_path / "dropped_hh.csv")
            a_p = header_only(inv / "persons.csv", tmp_path / "dropped_p.csv")
        argv = ["privacy", "--schema", str(data_dir / "schema.json"), "--microdata-hh", hh,
                "--microdata-p", p, "--a-hh", a_hh, "--a-p", a_p, "--b-hh", hh, "--b-p", p,
                "--out-dir", str(out / "privacy")]
    capsys.readouterr()
    rc = run(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    if case == "finetune-no-households":
        assert err.startswith("error: --microdata-hh: ")
    assert not any(out.iterdir())


REMOVED_FLAGS = [
    ("pretrain", "--focal-alpha", "0.5"),
    ("pretrain", "--history", "h.csv"),
    ("finetune", "--history", "h.csv"),
    ("finetune", "--dbce-subsample", "5"),
    ("oracle-make", "--type-weights", "family=1"),
    ("oracle-make", "--tract-type-weights", "family=1"),
]


@pytest.mark.parametrize("sub,flag,value", REMOVED_FLAGS, ids=[" ".join(c) for c in REMOVED_FLAGS])
def test_removed_flag_is_a_usage_error(data_dir, artifacts, tmp_path, sub, flag, value, capsys):
    capsys.readouterr()
    rc = run([*valid_command(sub, data_dir, artifacts[0] / "model.psv", tmp_path), flag, value])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: popsynth: unrecognized arguments: {flag} {value}\n"
    assert not any(tmp_path.iterdir())


def test_readme_quick_start_commands_parse():
    """Every command of README's Quick start is one the parser accepts."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start")[1].split("```sh\n")[1].split("```")[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("popsynth ")]
    assert [argv[1] for argv in commands] == [
        "oracle-make", "pretrain", "finetune", "generate", "evaluate"
    ]
    for argv in commands:
        build_parser().parse_args(argv[1:])


def rewrite_header(src, dst, change):
    """Copy a ``write_blob`` file with ``change(header)`` as its header,
    signed again."""
    blob = src.read_bytes()[: -vae.DIGEST_SIZE]
    (size,) = struct.unpack_from("<I", blob, 8)
    header = change(json.loads(blob[12 : 12 + size]))
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    dst.write_bytes(signed(blob[:8] + struct.pack("<I", len(head)) + head + blob[12 + size :]))


def with_keys(**changes):
    return lambda header: header | changes


FOREIGN_HEADERS = {
    "psv-dtype": ("model.psv", with_keys(dtype="<f4"), "unsupported dtype '<f4'"),
    "psv-format": ("model.psv", with_keys(format="pslatent"), "format 'pslatent' is not psvae"),
    "psl-format": ("latent.psl", with_keys(format="psvae"), "format 'psvae' is not pslatent"),
    "psl-dtype": ("latent.psl", with_keys(dtype=">f8"), "unsupported dtype '>f8'"),
    "psv-version-1": ("model.psv", with_keys(version=1), "unsupported version 1"),
    "psv-version-2": ("model.psv", with_keys(version=2), "unsupported version 2"),
    "psl-version-1": ("latent.psl", with_keys(version=1), "unsupported version 1"),
    # provenance.json reports the latent's seed, so it is checked like the rest
    "psl-seed-renamed": (
        "latent.psl",
        lambda header: {"sead" if k == "seed" else k: v for k, v in header.items()},
        "header keys",
    ),
    "psl-seed-not-an-integer": ("latent.psl", with_keys(seed=3.5), "seed 3.5 is not an integer"),
    "psl-seed-a-bool": ("latent.psl", with_keys(seed=True), "seed True is not an integer"),
}


@pytest.mark.parametrize("case", sorted(FOREIGN_HEADERS))
def test_foreign_header_is_exit_1(data_dir, artifacts, tmp_path, case, capsys):
    fmt, change, message = FOREIGN_HEADERS[case]
    d, _ = artifacts
    paths = {"model.psv": d / "model.psv", "latent.psl": d / "latent.psl"}
    rewrite_header(paths[fmt], tmp_path / fmt, change)
    paths[fmt] = tmp_path / fmt
    capsys.readouterr()
    rc = cli_generate(data_dir, paths["model.psv"], paths["latent.psl"], tmp_path / "inv")
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and message in err and err.count("\n") == 1
    assert not (tmp_path / "inv").exists()


@pytest.mark.parametrize("key, shape", [("rows", (0, 3)), ("width", (12, 0))])
def test_empty_latent_is_exit_1(data_dir, artifacts, tmp_path, key, shape, capsys):
    """A latent of no rows, or of rows 0 wide, saved with the model's
    fingerprints and a valid digest, is malformed: one of no rows would
    decode to an empty inventory."""
    d, model = artifacts
    path = tmp_path / "empty.psl"
    training.save_latent(training.LatentMatrix(np.zeros(shape), 3), path,
                         model.schema_fingerprint, model.checksum())
    with pytest.raises(DataError, match=f"{key} 0 is below 1"):
        training.load_latent(path)
    capsys.readouterr()
    assert cli_generate(data_dir, d / "model.psv", path, tmp_path / "inv") == 1
    assert capsys.readouterr().err == f"error: {path}: {key} 0 is below 1\n"
    assert not (tmp_path / "inv").exists()


def format_3_model(model) -> bytes:
    """``model``'s file as format 3 wrote it: a zero bias after the weights
    of each affine layer that lacks one, and nothing after the payload."""
    present = dict(model.arrays)
    arrays, payload = [], []
    for name, arr in model.arrays:
        arrays.append([name, list(arr.shape)])
        payload.append(arr.ravel())
        if name.endswith(".affine.w") and name[:-1] + "b" not in present:
            arrays.append([name[:-1] + "b", [arr.shape[0]]])
            payload.append(np.zeros(arr.shape[0]))
    header = model.header() | {"arrays": arrays, "version": 3, "dtype": "<f8"}
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = np.concatenate(payload).astype("<f8").tobytes()
    return vae.MODEL_MAGIC + struct.pack("<I", len(head)) + head + body


def test_format_3_model_is_exit_1(data_dir, artifacts, tmp_path, capsys):
    """A model from before format 4, which held the 14 affine biases that
    the batch norms cancel, exits 1 with one line and writes nothing."""
    old = tmp_path / "old.psv"
    old.write_bytes(format_3_model(artifacts[1]))
    capsys.readouterr()
    rc = run(valid_command("finetune", data_dir, old, tmp_path))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "old.psv" in err and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.psv"]


def test_privacy_ignores_repeated_microdata_households(data_dir, artifacts, tmp_path):
    """Privacy compares against the distinct microdata rows at both levels,
    so every household appended again under a new id changes no output."""
    doubled = tmp_path / "doubled"
    doubled.mkdir()
    for name in ("households.csv", "persons.csv"):
        header, *rows = list(csv.reader((data_dir / name).open(newline="")))
        with (doubled / name).open("w", newline="") as fh:
            csv.writer(fh).writerows([header, *rows, *([f"{r[0]}-again", *r[1:]] for r in rows)])
    assert cli_generate(data_dir, artifacts[0] / "model.psv", artifacts[0] / "latent.psl",
                        tmp_path / "inv") == 0
    a = ["--a-hh", str(data_dir / "households.csv"), "--a-p", str(data_dir / "persons.csv")]
    b = ["--b-hh", str(tmp_path / "inv" / "households.csv"),
         "--b-p", str(tmp_path / "inv" / "persons.csv")]
    names = ("dcr_distances.csv", "dcr_histogram_household.csv", "dcr_histogram_person.csv",
             "privacy_summary.json")
    outputs = []
    for micro in (data_dir, doubled):
        out = tmp_path / f"privacy_{micro.name}"
        assert run(["privacy", "--schema", str(data_dir / "schema.json"),
                    "--microdata-hh", str(micro / "households.csv"),
                    "--microdata-p", str(micro / "persons.csv"), *a, *b,
                    "--out-dir", str(out)]) == 0
        outputs.append({name: (out / name).read_bytes() for name in names})
    assert outputs[0] == outputs[1]
    summary = json.loads(outputs[0]["privacy_summary.json"])
    assert summary["levels"]["household"]["a_mean"] < summary["levels"]["household"]["b_mean"]


def test_privacy_histogram_has_one_row_per_distance(data_dir, artifacts, tmp_path):
    """Each distance that occurs is one histogram row, however many rows tie
    on it: the microdata as inventory a ties every row at its self-match
    distance. Each count column sums to its inventory's rows, and the
    counts are the tallies of ``dcr_distances.csv``."""
    assert cli_generate(data_dir, artifacts[0] / "model.psv", artifacts[0] / "latent.psl",
                        tmp_path / "inv") == 0
    out = tmp_path / "privacy"
    assert run(["privacy", *micro_flags(data_dir),
                "--a-hh", str(data_dir / "households.csv"), "--a-p", str(data_dir / "persons.csv"),
                "--b-hh", str(tmp_path / "inv" / "households.csv"),
                "--b-p", str(tmp_path / "inv" / "persons.csv"), "--out-dir", str(out)]) == 0
    levels = json.loads((out / "privacy_summary.json").read_text())["levels"]
    with open(out / "dcr_distances.csv", newline="") as fh:
        tally = collections.Counter((r["level"], r["inventory"], r["distance"])
                                    for r in csv.DictReader(fh))
    for level, summary in levels.items():
        with open(out / f"dcr_histogram_{level}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        distances = [float(r["distance"]) for r in rows]
        assert distances == sorted(set(distances))
        for inv in "ab":
            counts = {r["distance"]: int(r[f"count_{inv}"]) for r in rows}
            assert sum(counts.values()) == summary[f"{inv}_n"]
            assert {d: c for d, c in counts.items() if c} == {
                d: c for (lv, i, d), c in tally.items() if (lv, i) == (level, inv)}
        assert [int(r["count_a"]) for r in rows].count(summary["a_n"]) == 1
