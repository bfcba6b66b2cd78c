import csv
import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import popsynth
from popsynth import training, vae
from popsynth.cli import _load_tables, run
from popsynth.schema import DataError, HouseholdRecord

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
    src = os.path.dirname(os.path.dirname(popsynth.__file__))
    code = "import sys; import popsynth.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "False"


def test_desk_script_writes_the_digest_of_every_output(tmp_path):
    script = Path(__file__).parents[1] / "scripts" / "run_desk_pipeline.py"
    work = tmp_path / "desk"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(popsynth.__file__)))
    subprocess.run(
        [sys.executable, str(script), "--work-dir", str(work), "--households", "60",
         "--tract-households", "20", "--pretrain-epochs", "4", "--pretrain-decay-start", "1",
         "--finetune-epochs", "4", "--finetune-decay-start", "1", "--wide-sample", "50",
         "--batch-size", "30"],
        capture_output=True, env=env, check=True,
    )
    digests = json.loads((work / "digests.json").read_text())
    on_disk = {
        str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in work.rglob("*")
        if p.is_file() and not p.name.endswith("manifest.json") and p.name != "digests.json"
    }
    assert digests == on_disk
    assert {"model.psv", "latent.psl", "syn_tuned/households.csv"} <= set(digests)


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


def write_records(tmp_path, name, records):
    """The household and person CSVs of ``records`` (tiny schema columns)."""
    hh, pp = tmp_path / f"{name}_hh.csv", tmp_path / f"{name}_p.csv"
    hh.write_text("household_id,OWN,CAR\n" + "".join(
        f"{r.household_id},{','.join(r.values)}\n" for r in records))
    pp.write_text("household_id,AGE,JOB\n" + "".join(
        f"{r.household_id},{','.join(p)}\n" for r in records for p in r.persons))
    return hh, pp


@pytest.mark.filterwarnings("ignore:person table")
def test_open_window_resolves_over_all_record_sets(tiny_schema, tmp_path):
    open_schema = tiny_schema.with_n_window(None)
    none = write_records(tmp_path, "none", [])
    tables = _load_tables(open_schema, none, none)
    assert [t.schema.n_window for t in tables] == [1, 1]
    three = write_records(tmp_path, "three", [HouseholdRecord("h", ("yes", "0"), [("kid", "none")] * 3)])
    empty = write_records(tmp_path, "empty", [HouseholdRecord("e", ("no", "1"), [])])
    tables = _load_tables(open_schema, empty, three, none)
    assert [t.schema.n_window for t in tables] == [3, 3, 3]
    assert [t.n_rows for t in tables] == [1, 1, 0]
    # a pinned window is never widened
    with pytest.raises(DataError, match="n_window is 2"):
        _load_tables(tiny_schema, three)


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


BAD_N_WINDOWS = {"non-numeric-n-window": "x", "fractional-n-window": 3.5}


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
        schema.write_text(json.dumps(raw | {"n_window": BAD_N_WINDOWS[case]}))
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


def micro_flags(data_dir):
    return [
        "--schema", str(data_dir / "schema.json"),
        "--microdata-hh", str(data_dir / "households.csv"),
        "--microdata-p", str(data_dir / "persons.csv"),
    ]


def valid_command(sub, data_dir, model, out):
    """A quick, valid ``sub`` run that writes only into the directory ``out``."""
    hh, p = str(data_dir / "households.csv"), str(data_dir / "persons.csv")
    return {
        "pretrain": ["pretrain", *micro_flags(data_dir), "--out", str(out / "model.psv"),
                     "--seed", "1", "--epochs", "2", "--latent-dim", "3",
                     "--hidden-widths", TINY_WIDTHS],
        "finetune": ["finetune", *micro_flags(data_dir), "--model", str(model),
                     "--tract-marginals", str(data_dir / "tract_marginals.csv"),
                     "--out-latent", str(out / "latent.psl"), "--seed", "2", "--epochs", "2"],
        "oracle-make": ["oracle-make", "--out-dir", str(out / "data"), "--households", "20",
                        "--tract-households", "10", "--seed", "3"],
        "privacy": ["privacy", *micro_flags(data_dir), "--a-hh", hh, "--a-p", p,
                    "--b-hh", hh, "--b-p", p, "--out-dir", str(out / "privacy")],
    }[sub]


@pytest.mark.parametrize("sub", ["pretrain", "finetune", "oracle-make", "privacy"])
def test_valid_command_writes(data_dir, artifacts, tmp_path, sub):
    assert run(valid_command(sub, data_dir, artifacts[0] / "model.psv", tmp_path)) == 0
    assert any(tmp_path.iterdir())


BAD_NUMBERS = [
    ("pretrain", "--hidden-widths", "8,8"),
    ("pretrain", "--hidden-widths", "a,b"),
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
    ("privacy", "--bins", "-2"),
    ("privacy", "--bins", "0"),
]


@pytest.mark.parametrize("sub,flag,value", BAD_NUMBERS, ids=[" ".join(c) for c in BAD_NUMBERS])
def test_bad_numeric_flag_is_exit_1_before_any_write(data_dir, artifacts, tmp_path, sub, flag, value, capsys):
    capsys.readouterr()
    rc = run([*valid_command(sub, data_dir, artifacts[0] / "model.psv", tmp_path), flag, value])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


def header_only(src, dst):
    dst.write_text(src.read_text().splitlines()[0] + "\n")
    return str(dst)


TOO_LITTLE_DATA = ["pretrain-one-household", "privacy-no-microdata-persons",
                   "privacy-no-inventory-households"]


@pytest.mark.filterwarnings("ignore:person table")
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
    assert f"unrecognized arguments: {flag} {value}" in err and "usage:" in err
    assert not any(tmp_path.iterdir())


def rewrite_header(src, dst, **changes):
    """Copy a ``write_blob`` file with some header keys replaced."""
    blob = src.read_bytes()
    (size,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12 : 12 + size]) | changes
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    dst.write_bytes(blob[:8] + struct.pack("<I", len(head)) + head + blob[12 + size :])


@pytest.mark.parametrize(
    "fmt,changes,message",
    [
        ("model.psv", {"dtype": "<f4"}, "unsupported dtype '<f4'"),
        ("model.psv", {"format": "pslatent"}, "format 'pslatent' is not psvae"),
        ("latent.psl", {"format": "psvae"}, "format 'psvae' is not pslatent"),
        ("latent.psl", {"dtype": ">f8"}, "unsupported dtype '>f8'"),
        ("model.psv", {"version": 1}, "unsupported version 1"),
    ],
    ids=["psv-dtype", "psv-format", "psl-format", "psl-dtype", "psv-version-1"],
)
def test_foreign_header_is_exit_1(data_dir, artifacts, tmp_path, fmt, changes, message, capsys):
    d, _ = artifacts
    paths = {"model.psv": d / "model.psv", "latent.psl": d / "latent.psl"}
    rewrite_header(paths[fmt], tmp_path / fmt, **changes)
    paths[fmt] = tmp_path / fmt
    capsys.readouterr()
    rc = cli_generate(data_dir, paths["model.psv"], paths["latent.psl"], tmp_path / "inv")
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and message in err and err.count("\n") == 1
    assert not (tmp_path / "inv").exists()
