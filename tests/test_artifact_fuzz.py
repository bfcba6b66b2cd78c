"""Fuzzing of the .psv model and .psl latent files through ``generate``.

A real model and a latent fitted for it are written once; each example
corrupts one of them and runs ``generate`` through ``cli.run``. A file cut
short at any length must exit 1. A bit flipped in the magic, the length
prefix or the JSON header may still describe a usable file (exit 0, with the
untouched run's inventory) or not (exit 1 with one ``error:`` line), but
never a runtime failure (exit 2) or an uncaught exception. A bit flipped in
the model's float payload changes its fingerprint, which no longer matches
the one the latent records, or makes a value NaN or infinite, which the
reader rejects; either way it exits 1. The latent's own payload has no
checksum, so flips there are not tested; a NaN or infinite latent cell is.
"""

import contextlib
import io
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popsynth import training, vae
from popsynth.cli import run

FORMATS = ("model.psv", "latent.psl")
INVENTORY = ("households.csv", "persons.csv", "provenance.json")


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    assert run(["oracle-make", "--out-dir", str(d), "--households", "40",
                "--tract-households", "10", "--seed", "4"]) == 0
    assert run(["pretrain", "--schema", str(d / "schema.json"),
                "--microdata-hh", str(d / "households.csv"),
                "--microdata-p", str(d / "persons.csv"), "--out", str(d / "model.psv"),
                "--seed", "1", "--epochs", "2", "--latent-dim", "2",
                "--hidden-widths", "6,6,5,5,4,4", "--reparam-mode", "standard"]) == 0
    model = vae.load_model(d / "model.psv")
    training.save_latent(
        training.init_latent(6, model.latent_dim, 3), d / "latent.psl",
        model.schema_fingerprint, model.checksum(),
    )
    return d


def header_end(blob: bytes) -> int:
    """Bytes taken by the magic, the u32 length prefix and the JSON header."""
    (size,) = struct.unpack_from("<I", blob, 8)
    return 12 + size


def generate_with(d: Path, fmt: str, blob: bytes) -> tuple[int, str, dict]:
    """Exit code, standard error and inventory files (name -> bytes) of
    ``generate`` with ``fmt`` replaced by ``blob``."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: d / name for name in FORMATS}
        paths[fmt] = Path(tmp) / fmt
        paths[fmt].write_bytes(blob)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = run(["generate", "--model", str(paths["model.psv"]),
                      "--schema", str(d / "schema.json"), "--latent", str(paths["latent.psl"]),
                      "--out-dir", str(Path(tmp) / "inv"), "--seed", "5"])
        inv = Path(tmp) / "inv"
        files = {name: (inv / name).read_bytes() for name in INVENTORY if (inv / name).exists()}
    return rc, err.getvalue(), files


def assert_one_error_line(rc: int, err: str) -> None:
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.fixture(scope="module")
def untouched(artifacts):
    """The inventory files of a run on the untouched artifacts."""
    rc, err, files = generate_with(artifacts, "model.psv", (artifacts / "model.psv").read_bytes())
    assert (rc, err, sorted(files)) == (0, "", sorted(INVENTORY))
    return files


def test_untouched_artifacts_generate(artifacts):
    for fmt in FORMATS:
        assert generate_with(artifacts, fmt, (artifacts / fmt).read_bytes())[:2] == (0, "")


def with_schema(blob: bytes, change) -> bytes:
    """A model file whose header holds ``change(schema)`` in place of its schema."""
    (size,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12 : 12 + size])
    header["schema"] = change(header["schema"])
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return blob[:8] + struct.pack("<I", len(head)) + head + blob[12 + size :]


HEADER_SCHEMAS = {
    "n_window-null": lambda s: s | {"n_window": None},
    "misspelt-key": lambda s: {k.replace("_key", "_keys"): v for k, v in s.items()},
    "not-an-object": lambda s: [s],
    "no-person-section": lambda s: {k: v for k, v in s.items() if k != "person"},
}


@pytest.mark.parametrize("case", sorted(HEADER_SCHEMAS))
def test_model_header_without_a_usable_schema_is_exit_1(artifacts, case):
    """The model's layout comes from the schema in its header, so that schema
    must be complete (n_window included) and parse under the strict loader."""
    blob = with_schema((artifacts / "model.psv").read_bytes(), HEADER_SCHEMAS[case])
    rc, err, _ = generate_with(artifacts, "model.psv", blob)
    assert_one_error_line(rc, err)
    assert "header does not describe a model" in err


@settings(max_examples=150, deadline=None)
@given(fmt=st.sampled_from(FORMATS), data=st.data())
def test_truncated_artifact_is_exit_1(artifacts, fmt, data):
    blob = (artifacts / fmt).read_bytes()
    cut = data.draw(st.integers(0, len(blob) - 1), label="length")
    rc, err, _ = generate_with(artifacts, fmt, blob[:cut])
    assert_one_error_line(rc, err)


@settings(max_examples=300, deadline=None)
@given(fmt=st.sampled_from(FORMATS), data=st.data())
def test_header_bit_flip_is_exit_0_or_1(artifacts, untouched, fmt, data):
    blob = bytearray((artifacts / fmt).read_bytes())
    pos = data.draw(st.integers(0, header_end(blob) - 1), label="byte")
    blob[pos] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    rc, err, files = generate_with(artifacts, fmt, bytes(blob))
    assert rc in (0, 1)
    lines = err.splitlines()
    assert sum(line.startswith("error:") for line in lines) == rc
    if rc == 1:
        assert len(lines) == 1
        return
    assert files["households.csv"] == untouched["households.csv"]
    assert files["persons.csv"] == untouched["persons.csv"]
    if fmt == "model.psv":
        assert files["provenance.json"] == untouched["provenance.json"]
    else:  # a seed flipped from one digit to another is still an integer seed
        got, want = (json.loads(f["provenance.json"]) for f in (files, untouched))
        assert got | {"latent_seed": want["latent_seed"]} == want


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_model_payload_bit_flip_is_exit_1(artifacts, data):
    blob = bytearray((artifacts / "model.psv").read_bytes())
    pos = data.draw(st.integers(header_end(blob), len(blob) - 1), label="byte")
    blob[pos] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    rc, err, _ = generate_with(artifacts, "model.psv", bytes(blob))
    assert_one_error_line(rc, err)
    assert "was fitted for another model" in err or "holds a value that is not finite" in err


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_latent_cell_is_exit_1(artifacts, tmp_path, value):
    """A latent with one NaN or infinite cell, saved for the model, is
    rejected by the reader; it used to decode to an inventory."""
    latent, header = training.load_latent(artifacts / "latent.psl")
    latent.z[2, 1] = value
    path = tmp_path / "latent.psl"
    training.save_latent(latent, path, header["schema_fingerprint"], header["model_fingerprint"])
    rc, err, files = generate_with(artifacts, "latent.psl", path.read_bytes())
    assert_one_error_line(rc, err)
    assert "latent.psl: payload holds a value that is not finite" in err
    assert files == {}


@pytest.fixture
def nan_model(artifacts, tmp_path):
    """A model with one NaN decoder weight, and a latent saved for it."""
    model = vae.load_model(artifacts / "model.psv")
    dict(model.arrays)["dec0.affine.w"][0, 0] = np.nan
    vae.save_model(model, tmp_path / "model.psv")
    training.save_latent(training.init_latent(6, model.latent_dim, 3), tmp_path / "latent.psl",
                         model.schema_fingerprint, model.checksum())
    return tmp_path


def test_non_finite_model_weight_is_exit_1_in_generate(artifacts, nan_model):
    rc, err, files = generate_with(nan_model, "model.psv", (nan_model / "model.psv").read_bytes())
    assert_one_error_line(rc, err)
    assert "model.psv: payload holds a value that is not finite" in err
    assert files == {}


def test_non_finite_model_weight_is_exit_1_in_finetune(artifacts, nan_model, capsys):
    capsys.readouterr()
    rc = run(["finetune", "--schema", str(artifacts / "schema.json"),
              "--microdata-hh", str(artifacts / "households.csv"),
              "--microdata-p", str(artifacts / "persons.csv"),
              "--model", str(nan_model / "model.psv"),
              "--tract-marginals", str(artifacts / "tract_marginals.csv"),
              "--out-latent", str(nan_model / "tuned.psl"), "--seed", "2", "--epochs", "1"])
    err = capsys.readouterr().err
    assert_one_error_line(rc, err)
    assert "model.psv: payload holds a value that is not finite" in err
    assert not (nan_model / "tuned.psl").exists()
