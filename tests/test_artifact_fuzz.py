"""Fuzzing of the .psv model and .psl latent files through ``generate``.

A real model and a latent fitted for it are written once; each example
corrupts one of them and runs ``generate`` through ``cli.run``. A file cut
short at any length must exit 1. Both files end with the sha256 of every
byte before it, so a bit flipped anywhere, in the magic, the length prefix,
the JSON header, the float payload or the digest itself, exits 1 with one
``error:`` line: never 0 with a wrong inventory, never a runtime failure
(exit 2) or an uncaught exception. A header that a writer signed but that
describes no usable model, and a NaN or infinite latent cell or model
weight, exit 1 too.
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

from conftest import signed
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


def test_untouched_artifacts_generate(artifacts):
    for fmt in FORMATS:
        rc, err, files = generate_with(artifacts, fmt, (artifacts / fmt).read_bytes())
        assert (rc, err, sorted(files)) == (0, "", sorted(INVENTORY))


def flip_bit(blob: bytes, data, first: int, last: int) -> bytes:
    """``blob`` with one drawn bit flipped in a drawn byte of [first, last]."""
    blob = bytearray(blob)
    pos = data.draw(st.integers(first, last), label="byte")
    blob[pos] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    return bytes(blob)


def with_schema(blob: bytes, change) -> bytes:
    """A model file whose header holds ``change(schema)`` in place of its
    schema, signed again."""
    blob = blob[: -vae.DIGEST_SIZE]
    (size,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12 : 12 + size])
    header["schema"] = change(header["schema"])
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return signed(blob[:8] + struct.pack("<I", len(head)) + head + blob[12 + size :])


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
def test_header_bit_flip_is_exit_1(artifacts, fmt, data):
    """A flip in the magic fails the magic check, any other the digest,
    which is checked before the header is read. Without the digest, a
    latent seed flipped from one digit to another exited 0."""
    blob = (artifacts / fmt).read_bytes()
    rc, err, files = generate_with(artifacts, fmt, flip_bit(blob, data, 0, header_end(blob) - 1))
    assert_one_error_line(rc, err)
    assert "bad magic" in err or "digest does not match" in err
    assert files == {}


def test_latent_seed_digit_flip_is_exit_1(artifacts):
    """The header flip that exited 0 before the digest: the latent's seed
    3 flipped to 2 still parsed, and provenance.json reported seed 2."""
    blob = bytearray((artifacts / "latent.psl").read_bytes())
    pos = blob.index(b'"seed":3,') + len(b'"seed":')
    blob[pos] ^= 1  # "3" -> "2"
    rc, err, files = generate_with(artifacts, "latent.psl", bytes(blob))
    assert_one_error_line(rc, err)
    assert "latent.psl: sha256 digest does not match" in err
    assert files == {}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_model_payload_bit_flip_is_exit_1(artifacts, data):
    blob = (artifacts / "model.psv").read_bytes()
    flipped = flip_bit(blob, data, header_end(blob), len(blob) - 1)
    rc, err, _ = generate_with(artifacts, "model.psv", flipped)
    assert_one_error_line(rc, err)
    assert "model.psv: sha256 digest does not match" in err


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_latent_payload_bit_flip_is_exit_1(artifacts, data):
    """A flipped latent cell still decodes to an inventory, so only the
    digest can catch it."""
    blob = (artifacts / "latent.psl").read_bytes()
    flipped = flip_bit(blob, data, header_end(blob), len(blob) - 1)
    rc, err, files = generate_with(artifacts, "latent.psl", flipped)
    assert_one_error_line(rc, err)
    assert "latent.psl: sha256 digest does not match" in err
    assert files == {}


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
