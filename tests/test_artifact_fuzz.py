"""Fuzzing of the .psv model and .psl latent files through ``generate``.

A real model and a latent fitted for it are written once; each example
corrupts one of them and runs ``generate`` through ``cli.run``. A file cut
short at any length must exit 1. A bit flipped in the magic, the length
prefix or the JSON header may still describe a usable file (exit 0) or not
(exit 1 with one ``error:`` line), but never a runtime failure (exit 2) or an
uncaught exception. The float payload has no checksum, so flips there are
not tested.
"""

import contextlib
import io
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popsynth import training, vae
from popsynth.cli import run

FORMATS = ("model.psv", "latent.psl")


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


def generate_with(d: Path, fmt: str, blob: bytes) -> tuple[int, str]:
    """Exit code and standard error of ``generate`` with ``fmt`` replaced by ``blob``."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: d / name for name in FORMATS}
        paths[fmt] = Path(tmp) / fmt
        paths[fmt].write_bytes(blob)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = run(["generate", "--model", str(paths["model.psv"]),
                      "--schema", str(d / "schema.json"), "--latent", str(paths["latent.psl"]),
                      "--out-dir", str(Path(tmp) / "inv"), "--seed", "5"])
    return rc, err.getvalue()


def test_untouched_artifacts_generate(artifacts):
    for fmt in FORMATS:
        assert generate_with(artifacts, fmt, (artifacts / fmt).read_bytes()) == (0, "")


def test_model_with_groups_wider_than_its_output_is_exit_1(artifacts):
    """Found by the fuzzer: a flip in the last group's width (4 -> 5) gave a
    model whose softmax groups overrun its output layer, and ``generate``
    exited 2 with a runtime failure."""
    blob = bytearray((artifacts / "model.psv").read_bytes())
    pos = blob.index(b'],"hyperparams"') - 2  # the last group's width
    assert blob[pos : pos + 2] == b"4]"
    blob[pos] ^= 1
    rc, err = generate_with(artifacts, "model.psv", bytes(blob))
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1


@settings(max_examples=150, deadline=None)
@given(fmt=st.sampled_from(FORMATS), data=st.data())
def test_truncated_artifact_is_exit_1(artifacts, fmt, data):
    blob = (artifacts / fmt).read_bytes()
    cut = data.draw(st.integers(0, len(blob) - 1), label="length")
    rc, err = generate_with(artifacts, fmt, blob[:cut])
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1


@settings(max_examples=300, deadline=None)
@given(fmt=st.sampled_from(FORMATS), data=st.data())
def test_header_bit_flip_is_exit_0_or_1(artifacts, fmt, data):
    blob = bytearray((artifacts / fmt).read_bytes())
    pos = data.draw(st.integers(0, header_end(blob) - 1), label="byte")
    blob[pos] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    rc, err = generate_with(artifacts, fmt, bytes(blob))
    assert rc in (0, 1)
    lines = err.splitlines()
    assert sum(line.startswith("error:") for line in lines) == rc
    if rc == 1:
        assert len(lines) == 1
