import os

import numpy as np
import pytest

import oracles
from popsynth import vae
from popsynth.training import Lion
from popsynth.vae import (
    ModelFormatError,
    VaeHyperparams,
    init_model,
    load_model,
    save_model,
)

WIDTHS = (16, 14, 12, 12, 10, 8)


@pytest.fixture
def small_model(tiny_schema):
    return init_model(tiny_schema, latent_dim=3, hidden_widths=WIDTHS, seed=5)


def test_hyperparams_validate_block_count():
    with pytest.raises(ValueError):
        VaeHyperparams(encoder_widths=(8, 8))
    with pytest.raises(ValueError):
        VaeHyperparams(latent_dim=0)


def test_init_is_deterministic(tiny_schema):
    a = init_model(tiny_schema, latent_dim=3, hidden_widths=WIDTHS, seed=5)
    b = init_model(tiny_schema, latent_dim=3, hidden_widths=WIDTHS, seed=5)
    assert a.checksum() == b.checksum()
    c = init_model(tiny_schema, latent_dim=3, hidden_widths=WIDTHS, seed=6)
    assert a.checksum() != c.checksum()


def test_encoder_output_shapes(small_model, tiny_encoded):
    mu, logsig = small_model.encode(tiny_encoded.values, train=True)
    assert mu.shape == (4, 3)
    assert logsig.shape == (4, 3)


def test_decoder_rows_are_group_simplexes(small_model, rng):
    z = rng.normal(size=(6, 3))
    probs = small_model.decode(z, train=False)
    assert probs.shape == (6, small_model.d)
    for g in small_model.groups:
        np.testing.assert_allclose(
            probs[:, g.start : g.stop].sum(axis=1), 1.0, atol=1e-9
        )


def test_eval_decode_is_stateless(small_model, rng):
    z = rng.normal(size=(5, 3))
    before = small_model.checksum()
    a = small_model.decode(z, train=False)
    b = small_model.decode(z, train=False)
    np.testing.assert_array_equal(a, b)
    assert small_model.checksum() == before


def test_train_mode_updates_running_stats(small_model, tiny_encoded):
    before = small_model.checksum()
    small_model.encode(tiny_encoded.values, train=True)
    assert small_model.checksum() != before


def test_encoder_gradient(small_model, tiny_encoded, rng):
    x0 = tiny_encoded.values
    w_mu = rng.normal(size=(4, 3))
    w_ls = rng.normal(size=(4, 3))

    def f(x):
        mu, logsig = small_model.encode(x, train=True)
        return float((mu * w_mu).sum() + (logsig * w_ls).sum())

    f(x0)
    dx = small_model.encode_backward(w_mu, w_ls, with_params=False)
    numeric = oracles.central_difference(f, x0, step=1e-6)
    assert oracles.max_rel_error(dx, numeric, floor=1e-4) < 1e-4


def test_decoder_gradient(small_model, rng):
    z0 = rng.normal(size=(5, 3))
    w = rng.normal(size=(5, small_model.d))

    def f(z):
        return float((small_model.decode(z, train=True) * w).sum())

    f(z0)
    dz = small_model.decode_backward(w, with_params=False)
    numeric = oracles.central_difference(f, z0, step=1e-6)
    assert oracles.max_rel_error(dz, numeric, floor=1e-4) < 1e-4


def test_decoder_param_gradient(small_model, rng):
    z = rng.normal(size=(6, 3))
    w = rng.normal(size=(6, small_model.d))
    small_model.decode(z, train=True)
    small_model.zero_grads()
    small_model.decode_backward(w, with_params=True)
    p = small_model.out_affine.b
    grad = p.grad.copy()
    v0 = p.value.copy()

    def f(v):
        p.value = v
        out = float((small_model.decode(z, train=True) * w).sum())
        p.value = v0
        return out

    numeric = oracles.central_difference(f, v0, step=1e-6)
    assert oracles.max_rel_error(grad, numeric, floor=1e-4) < 1e-4


def test_save_load_round_trip(small_model, tmp_path, rng):
    # perturb away from init so persistence is exercised on nontrivial values
    for p in small_model.parameters():
        p.value += rng.normal(scale=0.01, size=p.value.shape)
    path = tmp_path / "model.psv"
    save_model(small_model, path)
    loaded = load_model(path)
    assert loaded.checksum() == small_model.checksum()
    assert loaded.hyper == small_model.hyper
    assert loaded.groups == small_model.groups
    z = rng.normal(size=(4, 3))
    np.testing.assert_array_equal(
        loaded.decode(z, train=False), small_model.decode(z, train=False)
    )


def test_save_is_byte_deterministic(small_model, tmp_path):
    p1 = tmp_path / "a.psv"
    p2 = tmp_path / "b.psv"
    save_model(small_model, p1)
    save_model(small_model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_bad_magic(tmp_path):
    p = tmp_path / "junk.psv"
    p.write_bytes(b"NOTAMODEL" + b"\x00" * 64)
    with pytest.raises(ModelFormatError):
        load_model(p)


def test_load_rejects_truncation(small_model, tmp_path):
    p = tmp_path / "model.psv"
    save_model(small_model, p)
    blob = p.read_bytes()
    p.write_bytes(blob[:-16])
    with pytest.raises(ModelFormatError):
        load_model(p)


def test_load_rejects_trailing_bytes(small_model, tmp_path):
    p = tmp_path / "model.psv"
    save_model(small_model, p)
    p.write_bytes(p.read_bytes() + b"x")
    with pytest.raises(ModelFormatError):
        load_model(p)


def test_decoder_checksum_ignores_encoder(small_model):
    before = small_model.decoder_checksum()
    full_before = small_model.checksum()
    small_model.encoder.params()[0].value += 1.0
    assert small_model.decoder_checksum() == before
    assert small_model.checksum() != full_before
    small_model.decoder.params()[0].value += 1.0
    assert small_model.decoder_checksum() != before


def test_state_vector_backs_every_array(small_model):
    params = small_model.parameters()
    n = sum(p.value.size for p in params)
    assert small_model.flat.value.size == n
    for p in params:
        assert np.shares_memory(p.value, small_model.state)
        assert np.shares_memory(p.grad, small_model.flat.grad)
    names = [name for name, _ in small_model.arrays]
    assert names[: len(params)] == [p.name for p in params]
    assert names[len(params)] == "enc0.bn.running_mean"
    assert sum(a.size for _, a in small_model.arrays) == small_model.state.size


def test_flat_lion_step_moves_the_layer_views(small_model, tiny_encoded):
    mu, logsig = small_model.encode(tiny_encoded.values, train=True)
    small_model.zero_grads()
    small_model.encode_backward(np.ones_like(mu), np.ones_like(logsig))
    w = small_model.mu_affine.w
    expected = w.value - 0.1 * np.sign(0.1 * w.grad)
    Lion([small_model.flat]).step(0.1)
    np.testing.assert_array_equal(w.value, expected)
    small_model.zero_grads()
    assert not small_model.flat.grad.any() and not w.grad.any()


def test_running_stats_stay_in_the_state_vector(small_model, tiny_encoded):
    bn = small_model.encoder.layers[1]
    small_model.encode(tiny_encoded.values, train=True)
    assert np.shares_memory(bn.running_mean, small_model.state)
    assert np.shares_memory(bn.running_var, small_model.state)
    np.testing.assert_array_equal(dict(small_model.arrays)["enc0.bn.running_var"], bn.running_var)


def _saved(model, tmp_path):
    p = tmp_path / "model.psv"
    save_model(model, p)
    return p


def test_payload_is_the_state_vector(small_model, tmp_path):
    p = _saved(small_model, tmp_path)
    assert p.read_bytes().endswith(small_model.state.astype("<f8").tobytes())


def test_load_rejects_foreign_directory(small_model, tmp_path):
    header, state = vae.read_blob(
        _saved(small_model, tmp_path), vae.MODEL_MAGIC, vae.MODEL_VERSION,
        lambda h: (sum(int(np.prod(s)) for _, s in h["arrays"]),),
    )
    a, b = header["arrays"][0], header["arrays"][1]
    header["arrays"][0], header["arrays"][1] = [b[0], a[1]], [a[0], b[1]]
    p = tmp_path / "swapped.psv"
    vae.write_blob(p, vae.MODEL_MAGIC, vae.MODEL_VERSION, header, state)
    with pytest.raises(ModelFormatError, match="directory"):
        load_model(p)


def test_failed_write_keeps_the_old_file(small_model, tmp_path, monkeypatch):
    p = _saved(small_model, tmp_path)
    old = p.read_bytes()
    small_model.state += 1.0

    def broken_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", broken_replace)
    with pytest.raises(OSError):
        save_model(small_model, p)
    assert p.read_bytes() == old


@pytest.mark.parametrize(
    "blob",
    [b"", b"PSVAE01\n\x01", b"PSVAE01\n\x02\x00\x00\x00[]", b"PSVAE01\n\x02\x00\x00\x00{}"],
    ids=["empty", "short", "not-an-object", "no-version"],
)
def test_load_rejects_malformed_prefix(blob, tmp_path):
    p = tmp_path / "bad.psv"
    p.write_bytes(blob)
    with pytest.raises(ModelFormatError):
        load_model(p)
