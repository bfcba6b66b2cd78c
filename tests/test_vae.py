import hashlib
import os
from dataclasses import replace

import numpy as np
import pytest

import oracles
from popsynth import vae
from popsynth.nn import BatchNorm
from popsynth.training import Lion
from popsynth.schema import DataError
from popsynth.vae import (
    VaeHyperparams,
    VaeModel,
    load_model,
    save_model,
)

WIDTHS = (16, 14, 12, 12, 10, 8)


@pytest.fixture
def small_model(tiny_schema):
    return VaeModel(tiny_schema, VaeHyperparams(3, WIDTHS, 5))


def test_hyperparams_validate_block_count():
    with pytest.raises(ValueError):
        VaeHyperparams(encoder_widths=(8, 8))
    with pytest.raises(ValueError):
        VaeHyperparams(latent_dim=0)


def test_init_is_deterministic(tiny_schema):
    a = VaeModel(tiny_schema, VaeHyperparams(3, WIDTHS, 5))
    b = VaeModel(tiny_schema, VaeHyperparams(3, WIDTHS, 5))
    assert a.checksum() == b.checksum()
    c = VaeModel(tiny_schema, VaeHyperparams(3, WIDTHS, 6))
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
    """A train-mode pass leaves the running statistics to
    ``update_running_stats``, which moves them."""
    before = small_model.checksum()
    mu, _ = small_model.encode(tiny_encoded.values, train=True)
    small_model.decode(mu, train=True)
    assert small_model.checksum() == before
    small_model.update_running_stats(mu.shape[0])
    assert small_model.checksum() != before


def test_running_stats_follow_the_per_layer_recurrence_bit_for_bit(
    small_model, tiny_encoded, rng, monkeypatch
):
    """k train-mode steps, each folded in by one ``update_running_stats``,
    give every batch norm the textbook per-layer recurrence on the mean and
    variance of its input, bit for bit."""
    inputs = []  # (layer, train-mode input), in call order
    forward = BatchNorm.forward

    def spy(layer, x, train=True):
        if train:
            inputs.append((layer, x.copy()))
        return forward(layer, x, train)

    monkeypatch.setattr(BatchNorm, "forward", spy)
    bns = [layer for layer in small_model._layers() if isinstance(layer, BatchNorm)]
    want = {bn.name: (bn.running_mean.copy(), bn.running_var.copy()) for bn in bns}
    m = BatchNorm.MOMENTUM
    for _ in range(5):
        x = tiny_encoded.values[rng.permutation(4)[:3]]
        mu, logsig = small_model.encode(x, train=True)
        small_model.decode(mu + logsig, train=True)
        small_model.update_running_stats(x.shape[0])
        assert len(inputs) == len(bns)
        for bn, h in inputs:
            n = h.shape[0]
            r_mean, r_var = want[bn.name]
            want[bn.name] = (
                (1 - m) * r_mean + m * h.mean(axis=0),
                (1 - m) * r_var + m * h.var(axis=0) * n / (n - 1),
            )
        inputs.clear()
    for bn in bns:
        assert bn.running_mean.tobytes() == want[bn.name][0].tobytes(), bn.name
        assert bn.running_var.tobytes() == want[bn.name][1].tobytes(), bn.name


def test_encoder_gradient(small_model, tiny_encoded, rng):
    x0 = tiny_encoded.values
    w_mu = rng.normal(size=(4, 3))
    w_ls = rng.normal(size=(4, 3))

    def f(x):
        mu, logsig = small_model.encode(x, train=True)
        return float((mu * w_mu).sum() + (logsig * w_ls).sum())

    f(x0)
    dx = small_model.encode_backward(w_mu, w_ls)
    numeric = oracles.central_difference(f, x0, step=1e-6)
    assert oracles.max_rel_error(dx, numeric, floor=1e-4) < 1e-4


def test_decoder_gradient(small_model, rng):
    z0 = rng.normal(size=(5, 3))
    w = rng.normal(size=(5, small_model.d))

    def f(z):
        return float((small_model.decode(z, train=True) * w).sum())

    f(z0)
    dz = small_model.decode_backward(w)
    numeric = oracles.central_difference(f, z0, step=1e-6)
    assert oracles.max_rel_error(dz, numeric, floor=1e-4) < 1e-4


def test_decoder_param_gradient(small_model, rng):
    z = rng.normal(size=(6, 3))
    w = rng.normal(size=(6, small_model.d))
    small_model.decode(z, train=True)
    small_model.decode_backward(w)
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
    with pytest.raises(DataError):
        load_model(p)


def test_load_rejects_truncation(small_model, tmp_path):
    p = tmp_path / "model.psv"
    save_model(small_model, p)
    blob = p.read_bytes()
    p.write_bytes(blob[:-16])
    with pytest.raises(DataError):
        load_model(p)


def test_load_rejects_trailing_bytes(small_model, tmp_path):
    p = tmp_path / "model.psv"
    save_model(small_model, p)
    p.write_bytes(p.read_bytes() + b"x")
    with pytest.raises(DataError):
        load_model(p)


def test_checksum_covers_the_header(small_model, tiny_schema):
    """Same state, a schema that differs in one category name: another model."""
    own = tiny_schema.household_vars[0]
    renamed = replace(own, categories=("yes", "nope"))
    other_schema = replace(tiny_schema, household_vars=(renamed, *tiny_schema.household_vars[1:]))
    other = vae.VaeModel(other_schema, small_model.hyper)
    other.state[...] = small_model.state
    assert other.header()["arrays"] == small_model.header()["arrays"]
    assert other.checksum() != small_model.checksum()


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


def test_only_the_output_head_has_a_bias(small_model):
    """The 14 affine layers that feed a batch norm carry no bias."""
    names = [name for name, _ in small_model.arrays]
    assert sum(name.endswith(".affine.w") for name in names) == 15
    assert [name for name in names if name.endswith(".b")] == ["out.affine.b"]


def test_flat_lion_step_moves_the_layer_views(small_model, tiny_encoded):
    mu, logsig = small_model.encode(tiny_encoded.values, train=True)
    small_model.encode_backward(np.ones_like(mu), np.ones_like(logsig))
    w = small_model.mu_affine.w
    expected = w.value - 0.1 * np.sign(0.1 * w.grad)
    Lion([small_model.flat]).step(0.1)
    np.testing.assert_array_equal(w.value, expected)


def test_train_backward_sets_the_gradients(small_model, tiny_encoded, rng):
    """A second train-mode forward and backward of the same batch leaves
    ``flat.grad`` with the first one's bytes: gradients are set, not added."""
    z = rng.normal(size=(4, 3))
    w = rng.normal(size=(4, small_model.d))
    grads = []
    for _ in range(2):
        mu, logsig = small_model.encode(tiny_encoded.values, train=True)
        small_model.decode(z, train=True)
        small_model.decode_backward(w)
        small_model.encode_backward(mu, logsig)
        grads.append(small_model.flat.grad.tobytes())
    assert np.frombuffer(grads[0]).any()
    assert grads[1] == grads[0]


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
    """The state vector, then the sha256 of every byte before the digest."""
    blob = _saved(small_model, tmp_path).read_bytes()
    body, digest = blob[: -vae.DIGEST_SIZE], blob[-vae.DIGEST_SIZE :]
    assert body.endswith(small_model.state.astype("<f8").tobytes())
    assert digest == hashlib.sha256(body).digest()


def test_load_rejects_foreign_directory(small_model, tmp_path):
    header, state = vae.read_blob(
        _saved(small_model, tmp_path), vae.MODEL_MAGIC, vae.MODEL_VERSION,
        lambda h: (sum(int(np.prod(s)) for _, s in h["arrays"]),),
    )
    a, b = header["arrays"][0], header["arrays"][1]
    header["arrays"][0], header["arrays"][1] = [b[0], a[1]], [a[0], b[1]]
    p = tmp_path / "swapped.psv"
    vae.write_blob(p, vae.MODEL_MAGIC, vae.MODEL_VERSION, header, state)
    with pytest.raises(DataError, match="directory"):
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
    with pytest.raises(DataError):
        load_model(p)
