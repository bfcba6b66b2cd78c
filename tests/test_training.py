import numpy as np
import pytest

from popsynth import training
from popsynth.losses import MarginalRmseResult
from popsynth.nn import Param
from popsynth.schema import EncodedMatrix, empirical_marginals
from popsynth.training import (
    FINETUNE_HISTORY_COLUMNS,
    PRETRAIN_HISTORY_COLUMNS,
    LatentMatrix,
    Lion,
    TrainConfig,
    TrainingDivergedError,
    finetune,
    init_latent,
    load_latent,
    lr_schedule,
    pretrain,
    save_latent,
    write_history,
)
from popsynth.vae import init_model

WIDTHS = (16, 14, 12, 12, 10, 8)


def small_model(schema, seed=5, latent_dim=3):
    return init_model(schema, latent_dim=latent_dim, hidden_widths=WIDTHS, seed=seed)


# -- config and schedule -------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(min_lr=1e-2, initial_lr=1e-3)
    with pytest.raises(ValueError):
        TrainConfig(reparam_mode="banana")


def test_lr_schedule_reference_points():
    cfg = TrainConfig(epochs=4000, initial_lr=1e-3, min_lr=1e-4, decay_start_epoch=1000)
    assert lr_schedule(0, cfg) == 1e-3
    assert lr_schedule(999, cfg) == 1e-3
    assert lr_schedule(1000, cfg) == 1e-3
    assert lr_schedule(3999, cfg) == pytest.approx(1e-4, rel=1e-12)
    mid = lr_schedule(2500, cfg)
    assert 1e-4 < mid < 1e-3


def test_lr_schedule_is_monotone_nonincreasing():
    cfg = TrainConfig(epochs=200, decay_start_epoch=50)
    lrs = [lr_schedule(e, cfg) for e in range(200)]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))


def test_lr_schedule_constant_when_decay_never_starts():
    cfg = TrainConfig(epochs=100, decay_start_epoch=100)
    assert lr_schedule(99, cfg) == cfg.initial_lr


def test_lr_schedule_rejects_out_of_range():
    cfg = TrainConfig(epochs=10)
    with pytest.raises(ValueError):
        lr_schedule(10, cfg)
    with pytest.raises(ValueError):
        lr_schedule(-1, cfg)


# -- optimizer -----------------------------------------------------------------


def test_lion_hand_computed_steps():
    p = Param(np.array([1.0, -1.0]), "p")
    opt = Lion([p])
    p.grad = np.array([0.5, -2.0])
    opt.step(0.1)
    # first step: momentum starts at 0, c = 0.1*g, sign(c) = sign(g)
    np.testing.assert_allclose(p.value, [1.0 - 0.1, -1.0 + 0.1])
    np.testing.assert_allclose(opt.momenta[0], [0.005, -0.02])
    p.grad = np.array([-1.0, 1.0])
    opt.step(0.1)
    # c = 0.9*m + 0.1*g = (0.0045-0.1, -0.018+0.1) -> signs (-, +)
    np.testing.assert_allclose(p.value, [0.9 + 0.1, -0.9 - 0.1])


# -- pretraining ---------------------------------------------------------------


def pretrain_setup(tiny_schema, tiny_encoded, seed=5):
    model = small_model(tiny_schema, seed=seed)
    cfg = TrainConfig(
        epochs=40, initial_lr=3e-3, min_lr=1e-4, decay_start_epoch=10, seed=seed,
        kl_weight=0.1, focal_gamma=0.0,
    )
    return model, cfg


def test_pretrain_reduces_loss(tiny_schema, tiny_encoded):
    model, cfg = pretrain_setup(tiny_schema, tiny_encoded)
    res = pretrain(model, tiny_encoded, cfg)
    assert len(res.history) == cfg.epochs
    first = res.history[0][-1]
    last = res.history[-1][-1]
    assert last < first


def test_pretrain_is_deterministic(tiny_schema, tiny_encoded):
    m1, cfg = pretrain_setup(tiny_schema, tiny_encoded)
    m2, _ = pretrain_setup(tiny_schema, tiny_encoded)
    r1 = pretrain(m1, tiny_encoded, cfg)
    r2 = pretrain(m2, tiny_encoded, cfg)
    assert m1.checksum() == m2.checksum()
    assert r1.history == r2.history


def test_pretrain_seed_changes_outcome(tiny_schema, tiny_encoded):
    m1, cfg1 = pretrain_setup(tiny_schema, tiny_encoded, seed=5)
    m2 = small_model(tiny_schema, seed=5)
    cfg2 = TrainConfig(
        epochs=40, initial_lr=3e-3, min_lr=1e-4, decay_start_epoch=10, seed=6,
        kl_weight=0.1, focal_gamma=0.0,
    )
    pretrain(m1, tiny_encoded, cfg1)
    pretrain(m2, tiny_encoded, cfg2)
    assert m1.checksum() != m2.checksum()


def test_pretrain_default_alpha_is_zero_fraction(tiny_schema, tiny_encoded):
    model, cfg = pretrain_setup(tiny_schema, tiny_encoded)
    res = pretrain(model, tiny_encoded, cfg)
    assert res.focal_alpha == pytest.approx(1.0 - tiny_encoded.values.mean())


def test_pretrain_history_lr_matches_schedule(tiny_schema, tiny_encoded):
    model, cfg = pretrain_setup(tiny_schema, tiny_encoded)
    res = pretrain(model, tiny_encoded, cfg)
    for row in res.history:
        assert row[1] == lr_schedule(row[0], cfg)


def test_pretrain_minibatch_runs(tiny_schema, tiny_encoded):
    model, cfg = pretrain_setup(tiny_schema, tiny_encoded)
    cfg = TrainConfig(
        epochs=10, seed=1, batch_size=2, kl_weight=0.1, decay_start_epoch=5
    )
    res = pretrain(model, tiny_encoded, cfg)
    assert len(res.history) == 10


def test_pretrain_rejects_fingerprint_mismatch(tiny_schema, tiny_encoded):
    model = small_model(tiny_schema)
    bad = EncodedMatrix(tiny_encoded.values, tiny_encoded.groups, "deadbeef")
    with pytest.raises(ValueError):
        pretrain(model, bad, TrainConfig(epochs=1))


def test_pretrain_rejects_tiny_batches(tiny_schema, tiny_encoded):
    model = small_model(tiny_schema)
    with pytest.raises(ValueError):
        pretrain(model, tiny_encoded, TrainConfig(epochs=1, batch_size=1))


# -- latent fine-tuning ----------------------------------------------------------


def test_init_latent_deterministic_unit_normal():
    a = init_latent(500, 4, seed=3)
    b = init_latent(500, 4, seed=3)
    np.testing.assert_array_equal(a.z, b.z)
    assert a.z.shape == (500, 4)
    assert abs(a.z.mean()) < 0.05
    assert abs(a.z.std() - 1.0) < 0.05
    with pytest.raises(ValueError):
        init_latent(0, 4, seed=1)
    with pytest.raises(ValueError):
        init_latent(4, 0, seed=1)


def finetune_setup(tiny_schema, tiny_encoded, tiny_table, epochs=60):
    model, cfg = None, None
    model = small_model(tiny_schema)
    pretrain(
        model,
        tiny_encoded,
        TrainConfig(epochs=60, decay_start_epoch=20, seed=2, kl_weight=0.1,
                    focal_gamma=0.0, initial_lr=3e-3),
    )
    targets = empirical_marginals(tiny_table)
    latent = init_latent(targets.n_households, model.latent_dim, seed=7)
    cfg = TrainConfig(
        epochs=epochs, initial_lr=1e-2, min_lr=1e-3, decay_start_epoch=20,
        seed=7, softmin_temperature=0.1,
    )
    return model, latent, targets, cfg


def test_finetune_moves_latents_not_decoder(tiny_schema, tiny_encoded, tiny_table):
    model, latent, targets, cfg = finetune_setup(tiny_schema, tiny_encoded, tiny_table)
    z0 = latent.z.copy()
    model_before = model.checksum()
    res = finetune(model, latent, targets, tiny_encoded, cfg)
    assert model.checksum() == model_before
    assert not np.array_equal(latent.z, z0)
    assert len(res.history) == cfg.epochs
    assert set(res.final_losses) == {"marginal_rmse", "dbce", "norm_kl", "total"}


def test_finetune_improves_marginal_fit(tiny_schema, tiny_encoded, tiny_table):
    model, latent, targets, cfg = finetune_setup(tiny_schema, tiny_encoded, tiny_table)
    res = finetune(model, latent, targets, tiny_encoded, cfg)
    assert res.final_losses["marginal_rmse"] < res.history[0][2]


def test_finetune_is_deterministic(tiny_schema, tiny_encoded, tiny_table):
    m1, l1, targets, cfg = finetune_setup(tiny_schema, tiny_encoded, tiny_table)
    r1 = finetune(m1, l1, targets, tiny_encoded, cfg)
    m2, l2, _, _ = finetune_setup(tiny_schema, tiny_encoded, tiny_table)
    r2 = finetune(m2, l2, targets, tiny_encoded, cfg)
    np.testing.assert_array_equal(l1.z, l2.z)
    assert r1.history == r2.history


def test_finetune_rejects_row_mismatch(tiny_schema, tiny_encoded, tiny_table):
    model, latent, targets, cfg = finetune_setup(tiny_schema, tiny_encoded, tiny_table)
    bad = LatentMatrix(z=latent.z[:-1], seed=latent.seed)
    with pytest.raises(ValueError):
        finetune(model, bad, targets, tiny_encoded, cfg)


def test_finetune_rejects_width_mismatch(tiny_schema, tiny_encoded, tiny_table):
    model, latent, targets, cfg = finetune_setup(tiny_schema, tiny_encoded, tiny_table)
    bad = LatentMatrix(z=np.hstack([latent.z, latent.z[:, :1]]), seed=latent.seed)
    with pytest.raises(ValueError):
        finetune(model, bad, targets, tiny_encoded, cfg)


def test_finetune_flags_divergence(tiny_schema, tiny_encoded, tiny_table):
    model, latent, targets, cfg = finetune_setup(tiny_schema, tiny_encoded, tiny_table)
    latent.z[0, 0] = np.nan
    with pytest.raises(TrainingDivergedError):
        finetune(model, latent, targets, tiny_encoded, cfg)


NAN_GRADIENT_HEADS = {
    "focal_loss": lambda pred, *_: (1.0, np.full_like(pred, np.nan)),
    "marginal_rmse_loss": lambda pred, *_: MarginalRmseResult(1.0, np.full_like(pred, np.nan), {}),
}


@pytest.mark.parametrize("head", sorted(NAN_GRADIENT_HEADS))
def test_non_finite_gradient_is_divergence(tiny_schema, tiny_encoded, tiny_table, monkeypatch, head):
    """A head with a finite loss but a NaN gradient must stop the run before
    the optimizer writes NaN into the parameters."""
    model, latent, targets, cfg = finetune_setup(tiny_schema, tiny_encoded, tiny_table, epochs=1)
    monkeypatch.setattr(training, head, NAN_GRADIENT_HEADS[head])
    with pytest.raises(TrainingDivergedError, match="gradient became non-finite at epoch 0"):
        if head == "focal_loss":
            pretrain(model, tiny_encoded, TrainConfig(epochs=1, seed=2))
        else:
            finetune(model, latent, targets, tiny_encoded, cfg)
    assert np.isfinite(model.flat.value).all()
    assert np.isfinite(latent.z).all()


def test_finetune_deduplicates_the_full_table_once(tiny_schema, tiny_encoded, tiny_table, monkeypatch):
    """The matcher sees the distinct rows of the whole table, found once."""
    repeated = EncodedMatrix(
        np.repeat(tiny_encoded.values, 3, axis=0), tiny_encoded.groups, tiny_encoded.schema_fingerprint
    )
    model, latent, targets, _ = finetune_setup(tiny_schema, tiny_encoded, tiny_table)
    cfg = TrainConfig(epochs=3, decay_start_epoch=1, seed=7)
    seen, weights = [], []
    real_distinct_rows, real_dbce = training.distinct_rows, training.dbce

    def spy_distinct_rows(x):
        seen.append(x.copy())
        return real_distinct_rows(x)

    def spy_dbce(pred, rows, temperature, counts):
        weights.append(counts)
        return real_dbce(pred, rows, temperature, counts)

    monkeypatch.setattr(training, "distinct_rows", spy_distinct_rows)
    monkeypatch.setattr(training, "dbce", spy_dbce)
    res = finetune(model, latent, targets, repeated, cfg)
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], repeated.values)
    assert len(weights) == cfg.epochs + 1
    assert all(np.array_equal(c, [3, 3, 3, 3]) for c in weights)
    assert res.reference_rows == 12
    assert res.distinct_reference_rows == 4


# -- persistence -----------------------------------------------------------------


def test_latent_save_load_round_trip(tmp_path):
    latent = init_latent(12, 3, seed=9)
    p = tmp_path / "latent.psl"
    save_latent(latent, p, schema_fingerprint="s" * 8, model_fingerprint="m" * 8)
    loaded, header = load_latent(p)
    np.testing.assert_array_equal(loaded.z, latent.z)
    assert loaded.seed == 9
    assert header["schema_fingerprint"] == "s" * 8
    assert header["model_fingerprint"] == "m" * 8


def test_latent_load_rejects_truncation(tmp_path):
    latent = init_latent(5, 2, seed=1)
    p = tmp_path / "latent.psl"
    save_latent(latent, p)
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(ValueError):
        load_latent(p)


def test_latent_load_rejects_bad_magic(tmp_path):
    p = tmp_path / "latent.psl"
    p.write_bytes(b"WRONG!!!" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_latent(p)


def test_write_history_formats_rows(tmp_path):
    p = tmp_path / "history.csv"
    write_history(p, PRETRAIN_HISTORY_COLUMNS, [(0, 1e-3, 0.5, 0.25, 0.75)])
    lines = p.read_text().splitlines()
    assert lines[0] == ",".join(PRETRAIN_HISTORY_COLUMNS)
    assert lines[1].startswith("0,0.001,0.5,0.25,0.75")
    assert len(FINETUNE_HISTORY_COLUMNS) == 6
