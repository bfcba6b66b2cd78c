"""Training loops: focal+KL pretraining and marginal-targeted latent fine-tuning.

Both loops use the Lion optimizer (sign of an interpolated momentum) with a
two-phase learning-rate schedule: constant until ``decay_start_epoch``, then
exponential decay that lands exactly on ``min_lr`` at the final epoch.

Fine-tuning freezes the whole model: the decoder runs its batch norms in eval
mode (running statistics) and gradients reach only the trainable latent
matrix, one row per target household.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import nn
from .losses import (
    FocalParams,
    dbce,
    distinct_rows,
    focal_loss,
    latent_kl,
    marginal_rmse_loss,
)
from .schema import EncodedMatrix, TargetMarginals, write_csv
from .vae import ModelFormatError, read_blob, write_blob

LATENT_MAGIC = b"PSLAT01\n"
LATENT_VERSION = 1

PRETRAIN_HISTORY_COLUMNS = ("epoch", "lr", "focal", "latent_kl", "total")
FINETUNE_HISTORY_COLUMNS = ("epoch", "lr", "marginal_rmse", "dbce", "norm_kl", "total")


class TrainingDivergedError(RuntimeError):
    """Raised when a loss or gradient stops being finite."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 4000
    initial_lr: float = 1e-3
    min_lr: float = 1e-4
    decay_start_epoch: int = 1000
    batch_size: int | None = None  # None: full batch (dataset size)
    seed: int = 0
    reparam_mode: str = nn.REPARAM_PAPER_LITERAL
    kl_weight: float = 1.0
    focal_gamma: float = 2.0
    w_marginal: float = 1.0
    w_dbce: float = 1.0
    w_normkl: float = 0.1
    softmin_temperature: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not np.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        for name in ("kl_weight", "w_marginal", "w_dbce", "w_normkl"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.initial_lr <= 0 or self.min_lr <= 0:
            raise ValueError("learning rates must be positive")
        if self.min_lr > self.initial_lr:
            raise ValueError("min_lr cannot exceed initial_lr")
        if self.decay_start_epoch < 0:
            raise ValueError("decay_start_epoch must be >= 0")
        if self.batch_size is not None and self.batch_size < 2:
            raise ValueError("batch size must be >= 2")
        if self.focal_gamma < 0:
            raise ValueError("focal gamma must be >= 0")
        if self.softmin_temperature <= 0:
            raise ValueError("softmin temperature must be positive")
        if self.reparam_mode not in nn.REPARAM_MODES:
            raise ValueError(f"unknown reparameterisation mode {self.reparam_mode!r}")


def lr_schedule(epoch: int, config: TrainConfig) -> float:
    """Constant, then exponential decay hitting min_lr exactly at the last epoch."""
    if epoch < 0 or epoch >= config.epochs:
        raise ValueError(f"epoch {epoch} outside [0, {config.epochs})")
    last = config.epochs - 1
    if epoch <= config.decay_start_epoch or last <= config.decay_start_epoch:
        return config.initial_lr
    frac = (epoch - config.decay_start_epoch) / (last - config.decay_start_epoch)
    lr = config.initial_lr * (config.min_lr / config.initial_lr) ** frac
    return max(lr, config.min_lr)


class Lion:
    """Sign-momentum optimizer.

    update direction: c = b1 * m + (1 - b1) * g,  b1 = 0.9
    parameter step:   p <- p - lr * sign(c)
    momentum:         m <- b2 * m + (1 - b2) * g,  b2 = 0.99
    """

    def __init__(self, params: list[nn.Param]):
        self.params = list(params)
        self.momenta = [np.zeros_like(p.value) for p in self.params]

    def step(self, lr: float) -> None:
        b1, b2 = 0.9, 0.99
        for p, m in zip(self.params, self.momenta):
            c = b1 * m + (1 - b1) * p.grad
            p.value -= lr * np.sign(c)
            m *= b2
            m += (1 - b2) * p.grad


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng([seed, epoch])


def _assert_finite(value, epoch: int, what: str) -> None:
    """``value``: a loss, or a whole gradient array."""
    if not np.isfinite(value).all():
        raise TrainingDivergedError(f"{what} became non-finite at epoch {epoch}")


@dataclass
class PretrainResult:
    history: list[tuple]
    focal_alpha: float  # 1 - mean(x): the share of zero cells in the data


def pretrain(model, data: EncodedMatrix, config: TrainConfig) -> PretrainResult:
    """Fit encoder and decoder to the microdata with focal reconstruction
    plus KL regularisation; fresh noise per epoch from a per-epoch stream."""
    if data.schema_fingerprint != model.schema_fingerprint:
        raise ValueError("encoded data does not match the model's schema")
    x = np.asarray(data.values, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        raise ValueError("pretraining needs at least 2 rows")
    alpha = float(1.0 - x.mean())
    focal = FocalParams(alpha=alpha, gamma=config.focal_gamma)
    batch = n if config.batch_size is None else min(config.batch_size, n)

    opt = Lion([model.flat])
    history = []
    for epoch in range(config.epochs):
        rng = _epoch_rng(config.seed, epoch)
        order = np.arange(n) if batch == n else rng.permutation(n)
        lr = lr_schedule(epoch, config)
        fl_sum = kl_sum = 0.0
        n_batches = 0
        for start in range(0, n - batch + 1, batch):
            xb = x[order[start : start + batch]]
            model.zero_grads()
            mu, logsig = model.encode(xb, train=True)
            noise = rng.standard_normal(mu.shape)
            z = nn.reparameterize(mu, logsig, noise, config.reparam_mode)
            probs = model.decode(z, train=True)
            fl, dprobs = focal_loss(probs, xb, focal)
            kl, dmu_kl, dls_kl = latent_kl(mu, logsig)
            dz = model.decode_backward(dprobs)
            dmu, dls = nn.reparameterize_backward(dz, logsig, noise, config.reparam_mode)
            model.encode_backward(
                dmu + config.kl_weight * dmu_kl, dls + config.kl_weight * dls_kl
            )
            _assert_finite(model.flat.grad, epoch, "pretraining gradient")
            opt.step(lr)
            fl_sum += fl
            kl_sum += kl
            n_batches += 1
        fl_mean = fl_sum / n_batches
        kl_mean = kl_sum / n_batches
        total = fl_mean + config.kl_weight * kl_mean
        _assert_finite(total, epoch, "pretraining loss")
        history.append((epoch, lr, fl_mean, kl_mean, total))
    return PretrainResult(history, alpha)


# ---------------------------------------------------------------------------
# latent fine-tuning


@dataclass
class LatentMatrix:
    z: np.ndarray
    seed: int


def init_latent(n_households: int, width: int, seed: int) -> LatentMatrix:
    """Standard-normal latent rows, one per target household."""
    if n_households < 1:
        raise ValueError("n_households must be >= 1")
    if width < 1:
        raise ValueError("latent width must be >= 1")
    rng = np.random.default_rng(seed)
    return LatentMatrix(z=rng.standard_normal((n_households, width)), seed=seed)


@dataclass
class FinetuneResult:
    history: list[tuple]
    final_losses: dict[str, float]
    marginals: dict[str, np.ndarray]
    reference_rows: int  # microdata rows the matcher compares against
    distinct_reference_rows: int  # of which distinct


def finetune(
    model,
    latent: LatentMatrix,
    targets: TargetMarginals,
    data: EncodedMatrix,
    config: TrainConfig,
) -> FinetuneResult:
    """Optimise the latent matrix against tract marginals through the frozen
    decoder. The loss mixes marginal RMSE, decoupled BCE realism against the
    microdata and the softmin-mass uniformity penalty; the recorded soft
    marginals are those of the final latent state. The matcher compares
    against every distinct microdata row, found once before the first epoch
    and weighted by its count, which gives the loss of the full table at a
    fraction of the work."""
    if data.schema_fingerprint != model.schema_fingerprint:
        raise ValueError("encoded microdata does not match the model's schema")
    if latent.z.shape[1] != model.latent_dim:
        raise ValueError(
            f"latent width {latent.z.shape[1]} != decoder input {model.latent_dim}"
        )
    if latent.z.shape[0] != targets.n_households:
        raise ValueError(
            f"latent rows {latent.z.shape[0]} != target households "
            f"{targets.n_households}"
        )
    micro = np.asarray(data.values, dtype=np.float64)
    rows, counts = distinct_rows(micro)

    z_param = nn.Param(latent.z, "latent.z")
    opt = Lion([z_param])
    history = []

    def losses_and_grad(probs):
        mres = marginal_rmse_loss(probs, targets, model.groups)
        dres = dbce(probs, rows, config.softmin_temperature, counts)
        total = (
            config.w_marginal * mres.loss
            + config.w_dbce * dres.dbce_loss
            + config.w_normkl * dres.norm_kl
        )
        dprobs = (
            config.w_marginal * mres.grad
            + config.w_dbce * dres.grad_dbce
            + config.w_normkl * dres.grad_norm_kl
        )
        return mres, dres, total, dprobs

    for epoch in range(config.epochs):
        lr = lr_schedule(epoch, config)
        probs = model.decode(z_param.value, train=False)
        mres, dres, total, dprobs = losses_and_grad(probs)
        _assert_finite(total, epoch, "fine-tuning loss")
        z_param.zero_grad()
        z_param.grad += model.decode_backward(dprobs, with_params=False)
        _assert_finite(z_param.grad, epoch, "fine-tuning gradient")
        opt.step(lr)
        history.append((epoch, lr, mres.loss, dres.dbce_loss, dres.norm_kl, total))

    probs = model.decode(z_param.value, train=False)
    mres, dres, total, _ = losses_and_grad(probs)
    latent.z = z_param.value
    return FinetuneResult(
        history=history,
        final_losses={
            "marginal_rmse": mres.loss,
            "dbce": dres.dbce_loss,
            "norm_kl": dres.norm_kl,
            "total": total,
        },
        marginals=mres.marginals,
        reference_rows=micro.shape[0],
        distinct_reference_rows=rows.shape[0],
    )


# ---------------------------------------------------------------------------
# persistence and history output


def save_latent(
    latent: LatentMatrix,
    path,
    schema_fingerprint: str = "",
    model_fingerprint: str = "",
) -> None:
    header = {
        "format": "pslatent",
        "seed": latent.seed,
        "rows": latent.z.shape[0],
        "width": latent.z.shape[1],
        "schema_fingerprint": schema_fingerprint,
        "model_fingerprint": model_fingerprint,
    }
    write_blob(path, LATENT_MAGIC, LATENT_VERSION, header, latent.z)


def load_latent(path) -> tuple[LatentMatrix, dict]:
    header, z = read_blob(
        path, LATENT_MAGIC, LATENT_VERSION, lambda h: (h["rows"], h["width"])
    )
    if header.get("format") != "pslatent":
        raise ModelFormatError(f"{path}: format {header.get('format')!r} is not pslatent")
    return LatentMatrix(z=z, seed=header.get("seed")), header


def write_history(path, columns, rows) -> None:
    write_csv(
        path,
        columns,
        ([v if isinstance(v, int) else f"{v:.12g}" for v in row] for row in rows),
    )
