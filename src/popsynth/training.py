"""Training loops: focal+KL pretraining and marginal-targeted latent fine-tuning.

Both loops use the Lion optimizer (sign of an interpolated momentum) with a
two-phase learning-rate schedule: constant until ``decay_start``, then
exponential decay that lands exactly on ``min_lr`` at the final epoch.

Fine-tuning freezes the whole model: the decoder runs in eval mode (running
statistics, caches for the input gradient only) and gradients reach only the
trainable latent matrix, one row per target household.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import nn, rowpool
from .losses import dbce, focal_loss, latent_kl, marginal_rmse_loss
from .schema import (
    DataError, EncodedMatrix, RestructuredTable, TargetMarginals, distinct_rows, one_hot, write_csv,
)
from .vae import read_blob, write_blob

LATENT_MAGIC = b"PSLAT01\n"
LATENT_VERSION = 2
# every key of a latent header: save_latent's, then write_blob's
LATENT_KEYS = {"format", "seed", "rows", "width", "schema_fingerprint", "model_fingerprint",
               "version", "dtype"}

PRETRAIN_HISTORY_COLUMNS = ("epoch", "lr", "focal", "latent_kl", "total")
FINETUNE_HISTORY_COLUMNS = ("epoch", "lr", "marginal_rmse", "dbce", "norm_kl", "total")


class TrainingDivergedError(RuntimeError):
    """Raised when a loss or gradient stops being finite."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 4000
    lr: float = 1e-3
    min_lr: float = 1e-4
    decay_start: int = 1000
    batch_size: int | None = None  # None: full batch (dataset size)
    seed: int = 0
    kl_weight: float = 1.0
    focal_gamma: float = 2.0
    w_marginal: float = 1.0
    w_dbce: float = 1.0
    w_normkl: float = 0.1
    temperature: float = 1.0

    def __post_init__(self):  # each message starts with the field it rejects: its flag's name
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not np.isfinite(value):
                raise DataError(f"{f.name} must be finite, got {value}")
        for name in ("kl_weight", "w_marginal", "w_dbce", "w_normkl"):
            if getattr(self, name) < 0:
                raise DataError(f"{name} must be >= 0")
        for name in ("lr", "min_lr", "temperature"):
            if getattr(self, name) <= 0:
                raise DataError(f"{name} must be positive")
        if self.epochs < 1:
            raise DataError("epochs must be >= 1")
        if self.min_lr > self.lr:
            raise DataError("min_lr cannot exceed lr")
        if self.decay_start < 0:
            raise DataError("decay_start must be >= 0")
        if self.batch_size is not None and self.batch_size < 2:
            raise DataError("batch_size must be >= 2")
        if self.focal_gamma < 0:
            raise DataError("focal_gamma must be >= 0")


def lr_schedule(epoch: int, config: TrainConfig) -> float:
    """Constant, then exponential decay hitting min_lr exactly at the last epoch."""
    if epoch < 0 or epoch >= config.epochs:
        raise ValueError(f"epoch {epoch} outside [0, {config.epochs})")
    last = config.epochs - 1
    if epoch <= config.decay_start or last <= config.decay_start:
        return config.lr
    frac = (epoch - config.decay_start) / (last - config.decay_start)
    lr = config.lr * (config.min_lr / config.lr) ** frac
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
    if data.schema != model.schema:
        raise ValueError("encoded data does not match the model's schema")
    x = np.asarray(data.values, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        raise ValueError("pretraining needs at least 2 rows")
    alpha = float(1.0 - x.mean())
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
            mu, logsig = model.encode(xb, train=True)
            noise = rng.standard_normal(mu.shape)
            z = nn.reparameterize(mu, logsig, noise)
            probs = model.decode(z, train=True)
            model.update_running_stats(batch)
            fl, dprobs = focal_loss(probs, xb, alpha, config.focal_gamma)
            kl, dmu_kl, dls_kl = latent_kl(mu, logsig)
            dz = model.decode_backward(dprobs)
            dmu, dls = nn.reparameterize_backward(dz, logsig, noise)
            model.encode_backward(
                dmu + config.kl_weight * dmu_kl, dls + config.kl_weight * dls_kl,
                input_grad=False,
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
    matcher_workers: int  # rowpool.parked's ranges: 2 where it parked the matcher, else 1


def finetune(
    model,
    latent: LatentMatrix,
    targets: TargetMarginals,
    table: RestructuredTable,
    config: TrainConfig,
) -> FinetuneResult:
    """Optimise the latent matrix against tract marginals through the frozen
    decoder. The loss mixes marginal RMSE, decoupled BCE realism against the
    microdata and the softmin-mass uniformity penalty; the recorded soft
    marginals are those of the final latent state. The matcher compares
    against every distinct microdata row, weighted by its count, which gives
    the loss of the full table at a fraction of the work: the table's code
    rows are deduplicated once before the first epoch, and only the distinct
    ones are one-hot encoded. For more than ``rowpool.ALIGN`` tract households
    and from ``rowpool.THRESHOLD`` tract-by-distinct-row values on, the
    epochs and the final loss run with numpy's OpenBLAS parked at one thread
    and the matcher split over two row ranges (``rowpool.parked``); the
    thread count in force before is restored on the way out."""
    if table.schema != model.schema:
        raise ValueError("microdata does not match the model's schema")
    if latent.z.shape[1] != model.latent_dim:
        raise ValueError(
            f"latent width {latent.z.shape[1]} != decoder input {model.latent_dim}"
        )
    if latent.z.shape[0] != targets.n_households:
        raise ValueError(
            f"latent rows {latent.z.shape[0]} != target households "
            f"{targets.n_households}"
        )
    # table.codes is built twice so that the epochs hold no copy of it
    first, counts = distinct_rows(table.codes)
    rows = one_hot(table.codes[first], [g.start for g in model.groups], model.d)

    z_param = nn.Param(latent.z, "latent.z")
    opt = Lion([z_param])
    history = []

    def losses(probs, with_grad=True):
        mres = marginal_rmse_loss(probs, targets, model.groups)
        dres = dbce(
            probs, rows, config.temperature, counts,
            w_dbce=config.w_dbce, w_normkl=config.w_normkl, with_grad=with_grad,
        )
        total = (
            config.w_marginal * mres.loss
            + config.w_dbce * dres.dbce_loss
            + config.w_normkl * dres.norm_kl
        )
        return mres, dres, total

    with rowpool.parked(targets.n_households, rows.shape[0]) as workers:
        for epoch in range(config.epochs):
            lr = lr_schedule(epoch, config)
            probs = model.decode(z_param.value, train=False)
            mres, dres, total = losses(probs)
            _assert_finite(total, epoch, "fine-tuning loss")
            z_param.grad = model.decode_backward(config.w_marginal * mres.grad + dres.grad)
            _assert_finite(z_param.grad, epoch, "fine-tuning gradient")
            opt.step(lr)
            history.append((epoch, lr, mres.loss, dres.dbce_loss, dres.norm_kl, total))

        # the final state's losses and marginals: no gradient is needed
        mres, dres, total = losses(model.decode(z_param.value, train=False), with_grad=False)
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
        reference_rows=table.n_rows,
        distinct_reference_rows=rows.shape[0],
        matcher_workers=workers,
    )


# ---------------------------------------------------------------------------
# persistence and history output


def save_latent(
    latent: LatentMatrix,
    path,
    schema_fingerprint: str,
    model_fingerprint: str,
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
        raise DataError(f"{path}: format {header.get('format')!r} is not pslatent")
    if header.keys() != LATENT_KEYS:
        raise DataError(f"{path}: header keys {sorted(header)} are not {sorted(LATENT_KEYS)}")
    for key in ("seed", "rows", "width"):
        if type(header[key]) is not int:  # a bool is no count or seed
            raise DataError(f"{path}: {key} {header[key]!r} is not an integer")
    for key in ("rows", "width"):
        if header[key] < 1:  # init_latent makes no empty latent
            raise DataError(f"{path}: {key} {header[key]} is below 1")
    return LatentMatrix(z=z, seed=header["seed"]), header


def write_history(path, columns, rows) -> None:
    write_csv(
        path,
        columns,
        ([v if isinstance(v, int) else f"{v:.12g}" for v in row] for row in rows),
    )
