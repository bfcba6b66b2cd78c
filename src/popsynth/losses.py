"""Loss heads with analytic gradients.

All probability inputs are clamped to [CLAMP, 1 - CLAMP] before any log.
Losses return their value together with the gradient with respect to the
prediction batch, so the training loops can wire them onto the network
backward passes without an expression graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schema import TargetMarginals, ColumnGroup

CLAMP = 1e-7
KL_EPS = 1e-6


def clamp01(p: np.ndarray) -> np.ndarray:
    return np.clip(p, CLAMP, 1.0 - CLAMP)


def _check_shapes(pred, target):
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    if pred.ndim != 2:
        raise ValueError("expected 2-d batches")


def bce_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Binary cross-entropy, summed over columns and averaged over rows."""
    _check_shapes(pred, target)
    n = pred.shape[0]
    p = clamp01(pred)
    loss = -(target * np.log(p) + (1 - target) * np.log1p(-p)).sum() / n
    grad = (p - target) / (p * (1 - p)) / n
    return float(loss), grad


@dataclass(frozen=True)
class FocalParams:
    alpha: float
    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.gamma < 0.0:
            raise ValueError("gamma must be >= 0")


def focal_loss(
    pred: np.ndarray, target: np.ndarray, params: FocalParams
) -> tuple[float, np.ndarray]:
    """Class-balanced focal reweighting of the binary cross-entropy.

    Reduces to 0.5 * bce_loss at gamma=0, alpha=0.5. alpha weights the
    positive (target=1) term, so setting it to the fraction of zeros in the
    encoded data upweights the sparse ones.
    """
    _check_shapes(pred, target)
    a, g = params.alpha, params.gamma
    n = pred.shape[0]
    p = clamp01(pred)
    q = 1.0 - p
    log_p = np.log(p)
    log_q = np.log1p(-p)
    pos = target * (q**g) * log_p
    neg = (1 - target) * (p**g) * log_q
    loss = -(a * pos + (1 - a) * neg).sum() / n
    # d/dp of the two terms; the g * x**(g-1) factors vanish exactly at g=0
    dpos = target * (q**g / p - (g * q ** (g - 1) if g != 0 else 0.0) * log_p)
    dneg = (1 - target) * ((g * p ** (g - 1) if g != 0 else 0.0) * log_q - p**g / q)
    grad = -(a * dpos + (1 - a) * dneg) / n
    return float(loss), grad


def latent_kl(
    mu: np.ndarray, logsig: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Closed-form KL between N(mu, exp(logsig)) and the standard normal,
    summed over latent dimensions and averaged over rows."""
    if mu.shape != logsig.shape:
        raise ValueError("mu and logsig must have identical shapes")
    n = mu.shape[0]
    e = np.exp(logsig)
    value = float((-0.5 * (1.0 + logsig - mu**2 - e)).sum() / n)
    return value, mu / n, 0.5 * (e - 1.0) / n


def softmin(values: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Softmax of -values/temperature: positive weights summing to 1 that
    concentrate on the minimum as the temperature drops."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    v = np.asarray(values, dtype=np.float64)
    e = np.exp(-(v - v.min(axis=-1, keepdims=True)) / temperature)
    return e / e.sum(axis=-1, keepdims=True)


def pairwise_mean_bce(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Column-averaged BCE between every prediction row and every target row.

    Entry (i, j) treats prediction row i as probabilities for target row j.
    """
    if pred.shape[1] != target.shape[1]:
        raise ValueError("prediction and target widths differ")
    p = clamp01(pred)
    d = pred.shape[1]
    return -(np.log(p) @ target.T + np.log1p(-p) @ (1.0 - target).T) / d


@dataclass
class DbceResult:
    dbce_loss: float
    norm_kl: float
    soft_index: np.ndarray
    per_row_softmin: np.ndarray
    grad_dbce: np.ndarray
    grad_norm_kl: np.ndarray


def dbce(
    pred: np.ndarray, micro: np.ndarray, temperature: float = 1.0
) -> DbceResult:
    """Decoupled BCE: realism of generated rows without a fixed row pairing.

    Each generated row is scored by the softmin-weighted average of its
    column-mean BCE against every microdata row; the loss is the mean of
    those scores. ``soft_index`` accumulates the softmin weight mass landing
    on each microdata row, and ``norm_kl`` penalises its divergence from
    uniform so the batch cannot collapse onto a few records. Gradients flow
    through both the pairwise BCE values and the softmin weights.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if pred.shape[0] == 0 or micro.shape[0] == 0:
        raise ValueError("empty batch")
    n_t, d = pred.shape
    n = micro.shape[0]
    p = clamp01(pred)

    b = pairwise_mean_bce(p, micro)
    s = softmin(b, temperature)
    per_row = (s * b).sum(axis=1)
    loss = float(per_row.mean())

    soft_index = s.sum(axis=0)
    q = soft_index / n_t
    u = 1.0 / n
    ratio = (u + KL_EPS) / (q + KL_EPS)
    norm_kl = float(((u + KL_EPS) * np.log(ratio)).sum())

    # d loss / dB and d norm_kl / dB, folding the softmin Jacobian
    g_loss = s * (1.0 - (b - per_row[:, None]) / temperature) / n_t
    g_kl = s * (ratio[None, :] - (s @ ratio)[:, None]) / (n_t * temperature)

    pq = p * (1.0 - p)

    def chain(g):
        return (g.sum(axis=1)[:, None] * p - g @ micro) / (d * pq)

    return DbceResult(
        dbce_loss=loss,
        norm_kl=norm_kl,
        soft_index=soft_index,
        per_row_softmin=per_row,
        grad_dbce=chain(g_loss),
        grad_norm_kl=chain(g_kl),
    )


@dataclass
class MarginalRmseResult:
    loss: float
    grad: np.ndarray
    marginals: dict[str, np.ndarray]


def marginal_rmse_loss(
    pred: np.ndarray,
    targets: TargetMarginals,
    groups: tuple[ColumnGroup, ...],
) -> MarginalRmseResult:
    """RMSE between the batch's soft marginals and the target marginals.

    A variable's soft marginal sums its level columns over rows and over the
    slots its groups occupy, and divides by the expected mass: the row count
    for a household variable, the expected non-NA mass (one minus the last,
    NA, column, summed over rows and slots) for a person variable, so padding
    does not dilute it; the gradient flows through that ratio. The loss is a
    single RMSE over all (variable, level) deviations concatenated across
    variables.
    """
    n_t = pred.shape[0]
    if n_t == 0:
        raise ValueError("empty batch")
    by_var: dict[str, list[ColumnGroup]] = {}
    for g in groups:
        by_var.setdefault(g.var, []).append(g)

    diffs = []
    marginals: dict[str, np.ndarray] = {}
    state = {}
    for var, var_groups in by_var.items():
        if var not in targets.proportions:
            raise ValueError(f"no target marginal for variable {var!r}")
        target = targets.proportions[var]
        numer = np.zeros(target.size)
        denom = 0.0
        for g in var_groups:
            # a slot group carries one column past the levels: NA
            if g.width - target.size != (g.slot is not None):
                raise ValueError(
                    f"target for {var!r} has {target.size} levels; its group has {g.width} columns"
                )
            block = pred[:, g.start : g.stop]
            numer += block[:, : target.size].sum(axis=0)
            denom += n_t if g.slot is None else (1.0 - block[:, -1]).sum()
        if denom < 1e-6:
            raise ValueError(f"variable {var!r} has no expected non-NA mass")
        marginals[var] = numer / denom
        state[var] = (numer, denom)
        diffs.append(marginals[var] - target)

    flat = np.concatenate(diffs)
    m_total = flat.size
    rmse = float(np.sqrt((flat**2).mean()))

    grad = np.zeros_like(pred)
    scale = 1.0 / (m_total * max(rmse, 1e-12))
    k = 0
    for var, var_groups in by_var.items():
        numer, denom = state[var]
        dv = flat[k : k + numer.size] * scale
        d_na = float((dv * numer).sum()) / denom**2
        for g in var_groups:
            grad[:, g.start : g.start + numer.size] += dv[None, :] / denom
            if g.slot is not None:
                grad[:, g.stop - 1] += d_na
        k += numer.size
    return MarginalRmseResult(rmse, grad, marginals)
