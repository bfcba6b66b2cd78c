"""Loss heads with analytic gradients.

All probability inputs are clamped to [CLAMP, 1 - CLAMP] before any log.
Losses return their value together with the gradient with respect to the
prediction batch, so the training loops can wire them onto the network
backward passes without an expression graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rowpool
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


def focal_loss(
    pred: np.ndarray, target: np.ndarray, alpha: float, gamma: float
) -> tuple[float, np.ndarray]:
    """Class-balanced focal reweighting of the binary cross-entropy.

    Reduces to half the binary cross-entropy, summed over columns and
    averaged over rows, at gamma=0, alpha=0.5. alpha weights the
    positive (target=1) term, so setting it to the fraction of zeros in the
    encoded data upweights the sparse ones. Neither is checked here:
    ``training.TrainConfig`` checks gamma >= 0, and alpha, the share of zero
    cells of one-hot rows, lies in [0, 1].
    """
    _check_shapes(pred, target)
    a, g = alpha, gamma
    n = pred.shape[0]
    p = clamp01(pred)
    q = 1.0 - p
    log_p = np.log(p)
    log_q = np.log1p(-p)
    neg_target = 1 - target
    if g == 0:
        # x**0 is 1.0 and 0.0 * log x is -0.0, so dropping them keeps every bit
        pos = target * log_p
        neg = neg_target * log_q
        dpos = target * (1.0 / p)
        dneg = neg_target * (-1.0 / q)
    else:
        q_g, p_g = q**g, p**g
        pos = target * q_g * log_p
        neg = neg_target * p_g * log_q
        # d/dp of the two terms
        dpos = target * (q_g / p - g * q ** (g - 1) * log_p)
        dneg = neg_target * (g * p ** (g - 1) * log_q - p_g / q)
    # x / -n is -(x / n) to the bit, one pass fewer than negating first
    loss = (a * pos + (1 - a) * neg).sum() / -n
    grad = (a * dpos + (1 - a) * dneg) / -n
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


def softmin(
    values: np.ndarray, temperature: float = 1.0, weights: float | np.ndarray = 1.0
) -> np.ndarray:
    """Softmax of -values/temperature: positive weights summing to 1 that
    concentrate on the minimum as the temperature drops.

    ``weights`` multiplies each entry's exponential before normalising, so an
    entry of weight c counts as c equal entries; the default 1.0 changes no
    bit of the result. Rows run on ``rowpool.split_rows`` ranges, each range
    in place on its rows of the result.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    v = np.asarray(values, dtype=np.float64)
    e = np.empty(v.shape)
    v2, e2 = v.reshape(-1, v.shape[-1]), e.reshape(-1, v.shape[-1])
    w2 = np.broadcast_to(weights, v.shape).reshape(v2.shape)

    def rows(lo, hi):
        # in place on e's rows; x / -T has the bits of -x / T
        x = e2[lo:hi]
        np.subtract(v2[lo:hi], v2[lo:hi].min(axis=-1, keepdims=True), out=x)
        x /= -temperature
        np.exp(x, out=x)
        x *= w2[lo:hi]
        x /= x.sum(axis=-1, keepdims=True)

    rowpool.split_rows(rows, v2.shape[0])
    return e


def pairwise_mean_bce(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Column-averaged BCE between every prediction row and every target row.

    Entry (i, j) treats prediction row i as probabilities for target row j.
    It is computed as ``(log p - log1p(-p)) @ t.T + sum_c log1p(-p)``: one
    GEMM and no ``1 - target`` copy. The identity is exact in real
    arithmetic; for a row that matches a target almost exactly its terms
    cancel to a value far smaller than either. Each ``rowpool.split_rows``
    range runs every pass over all its rows at once.
    """
    if pred.shape[1] != target.shape[1]:
        raise ValueError("prediction and target widths differ")
    n_p, d = pred.shape
    n = target.shape[0]
    # the product first: allocated after the smaller arrays, it raised the
    # peak RSS of repeated census fine-tunes by 9 MB
    out = np.empty((n_p, n))
    logit, log_q = np.empty(pred.shape), np.empty(pred.shape)

    def rows(lo, hi):
        p = np.clip(pred[lo:hi], CLAMP, 1.0 - CLAMP, out=logit[lo:hi])  # logit's rows hold p
        q = log_q[lo:hi]
        np.negative(p, out=q)
        np.log1p(q, out=q)
        np.log(p, out=p)
        p -= q
        y = np.matmul(p, target.T, out=out[lo:hi])
        y += q.sum(axis=1)[:, None]
        y /= -d

    rowpool.split_rows(rows, n_p)
    return out


@dataclass
class DbceResult:
    dbce_loss: float
    norm_kl: float
    soft_index: np.ndarray
    per_row_softmin: np.ndarray
    grad: np.ndarray | None  # None from a loss-only call


def dbce(
    pred: np.ndarray,
    micro: np.ndarray,
    temperature: float = 1.0,
    counts: np.ndarray | None = None,
    *,
    w_dbce: float = 1.0,
    w_normkl: float = 1.0,
    with_grad: bool = True,
) -> DbceResult:
    """Decoupled BCE: realism of generated rows without a fixed row pairing.

    Each generated row is scored by the softmin-weighted average of its
    column-mean BCE against every microdata row; the loss is the mean of
    those scores. ``soft_index`` accumulates the softmin weight mass landing
    on each microdata row, and ``norm_kl`` penalises its divergence from
    uniform so the batch cannot collapse onto a few records. Gradients flow
    through both the pairwise BCE values and the softmin weights.

    ``grad`` is the gradient of ``w_dbce * dbce_loss + w_normkl * norm_kl``
    with respect to ``pred``: the weighted sum is the only one training
    needs, and it costs one product with ``micro`` instead of two. Weights
    (1, 0) or (0, 1) give the gradient of one term alone. ``with_grad=False``
    skips the gradient, leaving ``grad`` None, and changes no other bit.

    ``counts[j]`` says how many microdata records row j stands for (None:
    one each), so a table's distinct rows (``schema.distinct_rows``) with
    their counts give the result of the full table: row j enters the softmin
    with weight ``counts[j]``, ``soft_index[j]`` is the mass over all its
    records, and ``norm_kl`` sums over records. With unit counts every bit
    equals the unweighted formula. The row-local passes run on
    ``rowpool.split_rows`` ranges; ``soft_index``, a sum over rows, does not.
    """
    if pred.shape[0] == 0 or micro.shape[0] == 0:
        raise ValueError("empty batch")
    n_t, d = pred.shape
    c = np.ones(micro.shape[0]) if counts is None else np.asarray(counts, dtype=np.float64)
    if c.shape != micro.shape[:1] or not (c >= 1).all():
        raise ValueError("counts must be one positive count per microdata row")
    n = c.sum()
    p = clamp01(pred)

    b = pairwise_mean_bce(p, micro)
    s = softmin(b, temperature, c)
    per_row = np.empty(n_t)

    def scores(lo, hi):
        np.einsum("ij,ij->i", s[lo:hi], b[lo:hi], out=per_row[lo:hi])

    rowpool.split_rows(scores, n_t)
    loss = float(per_row.mean())

    soft_index = s.sum(axis=0)
    q = soft_index / (n_t * c)
    u = 1.0 / n
    ratio = (u + KL_EPS) / (q + KL_EPS)
    norm_kl = float((c * (u + KL_EPS) * np.log(ratio)).sum())
    if not with_grad:
        return DbceResult(loss, norm_kl, soft_index, per_row, None)

    # d(w_dbce * loss + w_normkl * norm_kl) / dB through the softmin Jacobian
    # (the counts only shift the softmin logits, so it keeps its form):
    #   g_ij = s_ij * (row_i + col_j - kappa * b_ij)
    # built in b's buffer: from then on b holds g
    kappa = w_dbce / (n_t * temperature)
    col = w_normkl * ratio / (n_t * temperature)
    g_sum, g_micro = np.empty(n_t), np.empty(p.shape)

    def gradient_rows(lo, hi):
        row = w_dbce / n_t + (
            w_dbce * per_row[lo:hi] - w_normkl * (s[lo:hi] @ ratio)
        ) / (n_t * temperature)
        g = b[lo:hi]
        g *= -kappa
        g += row[:, None]
        g += col
        g *= s[lo:hi]
        g_sum[lo:hi] = g.sum(axis=1)
        np.matmul(g, micro, out=g_micro[lo:hi])

    rowpool.split_rows(gradient_rows, n_t)
    grad = (g_sum[:, None] * p - g_micro) / (d * (p * (1.0 - p)))

    return DbceResult(
        dbce_loss=loss,
        norm_kl=norm_kl,
        soft_index=soft_index,
        per_row_softmin=per_row,
        grad=grad,
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

    # every level sum is a slice of one column-sum pass. numpy sums a slice
    # two or more columns wide row by row, as it sums every column here, but
    # a one-column slice pairwise along its rows, so a one-level block keeps
    # its own sum
    col_sums = pred.sum(axis=0)
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
            levels = slice(g.start, g.start + target.size)
            numer += col_sums[levels] if target.size > 1 else pred[:, levels].sum(axis=0)
            denom += n_t if g.slot is None else (1.0 - pred[:, g.stop - 1]).sum()
        if denom < 1e-6:
            raise ValueError(f"variable {var!r} has no expected non-NA mass")
        marginals[var] = numer / denom
        state[var] = (numer, denom)
        diffs.append(marginals[var] - target)

    flat = np.concatenate(diffs)
    m_total = flat.size
    rmse = float(np.sqrt((flat**2).mean()))

    # the gradient is the same for every row: one row, broadcast once
    row = np.zeros(pred.shape[1])
    scale = 1.0 / (m_total * max(rmse, 1e-12))
    k = 0
    for var, var_groups in by_var.items():
        numer, denom = state[var]
        dv = flat[k : k + numer.size] * scale
        d_na = float((dv * numer).sum()) / denom**2
        for g in var_groups:
            row[g.start : g.start + numer.size] += dv / denom
            if g.slot is not None:
                row[g.stop - 1] += d_na
        k += numer.size
    grad = np.broadcast_to(row, pred.shape).copy()
    return MarginalRmseResult(rmse, grad, marginals)
