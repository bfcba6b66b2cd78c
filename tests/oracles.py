"""Brute-force reference implementations used to cross-check the library.

Everything here is written from the defining formulas with plain Python
loops, deliberately avoiding the vectorised code paths under test; the
exceptions are ``where_relu_backward``, ``per_group_marginal_rmse``,
``power_focal_loss``, ``sorted_key_distinct_rows`` and the ``one_call_``
matcher forms, which pin bits rather than a formula,
``choice_sample_records``, which pins a random stream, and the
finite-difference gradient checker at the end.
"""

import math

import numpy as np

from popsynth import oracle
from popsynth.schema import HouseholdRecord

CLAMP = 1e-7
KL_EPS = 1e-6


def clamp(p: float) -> float:
    return min(max(p, CLAMP), 1.0 - CLAMP)


def brute_bce(pred, target) -> float:
    """Mean over rows of the summed per-entry binary cross-entropy."""
    n, d = pred.shape
    total = 0.0
    for i in range(n):
        for j in range(d):
            p = clamp(pred[i, j])
            t = target[i, j]
            total -= t * math.log(p) + (1.0 - t) * math.log1p(-p)
    return total / n


def brute_focal(pred, target, alpha: float, gamma: float) -> float:
    n, d = pred.shape
    total = 0.0
    for i in range(n):
        for j in range(d):
            p = clamp(pred[i, j])
            t = target[i, j]
            total -= alpha * t * (1.0 - p) ** gamma * math.log(p)
            total -= (1.0 - alpha) * (1.0 - t) * p**gamma * math.log1p(-p)
    return total / n


def brute_latent_kl(mu, logsig) -> float:
    n, d = mu.shape
    total = 0.0
    for i in range(n):
        for j in range(d):
            total -= 0.5 * (1.0 + logsig[i, j] - mu[i, j] ** 2 - math.exp(logsig[i, j]))
    return total / n


def brute_softmin(values, temperature: float):
    shifted = [-(v - min(values)) / temperature for v in values]
    w = [math.exp(s) for s in shifted]
    z = sum(w)
    return np.array([v / z for v in w])


def brute_dbce(pred, micro, temperature: float):
    """Double-loop decoupled BCE; returns (loss, norm_kl, soft_index, per_row)."""
    n_t, d = pred.shape
    n = micro.shape[0]
    b = np.zeros((n_t, n))
    for i in range(n_t):
        for j in range(n):
            acc = 0.0
            for k in range(d):
                p = clamp(pred[i, k])
                t = micro[j, k]
                acc -= t * math.log(p) + (1.0 - t) * math.log1p(-p)
            b[i, j] = acc / d
    per_row = np.zeros(n_t)
    soft_index = np.zeros(n)
    for i in range(n_t):
        w = brute_softmin(b[i], temperature)
        per_row[i] = float((w * b[i]).sum())
        soft_index += w
    loss = float(per_row.mean())
    u = 1.0 / n
    kl = 0.0
    for j in range(n):
        q = soft_index[j] / n_t
        kl += (u + KL_EPS) * math.log((u + KL_EPS) / (q + KL_EPS))
    return loss, kl, soft_index, per_row


def brute_kl_metric(syn, ref, epsilon: float = KL_EPS) -> float:
    total = 0.0
    for s, r in zip(syn, ref):
        total += (s + epsilon) * math.log((s + epsilon) / (r + epsilon))
    return total


def brute_marginal_rmse(pred, hh_targets, person_targets, groups) -> float:
    """groups: iterable of (var, slot_or_None, start, stop); NA is the last column."""
    n_t = pred.shape[0]
    diffs = []
    person_num: dict[str, np.ndarray] = {}
    person_den: dict[str, float] = {}
    for var, slot, start, stop in groups:
        block = pred[:, start:stop]
        if slot is None:
            for c in range(stop - start):
                diffs.append(block[:, c].mean() - hh_targets[var][c])
        else:
            width = stop - start
            num = person_num.setdefault(var, np.zeros(width - 1))
            for c in range(width - 1):
                num[c] += block[:, c].sum()
            person_den[var] = person_den.get(var, 0.0) + float((1.0 - block[:, -1]).sum())
    for var, num in person_num.items():
        for c in range(num.size):
            diffs.append(num[c] / person_den[var] - person_targets[var][c])
    return math.sqrt(sum(d * d for d in diffs) / len(diffs))


def where_relu_backward(mask_or_output, dy):
    """``nn.Relu.backward`` in its earlier form, the masked select: ``dy``
    where the cached mask, or the cached output, is > 0, and 0.0 elsewhere."""
    return np.where(mask_or_output > 0, dy, 0.0)


def per_group_marginal_rmse(pred, targets, groups):
    """``losses.marginal_rmse_loss`` in its earlier form, one block sum and
    one gradient column-slice add per group; returns (loss, grad,
    marginals). Vectorised like the library, so a test can require its
    bits."""
    n_t = pred.shape[0]
    by_var = {}
    for g in groups:
        by_var.setdefault(g.var, []).append(g)
    diffs, marginals, state = [], {}, {}
    for var, var_groups in by_var.items():
        target = targets.proportions[var]
        numer = np.zeros(target.size)
        denom = 0.0
        for g in var_groups:
            block = pred[:, g.start : g.stop]
            numer += block[:, : target.size].sum(axis=0)
            denom += n_t if g.slot is None else (1.0 - block[:, -1]).sum()
        marginals[var] = numer / denom
        state[var] = (numer, denom)
        diffs.append(marginals[var] - target)
    flat = np.concatenate(diffs)
    rmse = float(np.sqrt((flat**2).mean()))
    grad = np.zeros_like(pred)
    scale = 1.0 / (flat.size * max(rmse, 1e-12))
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
    return rmse, grad, marginals


def brute_dcr(row, reference) -> float:
    """Min over reference rows of the column-mean BCE of `row` against them.

    log(1 - p) is taken as log1p(-p): at p = 1e-7 the rounding of 1.0 - p
    alone is a relative error of about 5e-10 in the log, and an exact match
    sums only such terms."""
    best = math.inf
    d = row.size
    for j in range(reference.shape[0]):
        acc = 0.0
        for k in range(d):
            p = clamp(row[k])
            t = reference[j, k]
            acc -= t * math.log(p) + (1.0 - t) * math.log1p(-p)
        best = min(best, acc / d)
    return best


def code_dcr(syn_codes, micro_codes, width: int):
    """DCR of one-hot rows ``width`` columns wide, from their integer codes:
    per synthetic row, the largest count M of groups whose codes agree with
    one microdata row, and the column-mean BCE at M. Of G groups, a row
    pair has M columns where both are 1, G - M where only one row is (each
    way) and the rest where both are 0; a clamped 1 is 1 - CLAMP, a 0 CLAMP."""
    out = []
    for row in syn_codes:
        g = len(row)
        m = max(sum(int(a == b) for a, b in zip(row, ref)) for ref in micro_codes)
        p1 = 1.0 - CLAMP
        total = (m * math.log(p1) + (g - m) * math.log(CLAMP)
                 + (g - m) * math.log1p(-p1) + (width - 2 * g + m) * math.log1p(-CLAMP))
        out.append(-total / width)
    return np.array(out)


def power_focal_loss(pred, target, alpha: float, gamma: float):
    """``losses.focal_loss`` in its earlier form, each power taken where it
    is used, the ones of ``x**0`` at gamma 0 included; returns (loss, grad)."""
    a, g = alpha, gamma
    n = pred.shape[0]
    p = np.clip(pred, CLAMP, 1.0 - CLAMP)
    q = 1.0 - p
    log_p = np.log(p)
    log_q = np.log1p(-p)
    pos = target * (q**g) * log_p
    neg = (1 - target) * (p**g) * log_q
    loss = -(a * pos + (1 - a) * neg).sum() / n
    dpos = target * (q**g / p - (g * q ** (g - 1) if g != 0 else 0.0) * log_p)
    dneg = (1 - target) * ((g * p ** (g - 1) if g != 0 else 0.0) * log_q - p**g / q)
    grad = -(a * dpos + (1 - a) * dneg) / n
    return float(loss), grad


def sorted_key_distinct_rows(x):
    """The matcher's dedup of one-hot rows in an earlier form: ``np.unique``
    over whole-row byte keys, then the rows in order of first occurrence.
    ``schema.distinct_rows`` finds the same rows on the integer codes."""
    x = np.ascontiguousarray(x)
    keys = x.view(np.dtype((np.void, x.dtype.itemsize * x.shape[1]))).ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    if first.size == x.shape[0]:
        return x, counts
    order = np.argsort(first)
    return x[first[order]], counts[order]


def one_call_pairwise_mean_bce(pred, target):
    """``losses.pairwise_mean_bce`` in its earlier form, one call on all rows."""
    p = np.clip(pred, CLAMP, 1.0 - CLAMP)
    d = pred.shape[1]
    log_q = np.log1p(-p)
    logit = np.log(p)
    logit -= log_q
    out = logit @ target.T
    out += log_q.sum(axis=1)[:, None]
    out /= -d
    return out


def one_call_softmin(values, temperature: float = 1.0, weights=1.0):
    """``losses.softmin`` in its earlier form, one call on all rows."""
    v = np.asarray(values, dtype=np.float64)
    e = v - v.min(axis=-1, keepdims=True)
    e /= -temperature
    np.exp(e, out=e)
    e *= weights
    e /= e.sum(axis=-1, keepdims=True)
    return e


def one_call_dbce(pred, micro, temperature, counts, w_dbce, w_normkl):
    """``losses.dbce`` in its earlier form, each pass one call on all rows;
    returns (dbce_loss, norm_kl, soft_index, per_row_softmin, grad)."""
    n_t, d = pred.shape
    c = np.asarray(counts, dtype=np.float64)
    n = c.sum()
    p = np.clip(pred, CLAMP, 1.0 - CLAMP)
    b = one_call_pairwise_mean_bce(p, micro)
    s = one_call_softmin(b, temperature, c)
    per_row = np.einsum("ij,ij->i", s, b)
    loss = float(per_row.mean())
    soft_index = s.sum(axis=0)
    q = soft_index / (n_t * c)
    u = 1.0 / n
    ratio = (u + KL_EPS) / (q + KL_EPS)
    norm_kl = float((c * (u + KL_EPS) * np.log(ratio)).sum())
    kappa = w_dbce / (n_t * temperature)
    row = w_dbce / n_t + (w_dbce * per_row - w_normkl * (s @ ratio)) / (n_t * temperature)
    col = w_normkl * ratio / (n_t * temperature)
    g = b
    g *= -kappa
    g += row[:, None]
    g += col
    g *= s
    grad = (g.sum(axis=1)[:, None] * p - g @ micro) / (d * (p * (1.0 - p)))
    return loss, norm_kl, soft_index, per_row, grad


def _choice_draw(rng, dist):
    labels = list(dist)
    probs = np.array([dist[k] for k in labels], dtype=np.float64)
    return labels[rng.choice(len(labels), p=probs / probs.sum())]


def choice_sample_records(n_households: int, seed: int):
    """``oracle.sample_records`` written as one ``rng.choice`` per draw, each
    table rebuilt and normalised where it is drawn from; reads the oracle's
    tables at call time, so a monkeypatched table reaches both."""
    if n_households < 1:
        raise ValueError("n_households must be >= 1")
    weights = oracle._normalize_weights(oracle.DEFAULT_TYPE_WEIGHTS)
    rng = np.random.default_rng(seed)
    names = list(weights)
    probs = np.array([weights[k] for k in names])
    records = []
    for i in range(n_households):
        t = oracle.HOUSEHOLD_TYPES[names[rng.choice(len(names), p=probs)]]
        comps = t["compositions"]
        comp_probs = np.array([p for _, p in comps])
        members = comps[rng.choice(len(comps), p=comp_probs / comp_probs.sum())][0]
        persons = []
        any_senior = False
        for profile in members:
            age = _choice_draw(rng, oracle.MEMBER_AGES[profile])
            edu = _choice_draw(rng, oracle.EDU_GIVEN_AGE[age])
            any_senior = any_senior or age in oracle.SENIOR_AGES
            persons.append((age, edu))
        values = (
            _choice_draw(rng, t["TEN"]),
            _choice_draw(rng, t["VEH"]),
            "Yes" if any_senior else "No",
        )
        records.append(HouseholdRecord(f"H{i + 1:05d}", values, persons))
    return records


def central_difference(f, x0, step: float = 1e-5):
    """Full-coordinate central finite-difference gradient of a scalar function."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.zeros_like(x0)
    it = np.nditer(x0, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x0.copy()
        xm = x0.copy()
        xp[idx] += step
        xm[idx] -= step
        grad[idx] = (f(xp) - f(xm)) / (2.0 * step)
        it.iternext()
    return grad


def max_rel_error(analytic, numeric, floor: float = 1e-6) -> float:
    """Max over entries of |analytic - numeric| / max(|analytic|, |numeric|,
    floor). A non-finite entry raises FloatingPointError: as a NaN error it
    would compare False against every bound and drop out of a running max."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    if not (np.all(np.isfinite(analytic)) and np.all(np.isfinite(numeric))):
        raise FloatingPointError("non-finite analytic or numeric gradient")
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def worst_rel_error(f, x0) -> float:
    """Max relative error between the gradient that ``f`` returns with its
    value and central differences of the value, over every coordinate. A
    non-finite value at ``x0`` raises FloatingPointError."""
    value, grad = f(x0)
    if not np.isfinite(value):
        raise FloatingPointError("non-finite value at the base point")
    numeric = central_difference(lambda v: f(v)[0], x0)
    return max_rel_error(np.ravel(grad), np.ravel(numeric))
