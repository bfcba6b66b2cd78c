"""Fidelity and privacy metrics for synthetic inventories.

Marginal fidelity: RMSE and smoothed KL between per-variable category
proportions, chi-square goodness of fit of synthetic counts against reference
proportions, and the same three across all unordered variable pairs (joint
distributions).

Privacy: distance to the closest record (DCR), the column-mean binary
cross-entropy between a synthetic row (clamped one-hot, read as probabilities)
and its nearest microdata row, at household level and at person level (each
person joined with their household's variables); plus a two-sample
Kolmogorov-Smirnov test between DCR samples, optionally on binned values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.special
import scipy.stats

from .losses import clamp01, pairwise_mean_bce
from .schema import (
    RestructuredTable,
    encode_onehot,
    marginal_counts,
    marginals_from_counts,
    one_hot,
)

KL_EPS = 1e-6


def rmse_metric(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(((a - b) ** 2).mean()))


def kl_metric(syn: np.ndarray, ref: np.ndarray, epsilon: float = KL_EPS) -> float:
    """Smoothed divergence of the synthetic proportions from the reference;
    not symmetric."""
    syn = np.asarray(syn, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if syn.shape != ref.shape:
        raise ValueError(f"shape mismatch: {syn.shape} vs {ref.shape}")
    return float(((syn + epsilon) * np.log((syn + epsilon) / (ref + epsilon))).sum())


@dataclass
class ChiSquareResult:
    statistic: float
    p_value: float
    dof: int
    merged_categories: int


def chi_square_test(
    observed_counts: np.ndarray,
    expected_proportions: np.ndarray,
    epsilon: float = KL_EPS,
    min_expected: float = 5.0,
) -> ChiSquareResult:
    """Pearson goodness of fit with (k - 1) degrees of freedom.

    Expected proportions are epsilon-smoothed and scaled to the observed
    total; categories whose expected count falls below ``min_expected`` are
    merged into a single tail bucket (folded into the smallest surviving
    bucket if still too small).
    """
    obs = np.asarray(observed_counts, dtype=np.float64)
    exp_p = np.asarray(expected_proportions, dtype=np.float64)
    if obs.shape != exp_p.shape or obs.ndim != 1:
        raise ValueError("observed and expected must be 1-d and the same length")
    total = obs.sum()
    if total <= 0:
        raise ValueError("observed counts sum to zero")
    p = (exp_p + epsilon) / (exp_p + epsilon).sum()
    exp = p * total

    small = exp < min_expected
    merged = int(small.sum())
    if merged and merged < obs.size:
        obs = np.append(obs[~small], obs[small].sum())
        exp = np.append(exp[~small], exp[small].sum())
        while obs.size > 1 and exp[-1] < min_expected:
            k = int(np.argmin(exp[:-1]))
            exp[k] += exp[-1]
            obs[k] += obs[-1]
            obs, exp = obs[:-1], exp[:-1]
            merged += 1
    elif merged == obs.size:
        merged = 0  # everything small: keep the original buckets

    if obs.size < 2:
        return ChiSquareResult(0.0, 1.0, 0, merged)
    stat = float(((obs - exp) ** 2 / exp).sum())
    dof = obs.size - 1
    return ChiSquareResult(stat, float(scipy.stats.chi2.sf(stat, dof)), dof, merged)


# ---------------------------------------------------------------------------
# joint pairs


@dataclass
class JointPairReport:
    variables: tuple[str, ...]
    rmse: dict[tuple[str, str], float]
    kl: dict[tuple[str, str], float]
    p_value: dict[tuple[str, str], float]


def _pair_counts(table: RestructuredTable, var_a: str, var_b: str) -> np.ndarray:
    """Joint category counts; household pairs count households, any pair
    involving a person variable counts persons (non-NA in every person
    variable involved)."""
    schema = table.schema
    households_only = {var_a, var_b} <= set(schema.household_names)
    view = table.households if households_only else table.person_codes()
    names = [v.name for v in schema.variables]
    ka, kb = names.index(var_a), names.index(var_b)
    wa, wb = (len(schema.variables[k].levels) for k in (ka, kb))
    a, b = view[:, ka], view[:, kb]
    keep = (a < wa) & (b < wb)
    counts = np.bincount(a[keep] * wb + b[keep], minlength=wa * wb)
    return counts.reshape(wa, wb).astype(np.float64)


def joint_pair_metrics(
    table_syn: RestructuredTable, table_ref: RestructuredTable
) -> JointPairReport:
    """RMSE, KL and chi-square p for every unordered variable pair."""
    if table_syn.schema.fingerprint() != table_ref.schema.fingerprint():
        raise ValueError("tables use different schemas")
    schema = table_syn.schema
    variables = schema.household_names + schema.person_names
    rmse, kl, pv = {}, {}, {}
    for var_a, var_b in itertools.combinations(variables, 2):
        c_syn = _pair_counts(table_syn, var_a, var_b).ravel()
        c_ref = _pair_counts(table_ref, var_a, var_b).ravel()
        if c_syn.sum() == 0 or c_ref.sum() == 0:
            raise ValueError(f"no observations for pair ({var_a}, {var_b})")
        p_syn = c_syn / c_syn.sum()
        p_ref = c_ref / c_ref.sum()
        key = (var_a, var_b)
        rmse[key] = rmse_metric(p_syn, p_ref)
        kl[key] = kl_metric(p_syn, p_ref)
        pv[key] = chi_square_test(c_syn, p_ref).p_value
    return JointPairReport(variables, rmse, kl, pv)


# ---------------------------------------------------------------------------
# distance to closest record


def dcr(
    syn: np.ndarray, micro: np.ndarray, chunk: int = 1024
) -> np.ndarray:
    """Distance of each synthetic row to its closest microdata row: minimum
    column-mean BCE, treating the clamped synthetic row as probabilities."""
    syn = np.asarray(syn, dtype=np.float64)
    micro = np.asarray(micro, dtype=np.float64)
    if syn.shape[1] != micro.shape[1]:
        raise ValueError("row widths differ")
    if syn.shape[0] == 0 or micro.shape[0] == 0:
        raise ValueError("empty input")
    out = np.empty(syn.shape[0])
    p = clamp01(syn)
    for start in range(0, p.shape[0], chunk):
        block = pairwise_mean_bce(p[start : start + chunk], micro)
        out[start : start + chunk] = block.min(axis=1)
    return out


def person_level_matrix(table: RestructuredTable) -> np.ndarray:
    """One row per occupied person slot: household one-hot columns followed
    by that person's one-hot columns."""
    schema = table.schema
    codes = table.person_codes()
    if codes.shape[0] == 0:
        raise ValueError("table has no persons")
    widths = [v.width for v in schema.variables]
    starts = np.cumsum([0, *widths[:-1]])
    return one_hot(codes, starts, sum(widths))


def household_matrix(table: RestructuredTable) -> np.ndarray:
    return encode_onehot(table).values


@dataclass
class KsResult:
    statistic: float
    p_value: float


def ks_test(
    a: np.ndarray, b: np.ndarray, binned: bool = False, bins: int = 20
) -> KsResult:
    """Two-sample Kolmogorov-Smirnov with the asymptotic p-value.

    ``binned`` first discretises both samples into equal-width bins over the
    pooled range, which coarsens the comparison to histogram resolution.
    """
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample")
    if binned:
        if bins < 1:
            raise ValueError("bins must be >= 1")
        lo = min(a[0], b[0])
        hi = max(a[-1], b[-1])
        if hi <= lo:
            a = np.zeros_like(a)
            b = np.zeros_like(b)
        else:
            edges = np.linspace(lo, hi, bins + 1)
            a = np.clip(np.searchsorted(edges, a, side="right") - 1, 0, bins - 1).astype(float)
            b = np.clip(np.searchsorted(edges, b, side="right") - 1, 0, bins - 1).astype(float)
            a.sort()
            b.sort()
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    stat = float(np.abs(cdf_a - cdf_b).max())
    en = math.sqrt(a.size * b.size / (a.size + b.size))
    p = float(scipy.special.kolmogorov(en * stat))
    return KsResult(stat, min(max(p, 0.0), 1.0))


# ---------------------------------------------------------------------------
# per-variable report


@dataclass
class MetricsReport:
    """Per-variable fidelity rows plus their mean; target columns appear only
    when tract targets were supplied. ``synthetic`` and ``reference`` are the
    proportions the rows compare."""

    rows: dict[str, dict[str, float]]
    synthetic: dict[str, np.ndarray] = field(default_factory=dict)
    reference: dict[str, np.ndarray] = field(default_factory=dict)
    means: dict[str, float] = field(default_factory=dict)

    def finalize(self):
        keys = set()
        for row in self.rows.values():
            keys |= set(row)
        for key in sorted(keys):
            vals = [row[key] for row in self.rows.values() if key in row]
            self.means[key] = float(np.mean(vals)) if vals else float("nan")
        return self


def marginal_report(
    table_syn: RestructuredTable,
    table_ref: RestructuredTable,
    targets=None,
) -> MetricsReport:
    syn_counts = marginal_counts(table_syn)
    syn = marginals_from_counts(table_syn, syn_counts).proportions
    ref = marginals_from_counts(table_ref, marginal_counts(table_ref)).proportions
    rows = {}
    for name, counts in syn_counts.items():
        syn_p, ref_p = syn[name], ref[name]
        row = {
            "rmse_vs_microdata": rmse_metric(syn_p, ref_p),
            "kl_vs_microdata": kl_metric(syn_p, ref_p),
            "p_vs_microdata": chi_square_test(counts, ref_p).p_value,
        }
        if targets is not None:
            tgt = targets.proportions[name]
            row["rmse_vs_target"] = rmse_metric(syn_p, tgt)
            row["kl_vs_target"] = kl_metric(syn_p, tgt)
            row["p_vs_target"] = chi_square_test(counts, tgt).p_value
            row["baseline_rmse"] = rmse_metric(ref_p, tgt)
            row["baseline_kl"] = kl_metric(ref_p, tgt)
        rows[name] = row
    return MetricsReport(rows, syn, ref).finalize()
