"""Fidelity and privacy metrics for synthetic inventories.

Marginal fidelity: RMSE and smoothed KL between per-variable category
proportions, chi-square goodness of fit of synthetic counts against reference
proportions, and the same three across all unordered variable pairs (joint
distributions).

Privacy: distance to the closest record (DCR), the column-mean binary
cross-entropy between a synthetic row (clamped one-hot, read as probabilities)
and its nearest microdata row, at household level and at person level (each
person joined with their household's variables); plus a two-sample
Kolmogorov-Smirnov test between DCR samples. On one-hot rows that BCE is a
function of the number of groups two rows agree on, so DCR is a table
lookup at each row's largest count of matching groups, which one product
of the 0/1 matrices gives exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .losses import CLAMP
from .schema import (
    DataError,
    RestructuredTable,
    encode_onehot,
    marginal_counts,
    marginals_from_counts,
    one_hot,
)

KL_EPS = 1e-6
MIN_EXPECTED = 5.0  # chi-square buckets expected below this are merged
DCR_BLOCK_VALUES = 2**20  # match counts per block of dcr: 4 MB of float32
# dcr's per-column BCE terms, synthetic value first: a 1 is clamped to
# 1 - CLAMP and a 0 to CLAMP, and log(1 - p) is taken as log1p(-p)
_A11 = math.log(1.0 - CLAMP)
_A01 = math.log(CLAMP)
_A10 = math.log1p(-(1.0 - CLAMP))
_A00 = math.log1p(-CLAMP)


def rmse_metric(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(((a - b) ** 2).mean()))


def kl_metric(syn: np.ndarray, ref: np.ndarray) -> float:
    """Divergence of the synthetic proportions from the reference, both
    smoothed by ``KL_EPS``; not symmetric."""
    syn = np.asarray(syn, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if syn.shape != ref.shape:
        raise ValueError(f"shape mismatch: {syn.shape} vs {ref.shape}")
    return float(((syn + KL_EPS) * np.log((syn + KL_EPS) / (ref + KL_EPS))).sum())


@dataclass
class ChiSquareResult:
    statistic: float
    p_value: float
    dof: int
    merged_categories: int


def chi_square_test(
    observed_counts: np.ndarray, expected_proportions: np.ndarray
) -> ChiSquareResult:
    """Pearson goodness of fit with (k - 1) degrees of freedom.

    Expected proportions are smoothed by ``KL_EPS`` and scaled to the observed
    total; categories whose expected count falls below ``MIN_EXPECTED`` are
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
    p = (exp_p + KL_EPS) / (exp_p + KL_EPS).sum()
    exp = p * total

    small = exp < MIN_EXPECTED
    merged = int(small.sum())
    if merged and merged < obs.size:
        obs = np.append(obs[~small], obs[small].sum())
        exp = np.append(exp[~small], exp[small].sum())
        while obs.size > 1 and exp[-1] < MIN_EXPECTED:
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
    # imported here, not at module level, so that only the commands that
    # report p-values (evaluate, privacy) pay for loading scipy
    import scipy.special

    return ChiSquareResult(stat, float(scipy.special.chdtrc(dof, stat)), dof, merged)


# ---------------------------------------------------------------------------
# joint pairs


@dataclass
class JointPairReport:
    variables: tuple[str, ...]
    rmse: dict[tuple[str, str], float]
    kl: dict[tuple[str, str], float]
    p_value: dict[tuple[str, str], float]


def _pair_counts(view: np.ndarray, schema, var_a: str, var_b: str) -> np.ndarray:
    """Joint category counts of two variables over the rows of ``view``,
    whose columns are the schema's variables in order: a table's
    ``households`` for a household pair (counting households), its
    ``person_codes()`` for a pair involving a person variable (counting
    persons, non-NA in every person variable involved)."""
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
    """RMSE, KL and chi-square p for every unordered variable pair. Each
    table's person view is built once, not once per pair."""
    if table_syn.schema.fingerprint() != table_ref.schema.fingerprint():
        raise ValueError("tables use different schemas")
    schema = table_syn.schema
    variables = schema.household_names + schema.person_names
    views = [(t.households, t.person_codes()) for t in (table_syn, table_ref)]
    household_names = set(schema.household_names)
    rmse, kl, pv = {}, {}, {}
    for var_a, var_b in itertools.combinations(variables, 2):
        k = 0 if {var_a, var_b} <= household_names else 1
        c_syn, c_ref = (_pair_counts(v[k], schema, var_a, var_b).ravel() for v in views)
        if c_syn.sum() == 0 or c_ref.sum() == 0:
            raise DataError(f"no observations for pair ({var_a}, {var_b})")
        p_syn = c_syn / c_syn.sum()
        p_ref = c_ref / c_ref.sum()
        key = (var_a, var_b)
        rmse[key] = rmse_metric(p_syn, p_ref)
        kl[key] = kl_metric(p_syn, p_ref)
        pv[key] = chi_square_test(c_syn, p_ref).p_value
    return JointPairReport(variables, rmse, kl, pv)


# ---------------------------------------------------------------------------
# distance to closest record


def dcr(syn: np.ndarray, micro: np.ndarray) -> np.ndarray:
    """Distance of each synthetic row to its closest microdata row: minimum
    column-mean BCE, treating the clamped synthetic row as probabilities.
    Every row of ``micro`` is compared; a caller that passes only the distinct
    rows gets the same minima for less work.

    Both take hard 0/1 rows that all hold the same number G of ones, as the
    one-hot rows of one schema do; any other row raises ValueError. Two such
    rows of width d that share M ones differ in 2(G - M) columns, so their
    BCE is ``table[M]`` and a row's distance is the table at its largest M.
    One product of the 0/1 matrices gives those counts. They are integers
    at most G < 2^24, exact in float32 in any summation order, so no bit of
    a distance depends on the BLAS, its threads or the blocks: the synthetic
    rows go in blocks of at most ``DCR_BLOCK_VALUES`` counts only to bound
    the working set."""
    syn = np.asarray(syn, dtype=np.float64)
    micro = np.asarray(micro, dtype=np.float64)
    if syn.shape[1] != micro.shape[1]:
        raise ValueError("row widths differ")
    if syn.shape[0] == 0 or micro.shape[0] == 0:
        raise ValueError("empty input")
    if not all(((x == 0.0) | (x == 1.0)).all() for x in (syn, micro)):
        raise ValueError("dcr compares rows of zeros and ones only")
    ones = np.concatenate([syn.sum(axis=1), micro.sum(axis=1)])
    g = ones[0]
    if (ones != g).any():
        raise ValueError("rows hold different counts of ones")
    d = syn.shape[1]
    m = np.arange(g + 1)
    table = -(m * _A11 + (g - m) * (_A01 + _A10) + (d - 2 * g + m) * _A00) / d
    t = micro.astype(np.float32).T
    rows = max(1, DCR_BLOCK_VALUES // micro.shape[0])
    best = [(syn[lo : lo + rows].astype(np.float32) @ t).max(axis=1)
            for lo in range(0, syn.shape[0], rows)]
    return table[np.concatenate(best).astype(np.intp)]


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


def ks_test(a: np.ndarray, b: np.ndarray) -> KsResult:
    """Two-sample Kolmogorov-Smirnov with the asymptotic p-value."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    stat = float(np.abs(cdf_a - cdf_b).max())
    en = math.sqrt(a.size * b.size / (a.size + b.size))
    import scipy.special  # see chi_square_test

    p = float(scipy.special.kolmogorov(en * stat))
    return KsResult(stat, min(max(p, 0.0), 1.0))


# ---------------------------------------------------------------------------
# per-variable report


@dataclass
class MetricsReport:
    """Per-variable fidelity rows plus their mean; target columns appear only
    when tract targets were supplied. ``synthetic`` and ``reference`` are the
    proportions the rows compare; ``means`` has every row key, sorted."""

    rows: dict[str, dict[str, float]]
    synthetic: dict[str, np.ndarray]
    reference: dict[str, np.ndarray]
    means: dict[str, float]


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
    means = {
        key: float(np.mean([row[key] for row in rows.values() if key in row]))
        for key in sorted({key for row in rows.values() for key in row})
    }
    return MetricsReport(rows, syn, ref, means)
