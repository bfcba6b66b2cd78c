import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import load_census_module
from popsynth import evaluation, rowpool
from popsynth.evaluation import (
    chi_square_test,
    dcr,
    household_matrix,
    joint_pair_metrics,
    kl_metric,
    ks_test,
    marginal_report,
    person_level_matrix,
    rmse_metric,
)
from popsynth.schema import empirical_marginals, one_hot


def test_rmse_hand_value():
    assert rmse_metric([0.6, 0.4], [0.5, 0.5]) == pytest.approx(0.1, rel=1e-12)


def test_rmse_symmetric(rng):
    a, b = rng.random(5), rng.random(5)
    assert rmse_metric(a, b) == rmse_metric(b, a)


def test_kl_zero_on_identical():
    p = np.array([0.2, 0.3, 0.5])
    assert kl_metric(p, p) == pytest.approx(0.0, abs=1e-12)


def test_kl_matches_oracle_and_is_directed(rng):
    p = rng.dirichlet(np.ones(4))
    q = rng.dirichlet(np.ones(4))
    assert kl_metric(p, q) == pytest.approx(oracles.brute_kl_metric(p, q), rel=1e-12)
    assert kl_metric(p, q) != pytest.approx(kl_metric(q, p), rel=1e-6)


def test_kl_handles_zero_reference():
    # smoothing keeps the divergence finite when the reference has a zero cell
    v = kl_metric(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    assert np.isfinite(v) and v > 0


def test_chi_square_exact_match_is_p1():
    obs = np.array([50.0, 30.0, 20.0])
    res = chi_square_test(obs, obs / obs.sum())
    assert res.statistic == pytest.approx(0.0, abs=1e-9)
    assert res.p_value == pytest.approx(1.0)


def test_chi_square_hand_statistic():
    # obs (10, 90) against fifty-fifty: (40^2/50)*2 = 64
    res = chi_square_test(np.array([10.0, 90.0]), np.array([0.5, 0.5]))
    assert res.statistic == pytest.approx(64.0, rel=1e-6)
    assert res.dof == 1
    assert res.p_value < 1e-10


def test_chi_square_merges_small_expected():
    obs = np.array([60.0, 36.0, 2.0, 1.0, 1.0])
    res = chi_square_test(obs, np.array([0.6, 0.36, 0.02, 0.01, 0.01]))
    # three tiny expected cells pool to 4 counts, still small, folded onward
    assert res.merged_categories == 4
    assert res.dof == 1
    assert res.p_value == pytest.approx(1.0, abs=1e-3)


def test_chi_square_merge_collapse_to_single_bucket():
    res = chi_square_test(np.array([96.0, 2.0, 1.0, 1.0]), np.array([0.96, 0.02, 0.01, 0.01]))
    assert res.dof == 0
    assert res.p_value == 1.0


def test_chi_square_all_small_keeps_buckets():
    obs = np.array([2.0, 1.0, 1.0])
    res = chi_square_test(obs, np.array([0.5, 0.25, 0.25]))
    assert res.merged_categories == 0
    assert res.dof == 2


@pytest.mark.parametrize(
    "observed, expected",
    [
        ([25.0, 25.0, 25.0, 25.0], [0.25, 0.25, 0.25, 0.25]),  # stat = 0
        ([10.0, 90.0], [0.5, 0.5]),
        ([1000.0, 0.0], [0.5, 0.5]),  # p near the float64 floor
        ([4000.0, 0.0], [0.5, 0.5]),  # p underflows to 0
        ([60.0, 36.0, 2.0, 1.0, 1.0], [0.6, 0.36, 0.02, 0.01, 0.01]),  # merged
        ([50.0, 30.0, 9.0, 6.0, 3.0, 2.0], [0.4, 0.4, 0.1, 0.05, 0.03, 0.02]),  # merged
    ],
)
def test_chi_square_p_value_bit_equals_scipy_stats(observed, expected):
    res = chi_square_test(np.array(observed), np.array(expected))
    assert res.dof >= 1
    ref = float(scipy.stats.chi2.sf(res.statistic, res.dof))
    assert res.p_value.hex() == ref.hex()


def test_chi_square_p_value_bit_equals_scipy_stats_on_random_counts(rng):
    for _ in range(200):
        k = int(rng.integers(2, 30))
        expected = rng.dirichlet(np.full(k, 0.5))
        observed = rng.multinomial(int(rng.integers(10, 5000)), rng.dirichlet(np.ones(k)))
        res = chi_square_test(observed.astype(float), expected)
        if res.dof:
            ref = float(scipy.stats.chi2.sf(res.statistic, res.dof))
            assert res.p_value.hex() == ref.hex()


def test_chi_square_rejects_zero_total():
    with pytest.raises(ValueError):
        chi_square_test(np.zeros(3), np.array([0.5, 0.3, 0.2]))


def hard_rows(rng, n, widths):
    """``n`` random one-hot rows over groups of ``widths`` columns, and
    their integer codes."""
    codes = np.stack([rng.integers(0, w, size=n) for w in widths], axis=1)
    return one_hot(codes, np.cumsum([0, *widths[:-1]]), sum(widths)), codes


def census_widths(level):
    """Group widths of the census workload's rows: 42 groups in 360 columns
    at household level, 12 in 90 at person level."""
    schema = load_census_module().census_schema()
    hh = [v.width for v in schema.household_vars]
    person = [v.width for v in schema.person_vars]
    return hh + person * (schema.n_window if level == "household" else 1)


def test_dcr_matches_brute_force(rng, monkeypatch):
    monkeypatch.setattr(evaluation, "DCR_BLOCK_VALUES", 10)  # three blocks of two rows
    syn, _ = hard_rows(rng, 6, [2, 3, 3])
    micro, _ = hard_rows(rng, 5, [2, 3, 3])
    fast = dcr(syn, micro)
    brute = np.array([oracles.brute_dcr(row, micro) for row in syn])
    np.testing.assert_allclose(fast, brute, atol=1e-12)


def test_dcr_with_repeated_rows_matches_brute_force(rng, monkeypatch):
    monkeypatch.setattr(evaluation, "DCR_BLOCK_VALUES", 90)  # blocks of 3, 3 and 1 rows
    syn, _ = hard_rows(rng, 7, [2, 3, 3])
    base, _ = hard_rows(rng, 4, [2, 3, 3])
    micro = base[rng.integers(0, 4, size=30)]
    fast = dcr(syn, micro)
    brute = np.array([oracles.brute_dcr(row, micro) for row in syn])
    np.testing.assert_allclose(fast, brute, atol=1e-12)


def test_dcr_exact_copies_at_census_width_match_brute_force(rng, monkeypatch):
    """Synthetic rows that copy a microdata row exactly sit at a distance of
    about 1e-7, so only a relative tolerance sees their error."""
    widths = [2, 3, 5, 7, 9, 12, 16] * 6 + [3, 4, 5, 6, 7, 11]
    micro, _ = hard_rows(rng, 40, widths)
    syn = micro[rng.integers(0, 40, size=12)]
    monkeypatch.setattr(evaluation, "DCR_BLOCK_VALUES", 200)  # three blocks of four rows
    fast = dcr(syn, micro)
    brute = np.array([oracles.brute_dcr(row, micro) for row in syn])
    assert brute.max() < 1e-6
    np.testing.assert_allclose(fast, brute, rtol=1e-12, atol=0)


@pytest.mark.parametrize("level", ["household", "person"])
def test_dcr_matches_the_code_level_oracle(rng, level):
    widths = census_widths(level)
    micro, micro_codes = hard_rows(rng, 300, widths)
    syn, syn_codes = hard_rows(rng, 40, widths)
    syn[:5], syn_codes[:5] = micro[:5], micro_codes[:5]  # exact copies too
    want = oracles.code_dcr(syn_codes, micro_codes, sum(widths))
    np.testing.assert_allclose(dcr(syn, micro), want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("level", ["household", "person"])
def test_dcr_gives_one_distance_per_best_match_count(level):
    """Rows whose closest record shares as many groups get the same bits:
    the BCE of two such one-hot rows depends on that count alone."""
    rng = np.random.default_rng(31)
    widths = census_widths(level)
    syn, syn_codes = hard_rows(rng, 400, widths)
    micro, micro_codes = hard_rows(rng, 500, widths)
    got = dcr(syn, micro)
    best = (syn_codes[:, None, :] == micro_codes[None, :, :]).sum(axis=2).max(axis=1)
    split = [m for m in np.unique(best) if np.unique(got[best == m]).size > 1]
    assert split == []


def test_dcr_bits_hold_for_every_block_and_blas_thread_count(monkeypatch):
    """The same bits in blocks of every size from one row up, and with
    numpy's OpenBLAS at one thread and at two."""
    blas = rowpool.openblas_threads()
    if blas is None:
        pytest.skip("numpy's OpenBLAS not found")
    get, put = blas
    rng = np.random.default_rng(41)
    widths = census_widths("household")
    micro, _ = hard_rows(rng, 2000, widths)
    syn, _ = hard_rows(rng, 48, widths)
    syn[::4] = micro[:12]
    want = dcr(syn, micro).view(np.uint64)
    before = get()
    try:
        for threads in (1, 2):
            put(threads)
            for rows in range(1, syn.shape[0] + 1):
                monkeypatch.setattr(evaluation, "DCR_BLOCK_VALUES", rows * micro.shape[0])
                assert np.array_equal(dcr(syn, micro).view(np.uint64), want), (threads, rows)
    finally:
        put(before)


def test_dcr_rejects_rows_that_are_not_hard_or_hold_other_counts_of_ones(rng):
    micro, _ = hard_rows(rng, 5, [2, 3, 3])
    syn, _ = hard_rows(rng, 4, [2, 3, 3])
    for bad in (0.5, 2.0, -1.0, np.nan):
        soft = syn.copy()
        soft[1, 0] = bad
        for args in ((soft, micro), (micro, soft)):
            with pytest.raises(ValueError, match="zeros and ones"):
                dcr(*args)
    extra = syn.copy()
    extra[2] = 1.0  # one row of eight ones
    short = micro.copy()
    short[3, 5:] = 0.0  # one row of two ones
    fewer = np.hstack([micro[:, :5], np.zeros((5, 3))])  # every row two ones
    for args in ((extra, micro), (syn, short), (short, syn), (syn, fewer)):
        with pytest.raises(ValueError, match="counts of ones"):
            dcr(*args)


def test_dcr_self_distance_is_tiny(tiny_encoded):
    x = tiny_encoded.values
    d = dcr(x, x)
    assert d.max() <= 1e-5


def test_dcr_rejects_width_mismatch():
    with pytest.raises(ValueError):
        dcr(np.zeros((2, 3)), np.zeros((2, 4)))


def test_ks_identical_samples_p1(rng):
    a = rng.normal(size=200)
    res = ks_test(a, a.copy())
    assert res.statistic == 0.0
    assert res.p_value == pytest.approx(1.0)


def test_ks_disjoint_samples_rejects():
    res = ks_test(np.zeros(50), np.ones(50))
    assert res.statistic == pytest.approx(1.0)
    assert res.p_value < 1e-6


def test_ks_same_distribution_accepts(rng):
    a = rng.normal(size=400)
    b = rng.normal(size=400)
    assert ks_test(a, b).p_value > 0.05


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ks_property_statistic_in_unit_interval(seed):
    r = np.random.default_rng(seed)
    a = r.normal(size=r.integers(2, 40))
    b = r.normal(loc=r.uniform(-2, 2), size=r.integers(2, 40))
    res = ks_test(a, b)
    assert 0.0 <= res.statistic <= 1.0
    assert 0.0 <= res.p_value <= 1.0


def test_joint_pairs_self_comparison_is_zero(tiny_table):
    rep = joint_pair_metrics(tiny_table, tiny_table)
    n_vars = len(rep.variables)
    assert len(rep.rmse) == n_vars * (n_vars - 1) // 2
    assert all(v == pytest.approx(0.0, abs=1e-12) for v in rep.rmse.values())
    assert all(v == pytest.approx(0.0, abs=1e-9) for v in rep.kl.values())
    assert all(v == pytest.approx(1.0) for v in rep.p_value.values())


def test_joint_pairs_rejects_schema_mismatch(tiny_table, tiny_schema, tiny_records):
    other = tiny_schema.with_n_window(3)
    from popsynth.schema import restructure

    table2 = restructure(tiny_records, other)
    with pytest.raises(ValueError):
        joint_pair_metrics(tiny_table, table2)


def test_person_level_matrix_shape(tiny_table, tiny_schema):
    m = person_level_matrix(tiny_table)
    hh_w = sum(v.width for v in tiny_schema.household_vars)
    p_w = sum(v.width for v in tiny_schema.person_vars)
    assert m.shape == (6, hh_w + p_w)
    np.testing.assert_array_equal(m.sum(axis=1), 4.0)  # 4 one-hot groups per row


def test_household_matrix_equals_encoding(tiny_table, tiny_encoded):
    np.testing.assert_array_equal(household_matrix(tiny_table), tiny_encoded.values)


def test_marginal_report_self_is_perfect(tiny_table):
    rep = marginal_report(tiny_table, tiny_table)
    for row in rep.rows.values():
        assert row["rmse_vs_microdata"] == pytest.approx(0.0, abs=1e-12)
        assert row["kl_vs_microdata"] == pytest.approx(0.0, abs=1e-9)
        assert row["p_vs_microdata"] == pytest.approx(1.0)
    assert rep.means["rmse_vs_microdata"] == pytest.approx(0.0, abs=1e-12)


def test_marginal_report_with_targets_adds_columns(tiny_table):
    targets = empirical_marginals(tiny_table)
    rep = marginal_report(tiny_table, tiny_table, targets=targets)
    row = rep.rows["OWN"]
    assert "rmse_vs_target" in row and "p_vs_target" in row
    assert "baseline_rmse" in row and "baseline_kl" in row
    assert row["rmse_vs_target"] == pytest.approx(0.0, abs=1e-12)
