import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from conftest import load_census_module
from popsynth import oracle, rowpool
from popsynth.losses import (
    FocalParams,
    clamp01,
    dbce,
    focal_loss,
    latent_kl,
    marginal_rmse_loss,
    pairwise_mean_bce,
    softmin,
)
from popsynth.schema import (
    TargetMarginals, column_layout, distinct_rows, load_schema, load_tables, one_hot, restructure,
)


def random_onehot(rng, n, widths):
    cols = sum(widths)
    x = np.zeros((n, cols))
    start = 0
    for w in widths:
        x[np.arange(n), start + rng.integers(0, w, size=n)] = 1.0
        start += w
    return x


# -- bce ---------------------------------------------------------------------

# the library's binary cross-entropy is the focal loss at gamma=0, alpha=0.5,
# halved
HALF_BCE = FocalParams(alpha=0.5, gamma=0.0)


def bce_loss(pred, target):
    loss, grad = focal_loss(pred, target, HALF_BCE)
    return 2.0 * loss, 2.0 * grad


def test_bce_zero_on_exact_match(rng):
    t = random_onehot(rng, 5, (2, 3, 4))
    loss, _ = bce_loss(t.copy(), t)
    assert loss <= 1e-5


def test_bce_hand_value():
    loss, _ = bce_loss(np.array([[0.8, 0.2]]), np.array([[1.0, 0.0]]))
    assert loss == pytest.approx(-2 * np.log(0.8), rel=1e-12)


def test_bce_uniform_value():
    d = 7
    loss, _ = bce_loss(np.full((1, d), 0.5), random_onehot(np.random.default_rng(0), 1, (d,)))
    assert loss == pytest.approx(d * np.log(2), rel=1e-12)


def test_bce_matches_oracle(rng):
    pred = rng.uniform(0.01, 0.99, size=(6, 9))
    target = (rng.random((6, 9)) < 0.3).astype(float)
    loss, _ = bce_loss(pred, target)
    assert loss == pytest.approx(oracles.brute_bce(pred, target), rel=1e-12)


def test_bce_shape_mismatch():
    with pytest.raises(ValueError):
        bce_loss(np.zeros((2, 3)), np.zeros((3, 2)))


def test_bce_gradient(rng):
    """The gamma=0 branch of the focal gradient, which test_focal_gradient
    does not reach."""
    pred = rng.uniform(0.05, 0.95, size=(4, 6))
    target = (rng.random((4, 6)) < 0.4).astype(float)
    _, grad = bce_loss(pred, target)
    numeric = oracles.central_difference(lambda p: bce_loss(p, target)[0], pred)
    assert oracles.max_rel_error(grad, numeric) < 1e-6


# -- focal -------------------------------------------------------------------


def test_focal_params_validate():
    with pytest.raises(ValueError):
        FocalParams(alpha=1.5, gamma=2.0)
    with pytest.raises(ValueError):
        FocalParams(alpha=0.5, gamma=-1.0)


def test_focal_hand_value():
    loss, _ = focal_loss(
        np.array([[0.9]]), np.array([[1.0]]), FocalParams(alpha=0.25, gamma=2.0)
    )
    assert loss == pytest.approx(0.25 * 0.01 * -np.log(0.9), rel=1e-9)
    assert loss == pytest.approx(2.634e-4, rel=1e-3)


def test_focal_gamma0_halves_bce(rng):
    for _ in range(100):
        pred = rng.uniform(0.01, 0.99, size=(3, 8))
        target = (rng.random((3, 8)) < 0.4).astype(float)
        f, _ = focal_loss(pred, target, HALF_BCE)
        b = oracles.brute_bce(pred, target)
        assert f == pytest.approx(0.5 * b, rel=1e-9)


def test_focal_matches_oracle(rng):
    pred = rng.uniform(0.01, 0.99, size=(5, 7))
    target = (rng.random((5, 7)) < 0.5).astype(float)
    loss, _ = focal_loss(pred, target, FocalParams(alpha=0.3, gamma=1.7))
    assert loss == pytest.approx(
        oracles.brute_focal(pred, target, 0.3, 1.7), rel=1e-12
    )


def test_focal_well_classified_vanishes_faster():
    t = np.array([[1.0]])
    f_raw, _ = focal_loss(np.array([[0.999]]), t, FocalParams(alpha=0.5, gamma=2.0))
    b_raw = oracles.brute_bce(np.array([[0.999]]), t)
    assert f_raw < 0.5 * b_raw * 1e-4


def test_focal_gradient(rng):
    pred = rng.uniform(0.05, 0.95, size=(4, 5))
    target = (rng.random((4, 5)) < 0.4).astype(float)
    params = FocalParams(alpha=0.25, gamma=2.0)
    _, grad = focal_loss(pred, target, params)
    numeric = oracles.central_difference(
        lambda p: focal_loss(p, target, params)[0], pred
    )
    assert oracles.max_rel_error(grad, numeric) < 1e-6


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("d", [40, 360])
def test_focal_loss_has_the_bits_of_the_power_form(gamma, d):
    """Without the ones of x**0 at gamma 0, and with each power taken once
    above it, the loss and its gradient keep the earlier form's bits."""
    rng = np.random.default_rng(d)
    pred = rng.uniform(0.0, 1.0, size=(125, d))
    pred[:, :4] = [0.0, 1.0, 1e-9, 1.0 - 1e-9]  # on and near the clamp
    for target in ((rng.random((125, d)) < 0.3).astype(float), rng.random((125, d))):
        params = FocalParams(alpha=0.7, gamma=gamma)
        loss, grad = focal_loss(pred, target, params)
        want_loss, want_grad = oracles.power_focal_loss(pred, target, 0.7, gamma)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert grad.tobytes() == want_grad.tobytes()


# -- latent kl ---------------------------------------------------------------


def test_latent_kl_zero_at_prior():
    loss, _, _ = latent_kl(np.zeros((3, 4)), np.zeros((3, 4)))
    assert loss == 0.0


def test_latent_kl_hand_value():
    loss, _, _ = latent_kl(np.array([[1.0]]), np.array([[0.0]]))
    assert loss == pytest.approx(0.5, rel=1e-12)


def test_latent_kl_matches_oracle(rng):
    mu = rng.normal(size=(4, 3))
    logsig = rng.normal(scale=0.5, size=(4, 3))
    loss, _, _ = latent_kl(mu, logsig)
    assert loss == pytest.approx(oracles.brute_latent_kl(mu, logsig), rel=1e-12)


def test_latent_kl_gradients(rng):
    mu = rng.normal(size=(3, 4))
    logsig = rng.normal(scale=0.5, size=(3, 4))
    _, g_mu, g_logsig = latent_kl(mu, logsig)
    n_mu = oracles.central_difference(lambda m: latent_kl(m, logsig)[0], mu)
    n_ls = oracles.central_difference(lambda s: latent_kl(mu, s)[0], logsig)
    assert oracles.max_rel_error(g_mu, n_mu) < 1e-6
    assert oracles.max_rel_error(g_logsig, n_ls) < 1e-6


# -- softmin -----------------------------------------------------------------


def test_softmin_symmetry():
    np.testing.assert_allclose(softmin(np.array([1.0, 1.0]), 0.7), [0.5, 0.5])


def test_softmin_extreme_gap():
    w = softmin(np.array([0.0, 100.0]), 1.0)
    assert w[0] == pytest.approx(1.0)
    assert w[1] == pytest.approx(3.7e-44, rel=0.1)


def test_softmin_rejects_bad_temperature():
    with pytest.raises(ValueError):
        softmin(np.array([1.0, 2.0]), 0.0)


def test_softmin_cold_limit_hits_hard_min(rng):
    for _ in range(100):
        v = rng.uniform(0, 5, size=8)
        w = softmin(v, 1e-3)
        assert float(w @ v) == pytest.approx(v.min(), abs=1e-3)


@settings(max_examples=50, deadline=None)
@given(
    arrays(np.float64, st.integers(2, 10), elements=st.floats(-50, 50)),
    st.floats(0.5, 10.0),
)
def test_softmin_property_simplex(v, tau):
    w = softmin(v, tau)
    assert np.all(w > 0)
    assert w.sum() == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(w, oracles.brute_softmin(v, tau), atol=1e-12)


# -- dbce --------------------------------------------------------------------


def test_dbce_self_match_is_tiny(rng):
    # at cold temperature every row locks onto its own copy
    x = random_onehot(rng, 6, (3, 4, 2))
    res = dbce(clamp01(x), x, temperature=1e-3)
    assert res.dbce_loss <= 1e-4
    assert res.norm_kl <= 1e-4


def test_dbce_collapse_fires_norm_kl(rng):
    micro = random_onehot(rng, 2, (2, 2))
    while np.array_equal(micro[0], micro[1]):
        micro = random_onehot(rng, 2, (2, 2))
    pred = np.tile(micro[1], (4, 1))
    res = dbce(clamp01(pred), micro, temperature=0.05)
    assert res.soft_index[1] > res.soft_index[0]
    assert res.norm_kl > 0


def test_dbce_single_pair_equals_bce(rng):
    pred = rng.uniform(0.05, 0.95, size=(1, 6))
    micro = (rng.random((1, 6)) < 0.5).astype(float)
    res = dbce(pred, micro, temperature=1.0)
    b = oracles.brute_bce(pred, micro)
    assert res.dbce_loss == pytest.approx(b / 6, rel=1e-12)


def test_dbce_matches_brute_force(rng):
    for _ in range(50):
        n_t = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        d = int(rng.integers(2, 13))
        pred = rng.uniform(0.02, 0.98, size=(n_t, d))
        micro = (rng.random((n, d)) < 0.5).astype(float)
        tau = float(rng.uniform(0.1, 2.0))
        res = dbce(pred, micro, temperature=tau)
        loss, kl, soft_index, per_row = oracles.brute_dbce(pred, micro, tau)
        assert res.dbce_loss == pytest.approx(loss, abs=1e-9)
        assert res.norm_kl == pytest.approx(kl, abs=1e-9)
        np.testing.assert_allclose(res.soft_index, soft_index, atol=1e-9)
        np.testing.assert_allclose(res.per_row_softmin, per_row, atol=1e-9)


def test_dbce_soft_index_sums_to_batch(rng):
    pred = rng.uniform(0.1, 0.9, size=(7, 5))
    micro = (rng.random((4, 5)) < 0.5).astype(float)
    res = dbce(pred, micro, temperature=0.7)
    assert res.soft_index.sum() == pytest.approx(7.0, abs=1e-6)
    assert np.all(res.soft_index >= 0)


def test_dbce_permutation_invariant(rng):
    pred = rng.uniform(0.1, 0.9, size=(5, 6))
    micro = (rng.random((4, 6)) < 0.5).astype(float)
    base = dbce(pred, micro, temperature=0.5)
    perm = dbce(pred[::-1], micro[::-1], temperature=0.5)
    assert base.dbce_loss == pytest.approx(perm.dbce_loss, rel=1e-12)
    assert base.norm_kl == pytest.approx(perm.norm_kl, rel=1e-12)


def test_dbce_rejects_width_mismatch(rng):
    with pytest.raises(ValueError):
        dbce(np.full((2, 3), 0.5), np.zeros((2, 4)))


def test_dbce_rejects_empty_micro():
    with pytest.raises(ValueError):
        dbce(np.full((2, 3), 0.5), np.zeros((0, 3)))


def test_dbce_gradients(rng):
    pred = rng.uniform(0.1, 0.9, size=(4, 5))
    micro = (rng.random((3, 5)) < 0.5).astype(float)
    grad_loss = dbce(pred, micro, temperature=0.8, w_dbce=1.0, w_normkl=0.0).grad
    grad_kl = dbce(pred, micro, temperature=0.8, w_dbce=0.0, w_normkl=1.0).grad
    n_loss = oracles.central_difference(
        lambda p: dbce(p, micro, temperature=0.8).dbce_loss, pred
    )
    n_kl = oracles.central_difference(
        lambda p: dbce(p, micro, temperature=0.8).norm_kl, pred
    )
    assert oracles.max_rel_error(grad_loss, n_loss) < 1e-5
    assert oracles.max_rel_error(grad_kl, n_kl) < 1e-5


@pytest.mark.parametrize("w_dbce, w_normkl", [(1.0, 0.0), (0.0, 1.0), (0.5, 0.1)])
def test_dbce_weighted_grad_matches_finite_differences(rng, w_dbce, w_normkl):
    """``grad`` is the gradient of w_dbce * dbce_loss + w_normkl * norm_kl,
    here with repeated rows weighted by their counts."""
    pred = rng.uniform(0.1, 0.9, size=(5, 6))
    micro = (rng.random((4, 6)) < 0.5).astype(float)
    counts = np.array([1, 3, 2, 1])

    def objective(p):
        r = dbce(p, micro, 0.4, counts)
        return w_dbce * r.dbce_loss + w_normkl * r.norm_kl

    got = dbce(pred, micro, 0.4, counts, w_dbce=w_dbce, w_normkl=w_normkl).grad
    numeric = oracles.central_difference(objective, pred)
    assert oracles.max_rel_error(got, numeric) < 1e-5


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 5.0),
    st.floats(0.0, 5.0),
    st.sampled_from([0.05, 0.3, 1.0]),
)
def test_dbce_grad_is_linear_in_the_weights(seed, w_dbce, w_normkl, tau):
    rng = np.random.default_rng(seed)
    pred = rng.uniform(0.02, 0.98, size=(7, 9))
    micro = (rng.random((5, 9)) < 0.5).astype(float)
    counts = rng.integers(1, 4, size=5)
    grad_loss = dbce(pred, micro, tau, counts, w_dbce=1.0, w_normkl=0.0).grad
    grad_kl = dbce(pred, micro, tau, counts, w_dbce=0.0, w_normkl=1.0).grad
    got = dbce(pred, micro, tau, counts, w_dbce=w_dbce, w_normkl=w_normkl).grad
    want = w_dbce * grad_loss + w_normkl * grad_kl
    assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 6), min_size=1, max_size=8),
    st.integers(1, 9),
    st.integers(2, 12),
    st.sampled_from([0.05, 0.3, 1.0, 2.0]),
)
def test_dbce_counts_equal_repeated_rows(seed, counts, n_t, d, tau):
    """A row with count c scores exactly as c copies of it."""
    rng = np.random.default_rng(seed)
    counts = np.array(counts)
    rows = (rng.random((counts.size, d)) < 0.5).astype(float)
    pred = rng.uniform(0.02, 0.98, size=(n_t, d))
    got = dbce(pred, rows, tau, counts)
    full = dbce(pred, np.repeat(rows, counts, axis=0), tau)
    assert got.dbce_loss == pytest.approx(full.dbce_loss, abs=1e-12)
    assert got.norm_kl == pytest.approx(full.norm_kl, abs=1e-12)
    np.testing.assert_allclose(got.per_row_softmin, full.per_row_softmin, rtol=1e-12)
    for w_dbce, w_normkl in ((1.0, 0.0), (0.0, 1.0)):
        kw = dict(w_dbce=w_dbce, w_normkl=w_normkl)
        a = dbce(pred, rows, tau, counts, **kw).grad
        b = dbce(pred, np.repeat(rows, counts, axis=0), tau, **kw).grad
        # relative to the largest entry: a gradient that is zero in exact
        # arithmetic (one distinct row) is rounding noise in the repeated form
        assert np.abs(a - b).max() <= 1e-9 * max(np.abs(b).max(), 1.0)
    owner = np.repeat(np.arange(counts.size), counts)
    np.testing.assert_allclose(
        got.soft_index, np.bincount(owner, full.soft_index), rtol=1e-12, atol=1e-15
    )


@pytest.mark.parametrize("tau", [0.05, 1.0])
def test_dbce_unit_counts_are_bitwise_the_default(rng, tau):
    pred = rng.uniform(0.02, 0.98, size=(9, 7))
    micro = (rng.random((6, 7)) < 0.5).astype(float)
    for w_dbce, w_normkl in ((1.0, 0.0), (0.0, 1.0)):
        kw = dict(w_dbce=w_dbce, w_normkl=w_normkl)
        a = dbce(pred, micro, tau, **kw)
        b = dbce(pred, micro, tau, np.ones(6, dtype=np.int64), **kw)
        for field in ("dbce_loss", "norm_kl", "soft_index", "per_row_softmin", "grad"):
            assert np.asarray(getattr(a, field)).tobytes() == np.asarray(getattr(b, field)).tobytes()


@pytest.mark.parametrize("tau", [0.05, 1.0])
def test_dbce_loss_only_call_keeps_every_other_bit(rng, tau):
    pred = rng.uniform(0.02, 0.98, size=(9, 7))
    micro = (rng.random((6, 7)) < 0.5).astype(float)
    counts = rng.integers(1, 4, size=6)
    full = dbce(pred, micro, tau, counts, w_dbce=0.5, w_normkl=0.1)
    loss_only = dbce(pred, micro, tau, counts, w_dbce=0.5, w_normkl=0.1, with_grad=False)
    assert full.grad is not None and loss_only.grad is None
    for field in ("dbce_loss", "norm_kl", "soft_index", "per_row_softmin"):
        assert np.asarray(getattr(full, field)).tobytes() == np.asarray(getattr(loss_only, field)).tobytes()


def test_dbce_rejects_bad_counts(rng):
    pred = np.full((2, 3), 0.5)
    micro = np.eye(3)
    for counts in ([1, 2], [1, 0, 2], [1, -1, 1]):
        with pytest.raises(ValueError):
            dbce(pred, micro, 1.0, np.array(counts))


# -- distinct reference rows -------------------------------------------------
# the matcher's rows: ``schema.distinct_rows`` of a table's codes, encoded


def onehot_of_codes(codes, widths):
    return one_hot(codes, np.cumsum([0, *widths[:-1]]), sum(widths))


def assert_distinct_like_the_onehot_rows(codes, widths):
    """The code rows at ``first`` encode to the distinct one-hot rows of the
    whole table, and ``counts`` are theirs, as the earlier sort of whole-row
    one-hot keys finds them."""
    first, counts = distinct_rows(codes)
    want_rows, want_counts = oracles.sorted_key_distinct_rows(onehot_of_codes(codes, widths))
    assert onehot_of_codes(codes[first], widths).tobytes() == want_rows.tobytes()
    assert counts.tolist() == want_counts.tolist()


def test_distinct_rows_keeps_first_occurrence_order():
    codes = np.array([[0, 1], [1, 0], [0, 1], [2, 1], [1, 0], [0, 300]])
    first, counts = distinct_rows(codes)
    assert first.tolist() == [0, 1, 3, 5]
    assert counts.tolist() == [2, 2, 1, 1]


def test_distinct_rows_of_distinct_rows_is_identity(rng):
    codes = rng.permutation(450).reshape(50, 9)
    first, counts = distinct_rows(codes)
    assert first.tolist() == list(range(50))
    assert counts.tolist() == [1] * 50


@pytest.fixture(scope="module")
def census_table(tmp_path_factory):
    out = tmp_path_factory.mktemp("census")
    load_census_module().write_census(out, 3, 4000, 400)
    [table] = load_tables(load_schema(out / "schema.json"),
                          (out / "households.csv", out / "persons.csv"))
    return table


def widths_of(table):
    return [g.width for g in column_layout(table.schema)[0]]


def test_distinct_rows_match_the_onehot_rows_on_desk_and_census(census_table):
    desk = oracle.desk_schema()
    desk_table = restructure(oracle.sample_records(2000, seed=42), desk)
    assert_distinct_like_the_onehot_rows(desk_table.codes, widths_of(desk_table))
    assert distinct_rows(desk_table.codes)[0].size < 200  # desk rows repeat heavily
    assert_distinct_like_the_onehot_rows(census_table.codes, widths_of(census_table))
    person_widths = [v.width for v in census_table.schema.variables]
    assert_distinct_like_the_onehot_rows(census_table.person_codes(), person_widths)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_distinct_rows_match_the_onehot_rows_with_repeats(data):
    widths = data.draw(st.lists(st.integers(1, 300), min_size=1, max_size=6))
    base = np.array(
        data.draw(st.lists(st.tuples(*(st.integers(0, w - 1) for w in widths)), min_size=1, max_size=8))
    )
    picks = data.draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=40))
    assert_distinct_like_the_onehot_rows(base[picks], widths)


@pytest.mark.parametrize("distinct", [4000, 117])
def test_distinct_rows_holds_no_copy_of_census_rows(census_table, distinct):
    """The code dedup of 4,000 census rows allocates less than a quarter of
    their one-hot matrix (11.5 MB): the earlier dedup of the one-hot rows
    traced 33 MB as a sort of whole-row keys and 2 MB as a row hash."""
    codes = census_table.codes[np.random.default_rng(3).permutation(4000) % distinct]
    widths = widths_of(census_table)
    tracemalloc.start()
    try:
        distinct_rows(codes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < codes.shape[0] * sum(widths) * 8 / 4
    assert_distinct_like_the_onehot_rows(codes, widths)


def test_pairwise_mean_bce_matches_bce_rows(rng):
    pred = rng.uniform(0.1, 0.9, size=(3, 4))
    micro = (rng.random((2, 4)) < 0.5).astype(float)
    b = pairwise_mean_bce(pred, micro)
    for i in range(3):
        for j in range(2):
            loss = oracles.brute_bce(pred[i : i + 1], micro[j : j + 1])
            assert b[i, j] == pytest.approx(loss / 4, rel=1e-12)


def test_pairwise_mean_bce_matches_two_products_at_census_width(rng):
    """The one-GEMM identity against the two-product definition on
    clamped, group-softmaxed predictions 360 columns wide."""
    widths = [2, 3, 5, 7, 9, 12, 16] * 6 + [3, 4, 5, 6, 7, 11]
    assert sum(widths) == 360
    # logits up to about +-25 put many entries on the clamp
    logits = rng.normal(scale=8.0, size=(40, 360))
    pred = np.empty_like(logits)
    start = 0
    for w in widths:
        e = np.exp(logits[:, start : start + w])
        pred[:, start : start + w] = e / e.sum(axis=1, keepdims=True)
        start += w
    pred = clamp01(pred)
    micro = random_onehot(rng, 60, widths)
    micro[:5] = (pred[:5] > 0.5).astype(float)  # near-matches as well
    want = -(np.log(pred) @ micro.T + np.log1p(-pred) @ (1.0 - micro).T) / 360
    np.testing.assert_allclose(pairwise_mean_bce(pred, micro), want, rtol=0, atol=1e-12)


# tract rows x distinct microdata rows x columns: the census workload's
# matcher and two smaller ones
MATCHER_SHAPES = {"census": (400, 4000, 360), "desk": (400, 114, 40), "tiny": (12, 40, 30)}


def matcher_inputs(n_t, n, d):
    """Predictions, 0/1 microdata rows and their counts, seeded by ``n``."""
    rng = np.random.default_rng(n)
    pred = 1.0 / (1.0 + np.exp(-3.0 * rng.standard_normal((n_t, d))))
    micro = (rng.random((n, d)) < 0.12).astype(float)
    return pred, micro, rng.integers(1, 4, size=n)


def test_threshold_splits_the_census_matcher_and_not_desk():
    assert 400 * 114 < rowpool.THRESHOLD <= 400 * 4000


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("shape", sorted(MATCHER_SHAPES))
def test_split_matcher_has_the_bits_of_the_one_call_form(monkeypatch, shape, workers):
    """Parked and split over row ranges, the matcher's every output keeps
    the bits of the one-call form at the unparked BLAS thread count."""
    if rowpool.openblas_threads() is None:
        pytest.skip("numpy's OpenBLAS is not found: nothing is split")
    n_t, n, d = MATCHER_SHAPES[shape]
    pred, micro, counts = matcher_inputs(n_t, n, d)
    tau, kw = 0.05, dict(w_dbce=0.5, w_normkl=0.1)
    want = oracles.one_call_dbce(pred, micro, tau, counts, **kw)
    want_b = oracles.one_call_pairwise_mean_bce(pred, micro)
    want_s = oracles.one_call_softmin(want_b, tau, counts)
    monkeypatch.setattr(rowpool, "THRESHOLD", 0)
    monkeypatch.setattr(rowpool, "max_workers", lambda: workers)
    with rowpool.parked(n_t * n):
        assert rowpool.ranges(n_t, n) == min(workers, n_t // 4)
        got = dbce(pred, micro, tau, counts, **kw)
        b = pairwise_mean_bce(pred, micro)
        s = softmin(b, tau, counts)
    fields = ("dbce_loss", "norm_kl", "soft_index", "per_row_softmin", "grad")
    for field, value in zip(fields, want):
        assert np.asarray(getattr(got, field)).tobytes() == np.asarray(value).tobytes(), field
    assert b.tobytes() == want_b.tobytes()
    assert s.tobytes() == want_s.tobytes()


def test_split_matcher_allocates_no_range_sized_temporary(monkeypatch):
    """At the census shape on two ranges, a traced ``dbce`` (tracemalloc
    sees every thread) holds its two tract x microdata matrices and a few
    tract x column arrays, and nothing the size of a range's share of a
    matrix: that alone (6.4 MB) would break the bound."""
    if rowpool.openblas_threads() is None:
        pytest.skip("numpy's OpenBLAS is not found: nothing is split")
    n_t, n, d = MATCHER_SHAPES["census"]
    pred, micro, counts = matcher_inputs(n_t, n, d)
    monkeypatch.setattr(rowpool, "max_workers", lambda: 2)
    with rowpool.parked(n_t * n):
        assert rowpool.ranges(n_t, n) == 2
        tracemalloc.start()
        try:
            dbce(pred, micro, 0.05, counts, w_dbce=0.5, w_normkl=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 2 * n_t * n * 8 + 6 * n_t * d * 8, peak


@pytest.mark.parametrize("shape", [(128, 500, 64), (300, 1500, 200), (40, 60, 40)])
def test_split_matcher_agrees_to_rounding_where_the_blas_moves_bits(monkeypatch, shape):
    """At these shapes OpenBLAS rounds some elements of a one-thread product
    on a range's rows differently from the whole product, so the split
    moves low bits; its outputs still agree with the one-call form."""
    n_t, n, d = shape
    pred, micro, counts = matcher_inputs(n_t, n, d)
    want = oracles.one_call_dbce(pred, micro, 0.05, counts, 0.5, 0.1)
    monkeypatch.setattr(rowpool, "THRESHOLD", 0)
    monkeypatch.setattr(rowpool, "max_workers", lambda: 2)
    with rowpool.parked(n_t * n):
        got = dbce(pred, micro, 0.05, counts, w_dbce=0.5, w_normkl=0.1)
    fields = ("dbce_loss", "norm_kl", "soft_index", "per_row_softmin", "grad")
    for field, value in zip(fields, want):
        np.testing.assert_allclose(getattr(got, field), value, rtol=1e-10, atol=0, err_msg=field)


# -- marginal rmse -----------------------------------------------------------


def _tiny_targets(schema):
    return TargetMarginals(
        {
            "OWN": np.array([0.5, 0.5]),
            "CAR": np.array([0.4, 0.35, 0.25]),
            "AGE": np.array([0.3, 0.5, 0.2]),
            "JOB": np.array([0.4, 0.3, 0.3]),
        },
        n_households=4,
    )


def test_marginal_rmse_zero_when_exact(tiny_schema, tiny_table, tiny_encoded):
    from popsynth.schema import empirical_marginals

    targets = empirical_marginals(tiny_table)
    res = marginal_rmse_loss(tiny_encoded.values, targets, tiny_encoded.groups)
    assert res.loss == pytest.approx(0.0, abs=1e-12)


def test_marginal_rmse_hand_value():
    from popsynth.schema import Schema, Variable

    schema = Schema(
        household_vars=(Variable("H", ("a", "b")),),
        person_vars=(Variable("P", ("x", "NA"), has_na=True),),
        n_window=1,
    )
    groups, _ = column_layout(schema)
    pred = np.array([[0.6, 0.4, 1.0, 0.0], [0.6, 0.4, 1.0, 0.0]])
    targets = TargetMarginals({"H": np.array([0.5, 0.5]), "P": np.array([1.0])}, n_households=2)
    res = marginal_rmse_loss(pred, targets, groups)
    # deviations: (0.1, -0.1, 0) over 3 slots
    assert res.loss == pytest.approx(np.sqrt(0.02 / 3), rel=1e-9)


def test_marginal_rmse_matches_oracle(tiny_schema, rng):
    from conftest import random_simplex_batch

    groups, _ = column_layout(tiny_schema)
    pred = random_simplex_batch(rng, groups, 9)
    targets = _tiny_targets(tiny_schema)
    res = marginal_rmse_loss(pred, targets, groups)
    brute = oracles.brute_marginal_rmse(
        pred,
        targets.proportions,
        targets.proportions,
        [(g.var, g.slot, g.start, g.stop) for g in groups],
    )
    assert res.loss == pytest.approx(brute, rel=1e-10)


def _one_level_schema():
    from popsynth.schema import Schema, Variable

    return Schema(
        household_vars=(Variable("H", ("a", "b", "c")), Variable("ONE", ("only",))),
        person_vars=(
            Variable("P", ("x", "y", "NA"), has_na=True),
            Variable("Q", ("q", "NA"), has_na=True),
        ),
        n_window=3,
    )


MARGINAL_LAYOUTS = {
    "desk": lambda: oracle.desk_schema(),
    "census": lambda: load_census_module().census_schema(),
    "one-level": _one_level_schema,
}


@pytest.mark.parametrize("n_t", [1, 9, 400])
@pytest.mark.parametrize("layout", sorted(MARGINAL_LAYOUTS))
def test_marginal_rmse_has_the_bits_of_the_per_group_form(layout, n_t):
    """Loss, gradient and soft marginals equal the per-group block sums and
    column-slice adds bit for bit: over the desk layout, a census-like one
    (42 groups, each person variable over six slots) and one whose
    variables include a one-level household variable and a one-level
    person variable."""
    from conftest import random_simplex_batch

    schema = MARGINAL_LAYOUTS[layout]()
    groups, _ = column_layout(schema)
    rng = np.random.default_rng(n_t)
    pred = random_simplex_batch(rng, groups, n_t)
    proportions = {v.name: rng.dirichlet(np.ones(len(v.levels)))
                   for v in schema.household_vars + schema.person_vars}
    targets = TargetMarginals(proportions, n_households=n_t)
    res = marginal_rmse_loss(pred, targets, groups)
    loss, grad, marginals = oracles.per_group_marginal_rmse(pred, targets, groups)
    assert np.float64(res.loss).tobytes() == np.float64(loss).tobytes()
    assert res.grad.shape == pred.shape and res.grad.tobytes() == grad.tobytes()
    assert list(res.marginals) == list(marginals)
    assert all(res.marginals[v].tobytes() == marginals[v].tobytes() for v in marginals)


def test_marginal_rmse_row_shuffle_invariant(tiny_schema, rng):
    from conftest import random_simplex_batch

    groups, _ = column_layout(tiny_schema)
    pred = random_simplex_batch(rng, groups, 8)
    targets = _tiny_targets(tiny_schema)
    a = marginal_rmse_loss(pred, targets, groups).loss
    b = marginal_rmse_loss(pred[rng.permutation(8)], targets, groups).loss
    assert a == pytest.approx(b, rel=1e-12)


def test_marginal_rmse_gradient_through_na_ratio(tiny_schema, rng):
    from conftest import random_simplex_batch

    groups, _ = column_layout(tiny_schema)
    pred = random_simplex_batch(rng, groups, 5)
    targets = _tiny_targets(tiny_schema)
    res = marginal_rmse_loss(pred, targets, groups)
    numeric = oracles.central_difference(
        lambda p: marginal_rmse_loss(p, targets, groups).loss, pred, step=1e-6
    )
    assert oracles.max_rel_error(res.grad, numeric, floor=1e-4) < 1e-4


@pytest.mark.parametrize("var", ["CAR", "AGE"])
def test_marginal_rmse_rejects_target_of_wrong_length(tiny_schema, rng, var):
    from conftest import random_simplex_batch

    groups, _ = column_layout(tiny_schema)
    targets = _tiny_targets(tiny_schema)
    targets.proportions[var] = targets.proportions[var][:-1]
    with pytest.raises(ValueError, match=f"target for '{var}' has 2 levels"):
        marginal_rmse_loss(random_simplex_batch(rng, groups, 4), targets, groups)


def test_marginal_rmse_rejects_all_na(tiny_schema):
    groups, d = column_layout(tiny_schema)
    pred = np.zeros((3, d))
    for g in groups:
        pred[:, g.stop - 1 if g.slot is not None else g.start] = 1.0
    with pytest.raises(ValueError):
        marginal_rmse_loss(pred, _tiny_targets(tiny_schema), groups)
