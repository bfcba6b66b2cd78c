import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from popsynth.losses import (
    FocalParams,
    bce_loss,
    clamp01,
    dbce,
    focal_loss,
    latent_kl,
    marginal_rmse_loss,
    pairwise_mean_bce,
    softmin,
)
from popsynth.schema import TargetMarginals, column_layout


def random_onehot(rng, n, widths):
    cols = sum(widths)
    x = np.zeros((n, cols))
    start = 0
    for w in widths:
        x[np.arange(n), start + rng.integers(0, w, size=n)] = 1.0
        start += w
    return x


# -- bce ---------------------------------------------------------------------


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
        f, _ = focal_loss(pred, target, FocalParams(alpha=0.5, gamma=0.0))
        b, _ = bce_loss(pred, target)
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
    b_raw, _ = bce_loss(np.array([[0.999]]), t)
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
    b, _ = bce_loss(pred, micro)
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
    res = dbce(pred, micro, temperature=0.8)
    n_loss = oracles.central_difference(
        lambda p: dbce(p, micro, temperature=0.8).dbce_loss, pred
    )
    n_kl = oracles.central_difference(
        lambda p: dbce(p, micro, temperature=0.8).norm_kl, pred
    )
    assert oracles.max_rel_error(res.grad_dbce, n_loss) < 1e-5
    assert oracles.max_rel_error(res.grad_norm_kl, n_kl) < 1e-5


def test_pairwise_mean_bce_matches_bce_rows(rng):
    pred = rng.uniform(0.1, 0.9, size=(3, 4))
    micro = (rng.random((2, 4)) < 0.5).astype(float)
    b = pairwise_mean_bce(pred, micro)
    for i in range(3):
        for j in range(2):
            loss, _ = bce_loss(pred[i : i + 1], micro[j : j + 1])
            assert b[i, j] == pytest.approx(loss / 4, rel=1e-12)


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
