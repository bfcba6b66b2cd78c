import math
import tracemalloc

import numpy as np
import pytest

import oracles
from popsynth import oracle
from popsynth.nn import (
    Affine,
    BatchNorm,
    Chain,
    GroupSoftmax,
    Relu,
    reparameterize,
    reparameterize_backward,
    update_running,
)
from popsynth.vae import VaeHyperparams, VaeModel


def layer_input_grad(layer, x, train=True):
    """Analytic input gradient of sum(forward(x)) via backward of ones."""
    y = layer.forward(x, train=train)
    return layer.backward(np.ones_like(y))


def fd_ok(layer, x, train=True, tol=1e-5):
    dx = layer_input_grad(layer, x, train=train)
    numeric = oracles.central_difference(
        lambda v: float(layer.forward(v, train=train).sum()), x
    )
    return oracles.max_rel_error(dx, numeric) < tol


def test_affine_forward_is_linear(rng):
    layer = Affine(3, 2, rng, "a")
    x = rng.normal(size=(4, 3))
    y = layer.forward(x)
    np.testing.assert_allclose(y, x @ layer.w.value.T + layer.b.value, atol=1e-12)


def test_affine_input_gradient(rng):
    assert fd_ok(Affine(4, 3, rng, "a"), rng.normal(size=(5, 4)))


def test_affine_param_gradients(rng):
    layer = Affine(3, 2, rng, "a")
    x = rng.normal(size=(6, 3))
    y = layer.forward(x)
    layer.backward(np.ones_like(y))
    w0 = layer.w.value.copy()

    def loss_of_w(w):
        layer.w.value = w
        out = float(layer.forward(x).sum())
        layer.w.value = w0
        return out

    numeric = oracles.central_difference(loss_of_w, w0)
    assert oracles.max_rel_error(layer.w.grad, numeric) < 1e-6
    np.testing.assert_allclose(layer.b.grad, np.full(2, 6.0), atol=1e-9)


def test_affine_without_bias(rng):
    layer = Affine(3, 2, rng, "a", bias=False)
    x = rng.normal(size=(4, 3))
    assert layer.b is None and layer.params() == [layer.w]
    assert layer.forward(x).tobytes() == (x @ layer.w.value.T).tobytes()
    dy = rng.normal(size=(4, 2))
    assert layer.backward(dy).tobytes() == (dy @ layer.w.value).tobytes()
    assert layer.w.grad.tobytes() == (dy.T @ x).tobytes()
    assert fd_ok(Affine(4, 3, rng, "a", bias=False), rng.normal(size=(5, 4)))


def test_relu_masks_negative(rng):
    x = np.array([[-1.0, 0.5], [2.0, -3.0]])
    layer = Relu()
    np.testing.assert_array_equal(layer.forward(x), [[0.0, 0.5], [2.0, 0.0]])
    dx = layer.backward(np.ones((2, 2)))
    np.testing.assert_array_equal(dx, [[0.0, 1.0], [1.0, 0.0]])


def relu_input(rng, shape):
    """Normal values with exact zeros and a NaN among them: dead, live and
    boundary units."""
    x = rng.normal(size=shape)
    x[rng.random(shape) < 0.1] = 0.0
    x.flat[0] = np.nan
    return x


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("shape", [(1, 1), (7, 5), (125, 48), (400, 48), (513, 33)])
def test_relu_backward_has_the_bits_of_the_masked_select(train, shape):
    """For every finite dy the mask product equals the masked select, in
    both modes, and has its bits at every live unit; at a dead unit it is
    a zero of dy's sign."""
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    layer = Relu()
    layer.forward(relu_input(rng, shape), train=train)
    dy = rng.normal(size=shape)
    dy[rng.random(shape) < 0.1] = 0.0
    dy[rng.random(shape) < 0.1] = -0.0
    assert (layer._ctx.dtype == bool) != train
    want = oracles.where_relu_backward(layer._ctx, dy)
    got = layer.backward(dy)
    assert (got == want).all()
    live = layer._ctx > 0
    assert got[live].tobytes() == want[live].tobytes()
    assert (np.signbit(got[~live]) == np.signbit(dy[~live])).all()


@pytest.mark.parametrize("train", [True, False])
def test_relu_backward_differs_from_the_select_only_as_documented(train):
    """The differences from ``where(x > 0, dy, 0.0)``: a negative dy at a
    dead unit gives -0.0, not 0.0, and a non-finite dy at a dead unit gives
    NaN, not 0.0, so a divergence upstream cannot be masked away. A -0.0 dy
    at a live unit stays -0.0 in both."""
    layer = Relu()
    layer.forward(np.array([[1.0, -1.0, -1.0, -1.0, 0.0, np.nan, -1.0]]), train=train)
    dy = np.array([[-0.0, np.inf, -np.inf, np.nan, np.inf, -0.0, -2.5]])
    with np.errstate(invalid="ignore"):  # inf * 0
        dx = layer.backward(dy)
    want = oracles.where_relu_backward(layer._ctx, dy)
    neg_zero = np.float64(-0.0).tobytes()
    assert dx[0, 0].tobytes() == want[0, 0].tobytes() == neg_zero
    assert np.isnan(dx[0, 1:5]).all() and (want[0, 1:5] == 0.0).all()
    assert dx[0, 5].tobytes() == dx[0, 6].tobytes() == neg_zero
    assert want[0, 5].tobytes() == want[0, 6].tobytes() == np.float64(0.0).tobytes()


def test_batchnorm_train_normalizes(rng):
    layer = BatchNorm(3)
    x = rng.normal(loc=5.0, scale=3.0, size=(64, 3))
    y = layer.forward(x, train=True)
    np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(y.std(axis=0), 1.0, atol=1e-6)


def test_batchnorm_eval_uses_running_stats(rng):
    layer = BatchNorm(2)
    for _ in range(200):
        layer.forward(rng.normal(loc=2.0, size=(32, 2)), train=True)
        update_running(layer.running, layer.batch, layer.is_var, 32)
    x = np.array([[2.0, 2.0]])
    y = layer.forward(x, train=False)
    np.testing.assert_allclose(y, 0.0, atol=0.2)


def test_batchnorm_eval_is_deterministic_row_local(rng):
    layer = BatchNorm(2)
    layer.forward(rng.normal(size=(16, 2)), train=True)
    update_running(layer.running, layer.batch, layer.is_var, 16)
    x = rng.normal(size=(4, 2))
    y_full = layer.forward(x, train=False)
    y_row = np.vstack([layer.forward(x[i : i + 1], train=False) for i in range(4)])
    np.testing.assert_allclose(y_full, y_row, atol=1e-12)


def test_batchnorm_rejects_single_row_training():
    with pytest.raises(ValueError):
        BatchNorm(2).forward(np.zeros((1, 2)), train=True)


def test_batchnorm_train_gradient(rng):
    layer = BatchNorm(3)
    x = rng.normal(size=(8, 3))
    # sum of outputs is invariant to input mean shifts; use a curved readout
    w = rng.normal(size=3)

    def f(v):
        return float((layer.forward(v, train=True) ** 2 @ w).sum())

    y = layer.forward(x, train=True)
    dx = layer.backward(2 * y * w)
    numeric = oracles.central_difference(f, x)
    assert oracles.max_rel_error(dx, numeric, floor=1e-4) < 1e-4


def test_batchnorm_eval_gradient(rng):
    layer = BatchNorm(3)
    layer.forward(rng.normal(size=(32, 3)), train=True)
    update_running(layer.running, layer.batch, layer.is_var, 32)
    x = rng.normal(size=(5, 3))
    assert fd_ok(layer, x, train=False)


def textbook_batchnorm(layer, x, dy, train):
    """BatchNorm forward and backward in their textbook form. Returns
    (y, dx, running_mean, running_var, scale_grad, shift_grad) and leaves
    ``layer`` untouched."""
    eps, m = BatchNorm.EPS, BatchNorm.MOMENTUM
    scale, shift = layer.scale.value, layer.shift.value
    running_mean, running_var = layer.running_mean.copy(), layer.running_var.copy()
    if train:
        n = x.shape[0]
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (x - mean) * inv_std
        running_mean = (1 - m) * running_mean + m * mean
        running_var = (1 - m) * running_var + m * var * n / (n - 1)
    else:
        inv_std = 1.0 / np.sqrt(running_var + eps)
        xhat = (x - running_mean) * inv_std
    y = xhat * scale + shift
    if train:
        dx = (dy - dy.sum(axis=0) / n - xhat * ((dy * xhat).sum(axis=0) / n)) * (scale * inv_std)
    else:
        dx = dy * scale * inv_std
    return y, dx, running_mean, running_var, (dy * xhat).sum(axis=0), dy.sum(axis=0)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_batchnorm_matches_the_textbook_form_bit_for_bit():
    rng = np.random.default_rng(7)

    for trial in range(400):
        n = 2 if trial % 5 == 0 else int(rng.integers(2, 300))
        width = int(rng.integers(1, 70))
        train = trial % 2 == 0
        layer = BatchNorm(width)
        layer.scale.value[...] = rng.normal(size=width)
        layer.shift.value[...] = rng.normal(size=width)
        layer.running_mean[...] = rng.normal(size=width)
        layer.running_var[...] = rng.uniform(0.1, 3.0, size=width)
        x = rng.normal(loc=rng.normal(scale=5.0), scale=rng.uniform(0.01, 10.0), size=(n, width))
        if trial % 7 == 0:
            x = np.asfortranarray(x)
        dy = rng.normal(size=(n, width))
        want = textbook_batchnorm(layer, x, dy, train)
        y = layer.forward(x, train=train)
        if train:
            update_running(layer.running, layer.batch, layer.is_var, n)
        got = (
            y,
            layer.backward(dy),
            layer.running_mean,
            layer.running_var,
            layer.scale.grad,
            layer.shift.grad,
        )
        if not train:  # eval mode is frozen: no parameter gradient
            want = (*want[:4], np.zeros(width), np.zeros(width))
        labels = ("y", "dx", "running_mean", "running_var", "dscale", "dshift")
        for label, a, b in zip(labels, got, want):
            assert same_bits(a, b), (trial, n, width, train, label)


def held_arrays(layer):
    """The arrays that a layer holds outside its Params, tuples unpacked."""

    def arrays(value):
        if isinstance(value, np.ndarray):
            return [value]
        if isinstance(value, tuple):
            return [a for item in value for a in arrays(item)]
        return []

    return [a for value in vars(layer).values() for a in arrays(value)]


def test_eval_mode_keeps_only_input_gradient_state(rng):
    affine, bn, relu = Affine(5, 4, rng, "a"), BatchNorm(4), Relu()
    bn.scale.value[...] = rng.normal(size=4)
    bn.forward(rng.normal(size=(8, 4)), train=True)
    x = rng.normal(size=(6, 5))
    y = relu.forward(bn.forward(affine.forward(x, train=False), train=False), train=False)
    assert held_arrays(affine) == []
    # per-feature vectors only: the [mean, var] statistics, their variance
    # mask and inv_std, nothing with the batch's rows
    assert all(a.shape in ((4,), (8,)) for a in held_arrays(bn))
    [mask] = held_arrays(relu)
    assert mask.dtype == bool and mask.shape == y.shape
    dx = affine.backward(bn.backward(relu.backward(rng.normal(size=y.shape))))
    assert dx.shape == x.shape and np.isfinite(dx).all()
    for p in affine.params() + bn.params():
        assert same_bits(p.grad, np.zeros_like(p.grad)), p.name


def test_eval_backward_of_a_model_leaves_every_gradient_zero(rng):
    model = VaeModel(oracle.desk_schema(), VaeHyperparams(3, (12, 12, 10, 10, 8, 8)))
    model.encode(rng.random((16, model.d)), train=True)  # running statistics move
    z = rng.normal(size=(5, 3))
    probs = model.decode(z, train=False)
    dz = model.decode_backward(rng.normal(size=probs.shape))
    mu, logsig = model.encode(probs, train=False)
    dx = model.encode_backward(rng.normal(size=mu.shape), rng.normal(size=logsig.shape))
    assert dz.shape == z.shape and dx.shape == probs.shape
    assert same_bits(model.flat.grad, np.zeros_like(model.flat.grad))


def test_eval_decode_holds_little_more_than_its_output():
    """An eval decode of 8,000 rows of a desk-shaped model stays under the
    traced bound of its output, three of the widest activations
    (GroupSoftmax's input and its two transposed copies, or a BatchNorm's
    input, xhat and output) and one byte per hidden value for the Relu masks.
    A decode that kept every layer's backward cache would need nearly three
    times as much."""
    widths = (48, 48, 40, 40, 32, 32)  # the desk recipe
    model = VaeModel(oracle.desk_schema(), VaeHyperparams(3, widths))
    n = 8000
    z = np.random.default_rng(0).standard_normal((n, 3))
    model.decode(z[:100])  # first-call allocations are not the decode's
    bound = 8 * n * model.d + 3 * 8 * n * max(model.d, *widths) + n * sum(widths)
    tracemalloc.start()
    try:
        probs = model.decode(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert probs.shape == (n, model.d)
    assert peak < bound, (peak, bound)


@pytest.mark.parametrize(
    "make, train",
    [
        (lambda rng: Affine(5, 3, rng, "a"), True),
        (lambda rng: BatchNorm(5), True),
        (lambda rng: BatchNorm(5), False),
        (lambda rng: Relu(), True),
        (lambda rng: GroupSoftmax([(0, 2), (2, 5)]), True),
    ],
    ids=["affine", "batchnorm-train", "batchnorm-eval", "relu", "group-softmax"],
)
def test_layers_write_neither_input_nor_dy_nor_their_cache(rng, make, train):
    layer = make(rng)
    if isinstance(layer, BatchNorm):
        layer.scale.value[...] = rng.normal(size=5)
        layer.forward(rng.normal(size=(8, 5)), train=True)
        update_running(layer.running, layer.batch, layer.is_var, 8)
    x = rng.normal(size=(6, 5))
    x_before = x.copy()
    y = layer.forward(x, train=train)
    np.testing.assert_array_equal(x, x_before)
    dy = rng.normal(size=y.shape)
    dy_before = dy.copy()
    first = layer.backward(dy)
    np.testing.assert_array_equal(dy, dy_before)
    np.testing.assert_array_equal(layer.backward(dy), first)


def test_group_softmax_blocks_are_simplex(rng):
    layer = GroupSoftmax([(0, 3), (3, 5)])
    y = layer.forward(rng.normal(size=(6, 5)))
    np.testing.assert_allclose(y[:, 0:3].sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(y[:, 3:5].sum(axis=1), 1.0, atol=1e-12)
    assert np.all(y > 0)


def test_group_softmax_stable_at_large_logits():
    layer = GroupSoftmax([(0, 2)])
    y = layer.forward(np.array([[1000.0, 0.0]]))
    assert np.isfinite(y).all()
    assert y[0, 0] == pytest.approx(1.0)


def stacked(blocks):
    """The ``(n, w)`` blocks as one C-ordered ``(w, k, n)`` array; np.stack
    alone would keep the transposes' column order."""
    return np.ascontiguousarray(np.stack([b.T for b in blocks], axis=1))


def textbook_group_softmax(slices, x, dy):
    """GroupSoftmax forward and input gradient: ``exp`` one group at a time,
    each sum numpy's ``sum(axis=0)`` over the groups of one width stacked as
    ``(w, k, n)``, the layout whose iteration order the layer's sums take."""
    by_width = {}
    for start, stop in sorted(slices):
        by_width.setdefault(stop - start, []).append(start)
    y = np.empty_like(x)
    dx = np.empty_like(dy)
    for w, starts in by_width.items():
        blocks = [x[:, s : s + w] for s in starts]
        e = stacked([np.exp(b - b.max(axis=1, keepdims=True)) for b in blocks])
        p = e / e.sum(axis=0)
        g = stacked([dy[:, s : s + w] for s in starts])
        gp_sum = (g * p).sum(axis=0)
        for i, s in enumerate(starts):
            y[:, s : s + w] = p[:, i].T
            dx[:, s : s + w] = (p[:, i] * (g[:, i] - gp_sum[i])).T
    return y, dx


def test_group_softmax_matches_the_textbook_form_bit_for_bit():
    """Widths 1-20 cover numpy's sequential (< 8) and eight-accumulator sums,
    127-130 and 257 its split above 128, single rows its pairwise sum over a
    ``(w, 1, 1)`` block; zeros of both signs in dy and underflowing
    probabilities pin the sign of every zero sum."""
    rng = np.random.default_rng(11)
    wide = (127, 128, 129, 130, 257)
    for trial in range(400):
        n = 1 if trial % 9 == 0 else int(rng.integers(1, 301))
        palette = rng.integers(1, 21, size=int(rng.integers(1, 5)))
        if trial % 10 == 0:
            palette = np.append(palette, rng.choice(wide))
        widths = rng.choice(palette, size=int(rng.integers(1, 13)))
        stops = np.cumsum(widths)
        slices = [(int(b - w), int(b)) for w, b in zip(widths, stops)]
        rng.shuffle(slices)
        d = int(stops[-1])
        x = rng.normal(scale=rng.choice([0.1, 3.0, 400.0]), size=(n, d))
        dy = rng.normal(size=(n, d))
        dy[rng.uniform(size=dy.shape) < 0.3] = 0.0
        dy[rng.uniform(size=dy.shape) < 0.3] = -0.0
        if trial % 4 == 1:
            start, stop = slices[0]
            dy[:, start:stop] = np.where(rng.uniform(size=(n, stop - start)) < 0.5, -0.0, 0.0)
        if trial % 8 == 3:
            bad = rng.uniform(size=x.shape) < 0.02
            x[bad] = rng.choice([np.nan, np.inf, -np.inf], size=int(bad.sum()))
        layer = GroupSoftmax(slices)
        with np.errstate(invalid="ignore"):
            want = textbook_group_softmax(slices, x, dy)
            got = (layer.forward(x), layer.backward(dy))
        for label, a, b in zip(("y", "dx"), got, want):
            nan = np.isnan(b)
            assert np.array_equal(np.isnan(a), nan), (trial, label)
            assert same_bits(np.where(nan, 0.0, a), np.where(nan, 0.0, b)), (trial, label)


def test_group_softmax_rejects_gap():
    with pytest.raises(ValueError):
        GroupSoftmax([(0, 2), (3, 5)])


def test_group_softmax_rejects_no_groups():
    with pytest.raises(ValueError, match="no groups"):
        GroupSoftmax([])


def test_group_softmax_rejects_width_mismatch():
    with pytest.raises(ValueError):
        GroupSoftmax([(0, 2), (2, 5)]).forward(np.zeros((1, 6)))


def test_group_softmax_gradient(rng):
    layer = GroupSoftmax([(0, 2), (2, 5)])
    x = rng.normal(size=(4, 5))
    w = rng.normal(size=5)

    def f(v):
        return float((layer.forward(v) @ w).sum())

    y = layer.forward(x)
    dx = layer.backward(np.tile(w, (4, 1)))
    numeric = oracles.central_difference(f, x)
    assert oracles.max_rel_error(dx, numeric, floor=1e-4) < 1e-4


def test_chain_backward_reverses_layers(rng):
    chain = Chain([Affine(4, 6, rng, "a1"), Relu(), Affine(6, 2, rng, "a2")])
    x = rng.normal(size=(5, 4))
    assert fd_ok(chain, x)
    assert len([p for layer in chain.layers for p in layer.params()]) == 4


def test_reparameterize_is_mu_plus_scaled_noise(rng):
    mu = rng.normal(size=(3, 4))
    logsig = rng.normal(size=(3, 4))
    eps = rng.normal(size=(3, 4))
    z_std = reparameterize(mu, logsig, eps)
    np.testing.assert_allclose(z_std, mu + eps * np.exp(0.5 * logsig), atol=1e-12)


def test_reparameterize_variance_is_exp_logsig():
    """logsig is the log-variance that ``losses.latent_kl`` assumes."""
    shape = (100_000, 1)
    eps = np.random.default_rng(0).standard_normal(shape)
    z = reparameterize(np.zeros(shape), np.full(shape, math.log(4.0)), eps)
    assert abs(z.var() / 4.0 - 1.0) < 0.01


def test_reparameterize_gradients(rng):
    mu = rng.normal(size=(3, 4))
    logsig = rng.normal(scale=0.3, size=(3, 4))
    eps = rng.normal(size=(3, 4))
    w = rng.normal(size=(3, 4))

    dz = w
    d_mu, d_logsig = reparameterize_backward(dz, logsig, eps)
    n_mu = oracles.central_difference(
        lambda m: float((reparameterize(m, logsig, eps) * w).sum()), mu
    )
    n_ls = oracles.central_difference(
        lambda s: float((reparameterize(mu, s, eps) * w).sum()), logsig
    )
    assert oracles.max_rel_error(d_mu, n_mu) < 1e-6
    assert oracles.max_rel_error(d_logsig, n_ls) < 1e-6


def test_central_difference_flags_wrong_gradient(rng):
    x0 = rng.normal(size=(3, 3))
    numeric = oracles.central_difference(lambda x: float((x**2).sum()), x0)
    assert oracles.max_rel_error(2 * x0, numeric) < 1e-6
    assert oracles.max_rel_error(2.5 * x0, numeric) > 0.1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gradient_checker_rejects_a_non_finite_gradient(rng, bad):
    x0 = rng.normal(size=4)

    def f(x):
        grad = 2 * x
        grad[1] = bad
        return float((x**2).sum()), grad

    with pytest.raises(FloatingPointError):
        oracles.worst_rel_error(f, x0)


def test_gradient_checker_rejects_a_non_finite_value(rng):
    x0 = rng.normal(size=4)
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(FloatingPointError):
        oracles.worst_rel_error(lambda x: (float(np.log(x[0] - x0[0])), x), x0)
    # and a value that turns non-finite at a perturbed point only
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
        oracles.worst_rel_error(
            lambda x: (float(np.log(x[0] - x0[0] + 5e-6)), x), x0
        )
