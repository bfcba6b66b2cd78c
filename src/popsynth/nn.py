"""Small differentiable-computation core.

Forward passes cache whatever their hand-derived backward pass needs; a
backward call must follow the forward call it differentiates. ``Chain`` runs
layers in order and replays them in exact reverse for the backward pass,
accumulating parameter gradients additively into each ``Param``. No general
autodiff: the primitive set is closed (affine, batch norm, ReLU, group
softmax, reparameterisation) and every gradient is checked against central
finite differences in the test suite. A layer may reuse in place only arrays
it allocated itself: its input, the ``dy`` it is handed and the activations it
cached are never written.
"""

from __future__ import annotations

import math

import numpy as np

class Param:
    """A trainable array with an additively accumulated gradient."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, value: np.ndarray, name: str):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


def glorot_uniform(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim))


class Affine:
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, name: str):
        if in_dim < 1 or out_dim < 1:
            raise ValueError("affine dimensions must be >= 1")
        self.name = name
        self.w = Param(glorot_uniform(rng, out_dim, in_dim), f"{name}.w")
        self.b = Param(np.zeros(out_dim), f"{name}.b")
        self._x = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if x.shape[1] != self.w.value.shape[1]:
            raise ValueError(
                f"{self.name}: input width {x.shape[1]} != {self.w.value.shape[1]}"
            )
        self._x = x
        y = x @ self.w.value.T
        y += self.b.value
        return y

    def backward(self, dy: np.ndarray, with_params: bool = True) -> np.ndarray:
        if with_params:
            self.w.grad += dy.T @ self._x
            self.b.grad += dy.sum(axis=0)
        return dy @ self.w.value

    def params(self) -> list[Param]:
        return [self.w, self.b]


class BatchNorm:
    """Batch normalisation with learned scale/shift and running statistics.

    Train mode normalises by biased batch variance and updates the running
    statistics (unbiased variance) with momentum ``MOMENTUM``; eval mode
    normalises by the running statistics. Both modes are differentiable.
    """

    EPS = 1e-5
    MOMENTUM = 0.1

    def __init__(self, dim: int, name: str = "bn"):
        self.name = name
        self.scale = Param(np.ones(dim), f"{name}.scale")
        self.shift = Param(np.zeros(dim), f"{name}.shift")
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
        self._ctx = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if train:
            n = x.shape[0]
            if n < 2:
                raise ValueError(f"{self.name}: train mode needs a batch of >= 2 rows")
            mean = x.sum(axis=0) / n
            xhat = x - mean
            var = (xhat * xhat).sum(axis=0) / n
            inv_std = 1.0 / np.sqrt(var + self.EPS)
            xhat *= inv_std
            m = self.MOMENTUM
            # in place: the statistics may be views into a model's state vector
            self.running_mean[...] = (1 - m) * self.running_mean + m * mean
            self.running_var[...] = (1 - m) * self.running_var + m * var * n / (n - 1)
        else:
            inv_std = 1.0 / np.sqrt(self.running_var + self.EPS)
            xhat = x - self.running_mean
            xhat *= inv_std
        self._ctx = (xhat, inv_std, train)
        y = xhat * self.scale.value
        y += self.shift.value
        return y

    def backward(self, dy: np.ndarray, with_params: bool = True) -> np.ndarray:
        xhat, inv_std, train = self._ctx
        if with_params:
            self.scale.grad += (dy * xhat).sum(axis=0)
            self.shift.grad += dy.sum(axis=0)
        dxhat = dy * self.scale.value
        if not train:
            dxhat *= inv_std
            return dxhat
        # inv_std / n * (n * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat)),
        # built in dxhat with the same rounding
        n = dy.shape[0]
        sum_dxhat = dxhat.sum(axis=0)
        proj = (dxhat * xhat).sum(axis=0)
        dxhat *= n
        dxhat -= sum_dxhat
        dxhat -= xhat * proj
        dxhat *= inv_std / n
        return dxhat

    def params(self) -> list[Param]:
        return [self.scale, self.shift]


class Relu:
    def __init__(self, name: str = "relu"):
        self.name = name
        self._mask = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        self._mask = x > 0
        # np.maximum keeps NaN, so divergence stays visible downstream
        return np.maximum(x, 0.0)

    def backward(self, dy: np.ndarray, with_params: bool = True) -> np.ndarray:
        return np.where(self._mask, dy, 0.0)

    def params(self) -> list[Param]:
        return []


class GroupSoftmax:
    """Independent softmax over each (start, stop) column slice."""

    def __init__(self, slices: list[tuple[int, int]], name: str = "gsoftmax"):
        for start, stop in slices:
            if stop <= start:
                raise ValueError(f"{name}: empty group ({start}, {stop})")
        ordered = sorted(slices)
        if any(a[1] != b[0] for a, b in zip(ordered, ordered[1:])) or (
            ordered and ordered[0][0] != 0
        ):
            raise ValueError(f"{name}: slices must tile the row without gaps")
        self.name = name
        self.slices = [(int(a), int(b)) for a, b in slices]
        self.width = ordered[-1][1] if ordered else 0
        self._probs = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if x.shape[1] != self.width:
            raise ValueError(
                f"{self.name}: input width {x.shape[1]} != slice cover {self.width}"
            )
        out = np.empty_like(x)
        for start, stop in self.slices:
            block = x[:, start:stop]
            shifted = block - block.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            out[:, start:stop] = e / e.sum(axis=1, keepdims=True)
        self._probs = out
        return out

    def backward(self, dy: np.ndarray, with_params: bool = True) -> np.ndarray:
        p = self._probs
        dx = np.empty_like(dy)
        for start, stop in self.slices:
            pb = p[:, start:stop]
            dyb = dy[:, start:stop]
            dx[:, start:stop] = pb * (dyb - (dyb * pb).sum(axis=1, keepdims=True))
        return dx

    def params(self) -> list[Param]:
        return []


class Chain:
    """Fixed layer sequence; backward replays the layers in reverse order."""

    def __init__(self, layers: list):
        self.layers = list(layers)

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def backward(self, dy: np.ndarray, with_params: bool = True) -> np.ndarray:
        for layer in reversed(self.layers):
            dy = layer.backward(dy, with_params=with_params)
        return dy

    def params(self) -> list[Param]:
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out


# ---------------------------------------------------------------------------
# reparameterisation


def reparameterize(mu: np.ndarray, logsig: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Draw latents ``mu + noise * exp(0.5 * logsig)`` with externally
    supplied noise: ``logsig`` is a log-variance, as in ``losses.latent_kl``."""
    if not (mu.shape == logsig.shape == noise.shape):
        raise ValueError("mu, logsig and noise must have identical shapes")
    return mu + noise * np.exp(0.5 * logsig)


def reparameterize_backward(
    dz: np.ndarray, logsig: np.ndarray, noise: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    return dz, dz * noise * 0.5 * np.exp(0.5 * logsig)


# ---------------------------------------------------------------------------
# gradient verification


def check_gradients(
    f,
    x0: np.ndarray,
    step: float = 1e-5,
    max_coords: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error between f's analytic gradient and central differences.

    ``f`` maps a flat float64 vector to ``(value, gradient)`` and must be
    deterministic (fix any noise outside). When ``max_coords`` is given, a
    random subset of coordinates is probed (seeded via ``rng``).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    value, grad = f(x0)
    grad = np.asarray(grad, dtype=np.float64).ravel()
    if not np.isfinite(value) or not np.all(np.isfinite(grad)):
        raise FloatingPointError("non-finite value or gradient at the base point")
    coords = np.arange(x0.size)
    if max_coords is not None and max_coords < x0.size:
        rng = rng or np.random.default_rng(0)
        coords = rng.choice(x0.size, size=max_coords, replace=False)
    worst = 0.0
    for i in coords:
        xp = x0.copy()
        xp[i] += step
        vp, _ = f(xp)
        xm = x0.copy()
        xm[i] -= step
        vm, _ = f(xm)
        if not (np.isfinite(vp) and np.isfinite(vm)):
            raise FloatingPointError(f"non-finite perturbed value at coordinate {i}")
        numeric = (vp - vm) / (2 * step)
        denom = max(abs(grad[i]), abs(numeric), 1e-6)
        worst = max(worst, abs(grad[i] - numeric) / denom)
    return worst
