"""Small differentiable-computation core.

A backward call must follow the forward call it differentiates, whose
``train`` flag is the one mode switch. Train mode uses batch statistics and
its backward sets each ``Param``'s gradient to that backward's own, written in
place, so no step needs the gradients zeroed first: ``Affine`` caches its
input, ``BatchNorm`` ``xhat`` and ``inv_std``. A train-mode ``BatchNorm``
forward writes its batch mean and variance to its ``batch`` vector and leaves
its running statistics alone: the caller folds them in with
``update_running``, which ``VaeModel.update_running_stats`` calls once per
step for a whole model. Eval mode is frozen, with running statistics and a
backward that returns only the input gradient: ``Affine`` caches nothing,
``BatchNorm`` only ``inv_std``. ``Relu`` caches its output in train mode and a
boolean mask in eval mode, and ``GroupSoftmax`` its output in both. ``Relu``'s
backward is the one product of ``dy`` and that mask, so a non-finite ``dy`` at
a dead unit comes out as NaN rather than being masked to ``0.0``, and the
training loops' gradient checks see it. ``GroupSoftmax`` takes its group sums
with numpy's own ``sum(axis=0)``, one call per width class. No general
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
    """A trainable array and its gradient. A train-mode backward sets the
    gradient, overwriting the last one in place; it never adds to it."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, value: np.ndarray, name: str):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)


def glorot_uniform(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim))


class Affine:
    """``x @ w.T + b``. ``bias=False`` drops ``b``, for a layer whose output
    a batch norm centres, which cancels any bias."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, name: str,
                 bias: bool = True):
        if in_dim < 1 or out_dim < 1:
            raise ValueError("affine dimensions must be >= 1")
        self.name = name
        self.w = Param(glorot_uniform(rng, out_dim, in_dim), f"{name}.w")
        self.b = Param(np.zeros(out_dim), f"{name}.b") if bias else None
        self._x = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if x.shape[1] != self.w.value.shape[1]:
            raise ValueError(
                f"{self.name}: input width {x.shape[1]} != {self.w.value.shape[1]}"
            )
        self._x = x if train else None
        y = x @ self.w.value.T
        if self.b is not None:
            y += self.b.value
        return y

    def backward(self, dy: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """The input gradient, or None when ``input_grad`` is False."""
        if self._x is not None:  # train mode
            np.matmul(dy.T, self._x, out=self.w.grad)
            if self.b is not None:
                np.add.reduce(dy, axis=0, out=self.b.grad)
        return dy @ self.w.value if input_grad else None

    def params(self) -> list[Param]:
        return [self.w] if self.b is None else [self.w, self.b]


class BatchNorm:
    """Batch normalisation with learned scale/shift and running statistics.

    Train mode normalises by biased batch variance and writes the batch mean
    and variance to ``batch``; eval mode normalises by the running
    statistics. Both modes are differentiable. ``running`` and ``batch`` are
    ``[mean, var]`` vectors of length ``2 * dim``. A train-mode forward
    leaves ``running`` alone: ``update_running`` folds ``batch`` into it.
    """

    EPS = 1e-5
    MOMENTUM = 0.1

    def __init__(self, dim: int, name: str = "bn"):
        self.name = name
        self.scale = Param(np.ones(dim), f"{name}.scale")
        self.shift = Param(np.zeros(dim), f"{name}.shift")
        self.running = np.concatenate([np.zeros(dim), np.ones(dim)])
        self.batch = np.zeros(2 * dim)
        self.is_var = np.repeat([False, True], dim)  # the variance half of [mean, var]
        self._ctx = None

    @property
    def running_mean(self) -> np.ndarray:
        return self.running[: self.scale.value.size]

    @property
    def running_var(self) -> np.ndarray:
        return self.running[self.scale.value.size :]

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if train:
            n = x.shape[0]
            if n < 2:
                raise ValueError(f"{self.name}: train mode needs a batch of >= 2 rows")
            dim = self.scale.value.size
            mean, var = self.batch[:dim], self.batch[dim:]
            np.add.reduce(x, axis=0, out=mean)
            mean /= n
            xhat = x - mean
            np.add.reduce(xhat * xhat, axis=0, out=var)
            var /= n
            inv_std = 1.0 / np.sqrt(var + self.EPS)
            xhat *= inv_std
        else:
            inv_std = 1.0 / np.sqrt(self.running_var + self.EPS)
            xhat = x - self.running_mean
            xhat *= inv_std
        self._ctx = (xhat if train else None, inv_std)
        y = xhat * self.scale.value
        y += self.shift.value
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        xhat, inv_std = self._ctx
        if xhat is None:  # eval mode
            dxhat = dy * self.scale.value
            return np.multiply(dxhat, inv_std, out=dxhat)
        # (dy - sum(dy) / n - xhat * (sum(dy * xhat) / n)) * (scale * inv_std),
        # from the two sums the parameter gradients take: seven array passes
        n = dy.shape[0]
        dx = np.multiply(dy, xhat)
        proj = np.add.reduce(dx, axis=0, out=self.scale.grad) / n
        mean_dy = np.add.reduce(dy, axis=0, out=self.shift.grad) / n
        np.subtract(dy, mean_dy, out=dx)
        dx -= xhat * proj
        dx *= self.scale.value * inv_std
        return dx

    def params(self) -> list[Param]:
        return [self.scale, self.shift]


def update_running(running: np.ndarray, batch: np.ndarray, is_var: np.ndarray, n: int) -> None:
    """Fold batch statistics from ``n`` rows into running ones, in place:
    ``(1 - m) * r + m * mean`` where ``is_var`` is False and
    ``(1 - m) * r + m * var * n / (n - 1)`` (the unbiased variance) where it
    is True, with ``m = BatchNorm.MOMENTUM``. ``running`` and ``batch`` may
    hold the ``[mean, var]`` vectors of many layers end to end; ``batch`` is
    overwritten."""
    m = BatchNorm.MOMENTUM
    batch *= m
    np.multiply(batch, n, out=batch, where=is_var)
    np.divide(batch, n - 1, out=batch, where=is_var)
    running *= 1 - m
    running += batch


class Relu:
    """``max(x, 0)``, whose backward is the mask product ``dy * (x > 0)``.
    Every finite ``dy`` gives the values of the masked select
    ``where(x > 0, dy, 0.0)``; a negative ``dy`` at a dead unit gives
    ``-0.0``, and a non-finite one NaN, not ``0.0``."""

    def __init__(self, name: str = "relu"):
        self.name = name
        self._ctx = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        # np.maximum keeps NaN, so divergence stays visible downstream
        y = np.maximum(x, 0.0)
        self._ctx = y if train else x > 0  # train: the next Affine holds y too
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        # y > 0 exactly where x > 0, NaN included
        mask = self._ctx if self._ctx.dtype == bool else self._ctx > 0
        return np.multiply(dy, mask)

    def params(self) -> list[Param]:
        return []


class GroupSoftmax:
    """Independent softmax over each (start, stop) column slice.

    The groups are processed by width class: the ``k`` groups of width ``w``
    form one class. The forward pass gathers its input transposed, as one
    C-ordered ``(columns, n)`` array whose rows are ordered by class, so each
    class is one contiguous ``(w, k, n)`` block with row ``j`` of group ``i``
    at ``[j, i]``. Each max, exp, sum and division is then one vector
    operation over ``k * n`` contiguous values, and the rows go back to
    column order once at the end. The backward pass gathers only ``dy * p``
    that way, for its group sums. Each sum is numpy's ``sum(axis=0)`` over
    the class block, whose bits may differ by a few ulps from a per-group
    ``sum(axis=1)`` where a group is 8 or more columns wide. Only the
    C-ordered output is cached.
    """

    def __init__(self, slices: list[tuple[int, int]], name: str = "gsoftmax"):
        if not slices:
            raise ValueError(f"{name}: no groups")
        for start, stop in slices:
            if stop <= start:
                raise ValueError(f"{name}: empty group ({start}, {stop})")
        ordered = sorted(slices)
        if any(a[1] != b[0] for a, b in zip(ordered, ordered[1:])) or ordered[0][0] != 0:
            raise ValueError(f"{name}: slices must tile the row without gaps")
        self.name = name
        self.width = ordered[-1][1]
        by_width: dict[int, list[int]] = {}
        for start, stop in ordered:
            by_width.setdefault(int(stop - start), []).append(int(start))
        self._classes = []  # (w, k) per width class
        order = []  # the columns in class order
        # each column's group, numbered in class order like the rows of sums
        self._group = np.empty(self.width, dtype=np.intp)
        n_groups = 0
        for w, starts in sorted(by_width.items()):
            self._classes.append((w, len(starts)))
            order += [s + j for j in range(w) for s in starts]
            for s in starts:
                self._group[s : s + w] = n_groups
                n_groups += 1
        self._order = np.array(order)
        self._inverse = np.argsort(self._order)
        self._probs = None

    def _blocks(self, t: np.ndarray):
        """The ``(w, k, n)`` view of each width class in a class-ordered
        transposed array ``t``."""
        row = 0
        for w, k in self._classes:
            yield t[row : row + w * k].reshape(w, k, t.shape[1])
            row += w * k

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if x.shape[1] != self.width:
            raise ValueError(
                f"{self.name}: input width {x.shape[1]} != slice cover {self.width}"
            )
        self._probs = None  # the last forward's output is not held through this one
        # the transposed input in class order. The class blocks and the
        # output below must be views of it, so it must be C-ordered; numpy
        # does not promise an order for a gather, and ascontiguousarray
        # copies only when the gather is not C-ordered already
        xt = np.ascontiguousarray(x.T[self._order])
        for g in self._blocks(xt):
            g -= g.max(axis=0)
            np.exp(g, out=g)
            g /= g.sum(axis=0)
        t = xt[self._inverse]
        # xt's buffer is free again: the output reuses it
        self._probs = xt.reshape(x.shape)
        self._probs[...] = t.T
        return self._probs

    def backward(self, dy: np.ndarray) -> np.ndarray:
        p = self._probs
        dx = dy * p
        dyp = np.ascontiguousarray(dx.T[self._order])  # C-ordered, as in forward
        sums = np.concatenate([g.sum(axis=0) for g in self._blocks(dyp)])
        # dx and dyp are free again: dyp takes each column's group sum (mode
        # "clip" writes straight into it, "raise" would buffer), dx the result
        np.take(sums, self._group, axis=0, out=dyp, mode="clip")
        np.subtract(dy, dyp.T, out=dx)
        dx *= p
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

    def backward(self, dy: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """The input gradient. ``input_grad=False`` returns None, and the
        first layer, which must then be an ``Affine``, skips its product."""
        first, *rest = self.layers
        for layer in reversed(rest):
            dy = layer.backward(dy)
        return first.backward(dy) if input_grad else first.backward(dy, input_grad=False)

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
