"""Variational autoencoder over one-hot household rows.

Encoder: six affine+batchnorm+ReLU blocks, then separate affine+batchnorm
heads for mu and logsig. Decoder: six blocks with the encoder's widths in
reverse order, then an affine output head followed by a per-variable group
softmax, so every decoded row is a stack of category distributions. Every
affine layer that feeds a batch norm, all but the output head, has no bias:
the batch norm subtracts the batch mean, which cancels it (Ioffe & Szegedy
2015, section 3.2).

``VaeModel(schema, VaeHyperparams(...))`` is the one constructor, and the
model keeps that resolved schema as its own. Weights are Glorot-uniform, the
output head's bias and batch-norm shifts zero, deterministic in ``init_seed``.

The layers' parameters and running statistics are views into one ``state``
vector, and their gradients into one gradient vector. Persistence is a
versioned binary format (the codec ``write_blob`` / ``read_blob``, shared with
latent files): an 8-byte magic, a length-prefixed JSON header (the resolved
schema, hyperparameters, array directory), ``state`` as little-endian
float64 and the sha256 of all those bytes. Round trips are bit-exact. The
model's fingerprint, ``checksum``, hashes that header and ``state``.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import nn
from .schema import (
    DataError, Schema, column_layout, read_input, schema_dict, schema_from_dict, write_atomic,
)

MODEL_MAGIC = b"PSVAE01\n"
MODEL_VERSION = 4
DIGEST_SIZE = 32  # the trailing sha256 of a model or latent file

N_BLOCKS = 6


class ModelFormatError(DataError):
    """Raised when a model or latent file is malformed or from an unknown version."""


@dataclass(frozen=True)
class VaeHyperparams:
    latent_dim: int = 64
    encoder_widths: tuple[int, ...] = (512, 384, 256, 192, 128, 96)  # reversed by the decoder
    init_seed: int = 0

    def __post_init__(self):
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
        if len(self.encoder_widths) != N_BLOCKS:
            raise ValueError(f"expected {N_BLOCKS} hidden widths")
        if any(w < 1 for w in self.encoder_widths):
            raise ValueError("hidden widths must be >= 1")


def _block(in_dim, out_dim, rng, name):
    return [
        nn.Affine(in_dim, out_dim, rng, f"{name}.affine", bias=False),
        nn.BatchNorm(out_dim, f"{name}.bn"),
        nn.Relu(f"{name}.relu"),
    ]


class VaeModel:
    def __init__(self, schema: Schema, hyper: VaeHyperparams):
        self.schema = schema
        self.groups, self.d = column_layout(schema)
        self.schema_fingerprint = schema.fingerprint()
        self.hyper = hyper
        rng = np.random.default_rng(hyper.init_seed)

        layers = []
        width = self.d
        for i, w in enumerate(hyper.encoder_widths):
            layers.extend(_block(width, w, rng, f"enc{i}"))
            width = w
        self.encoder = nn.Chain(layers)
        self.mu_affine = nn.Affine(width, hyper.latent_dim, rng, "mu.affine", bias=False)
        self.mu_bn = nn.BatchNorm(hyper.latent_dim, "mu.bn")
        self.logsig_affine = nn.Affine(width, hyper.latent_dim, rng, "logsig.affine", bias=False)
        self.logsig_bn = nn.BatchNorm(hyper.latent_dim, "logsig.bn")

        layers = []
        width = hyper.latent_dim
        for i, w in enumerate(reversed(hyper.encoder_widths)):
            layers.extend(_block(width, w, rng, f"dec{i}"))
            width = w
        self.out_affine = nn.Affine(width, self.d, rng, "out.affine")
        self.out_softmax = nn.GroupSoftmax(
            [(g.start, g.stop) for g in self.groups], "out.softmax"
        )
        self.decoder = nn.Chain([*layers, self.out_affine, self.out_softmax])
        self._pack()

    @property
    def latent_dim(self) -> int:
        return self.hyper.latent_dim

    # -- forward / backward ------------------------------------------------

    def encode(self, x: np.ndarray, train: bool = False):
        h = self.encoder.forward(x, train=train)
        mu = self.mu_bn.forward(self.mu_affine.forward(h, train), train)
        logsig = self.logsig_bn.forward(self.logsig_affine.forward(h, train), train)
        return mu, logsig

    def encode_backward(self, dmu, dlogsig, input_grad: bool = True):
        """The gradient with respect to the encoder's input, or None when
        ``input_grad`` is False: then the first layer skips that product."""
        dh = self.mu_affine.backward(self.mu_bn.backward(dmu))
        dh += self.logsig_affine.backward(self.logsig_bn.backward(dlogsig))
        return self.encoder.backward(dh, input_grad)

    def decode(self, z: np.ndarray, train: bool = False) -> np.ndarray:
        return self.decoder.forward(z, train=train)

    def decode_backward(self, dprobs):
        return self.decoder.backward(dprobs)

    def update_running_stats(self, n: int) -> None:
        """Fold the batch statistics of the last train-mode encode and
        decode, over ``n`` rows, into the running statistics: one
        ``nn.update_running`` over the whole tail of ``state``. The layers'
        train-mode forwards leave the running statistics alone."""
        nn.update_running(self._running, self._batch, self._is_var, n)

    # -- state ---------------------------------------------------------------

    def _pack(self) -> None:
        """View every parameter and running statistic into ``state`` (in file
        order), and every gradient into ``flat``, a Param over the parameters.
        The running statistics, each batch norm's ``[mean, var]`` in layer
        order, are the tail of ``state``; the batch statistics live in a
        buffer of the same layout, so one call updates them all."""
        params = self.parameters()
        bns = [layer for layer in self._layers() if isinstance(layer, nn.BatchNorm)]
        self.state = np.concatenate(
            [p.value.ravel() for p in params] + [bn.running for bn in bns]
        )
        n_params = sum(p.value.size for p in params)
        self.flat = nn.Param(self.state[:n_params], "params")
        self._running = self.state[n_params:]
        self._batch = np.zeros_like(self._running)
        self._is_var = np.concatenate([bn.is_var for bn in bns])
        self.arrays = []  # (name, view into state), in file order
        offset = 0
        for p in params:
            span = slice(offset, offset + p.value.size)
            shape = p.value.shape
            p.value = self.state[span].reshape(shape)
            p.grad = self.flat.grad[span].reshape(shape)
            self.arrays.append((p.name, p.value))
            offset = span.stop
        offset = 0  # into the tail
        for bn in bns:
            span = slice(offset, offset + bn.running.size)
            bn.running, bn.batch = self._running[span], self._batch[span]
            self.arrays += [(f"{bn.name}.running_mean", bn.running_mean),
                            (f"{bn.name}.running_var", bn.running_var)]
            offset = span.stop

    def _layers(self) -> list:
        heads = [self.mu_affine, self.mu_bn, self.logsig_affine, self.logsig_bn]
        return [*self.encoder.layers, *heads, *self.decoder.layers]

    def parameters(self) -> list[nn.Param]:
        return [p for layer in self._layers() for p in layer.params()]

    def header(self) -> dict:
        """The file header: the schema, the hyperparameters and the array
        directory ([name, shape] in file order)."""
        return {
            "format": "psvae",
            "schema": schema_dict(self.schema),
            "hyperparams": asdict(self.hyper),
            "arrays": [[name, list(arr.shape)] for name, arr in self.arrays],
        }

    def checksum(self) -> str:
        """The model's fingerprint: sha256 of the header in canonical JSON,
        then of ``state`` as little-endian float64."""
        head = json.dumps(self.header(), sort_keys=True, separators=(",", ":"))
        h = hashlib.sha256(head.encode("utf-8"))
        h.update(np.ascontiguousarray(self.state, dtype="<f8").tobytes())
        return h.hexdigest()

    def schema_for(self, schema: Schema) -> Schema:
        """``schema`` as this model was fitted with it: an open n_window is
        pinned to the model's own, then the fingerprints must match."""
        if schema.n_window is None:
            schema = schema.with_n_window(self.schema.n_window)
        if schema.fingerprint() != self.schema_fingerprint:
            raise DataError("schema does not match the model's schema fingerprint")
        return schema


# ---------------------------------------------------------------------------
# persistence


def write_blob(path, magic: bytes, version: int, header: dict, payload: np.ndarray) -> None:
    """Write magic, the u32 length of the JSON header (``header`` plus version
    and dtype), the header, the payload as little-endian float64 and the
    sha256 digest of all the bytes before it, atomically."""
    header = header | {"version": version, "dtype": "<f8"}
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = magic + struct.pack("<I", len(head)) + head
    body += np.ascontiguousarray(payload, dtype="<f8").tobytes()
    write_atomic(path, body + hashlib.sha256(body).digest())


def read_blob(path, magic: bytes, version: int, shape_of) -> tuple[dict, np.ndarray]:
    """Read a ``write_blob`` file into (header, payload). The digest is
    checked before anything else is read, so a flipped bit anywhere after
    the magic is caught. Any defect of a readable file, including a payload
    that does not fill the rest of the file in the shape ``shape_of(header)``
    or that holds a NaN or an infinity, raises ``ModelFormatError``."""
    blob = read_input(path, text=False)
    start = len(magic) + 4
    if blob[: len(magic)] != magic:
        raise ModelFormatError(f"{path}: bad magic, not a {magic.decode().strip()} file")
    blob, digest = blob[:-DIGEST_SIZE], blob[-DIGEST_SIZE:]
    if hashlib.sha256(blob).digest() != digest:
        raise ModelFormatError(
            f"{path}: sha256 digest does not match the contents: "
            "the file is damaged, or older than the digest"
        )
    try:
        (size,) = struct.unpack_from("<I", blob, len(magic))
        header = json.loads(blob[start : start + size])
    except (struct.error, ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ModelFormatError(f"{path}: corrupt header: {exc}") from None
    found = header.get("version") if isinstance(header, dict) else None
    if found != version:
        raise ModelFormatError(f"{path}: unsupported version {found!r}")
    if header.get("dtype") != "<f8":
        raise ModelFormatError(f"{path}: unsupported dtype {header.get('dtype')!r}")
    try:
        payload = np.frombuffer(blob, "<f8", offset=start + size).reshape(shape_of(header))
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: payload does not match its header: {exc}") from None
    if not np.isfinite(payload).all():
        raise ModelFormatError(f"{path}: payload holds a value that is not finite")
    return header, payload.astype(np.float64)


def save_model(model: VaeModel, path) -> None:
    write_blob(path, MODEL_MAGIC, MODEL_VERSION, model.header(), model.state)


def load_model(path) -> VaeModel:
    header, state = read_blob(
        path,
        MODEL_MAGIC,
        MODEL_VERSION,
        lambda h: (sum(math.prod(shape) for _, shape in h["arrays"]),),
    )
    if header.get("format") != "psvae":
        raise ModelFormatError(f"{path}: format {header.get('format')!r} is not psvae")
    try:
        hp = {k: tuple(v) if isinstance(v, list) else v for k, v in header["hyperparams"].items()}
        model = VaeModel(schema_from_dict(header["schema"]), VaeHyperparams(**hp))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: header does not describe a model: {exc!r}") from None
    if header["arrays"] != model.header()["arrays"]:
        raise ModelFormatError(f"{path}: array directory does not match the model")
    model.state[...] = state
    return model
