"""Variational autoencoder over one-hot household rows.

Encoder: six affine+batchnorm+ReLU blocks, then separate affine+batchnorm
heads for mu and logsig. Decoder: six blocks with the encoder's widths in
reverse order, then an affine output head followed by a per-variable group
softmax, so every decoded row is a stack of category distributions.

The layers' parameters and running statistics are views into one ``state``
vector, and their gradients into one gradient vector. Persistence is a
versioned binary format (the codec ``write_blob`` / ``read_blob``, shared with
latent files): an 8-byte magic, a length-prefixed JSON header (schema
fingerprint, dims, hyperparameters, array directory) and ``state`` as
little-endian float64. Round trips are bit-exact.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import nn
from .schema import Schema, ColumnGroup, column_layout, write_atomic

MODEL_MAGIC = b"PSVAE01\n"
MODEL_VERSION = 2

DEFAULT_ENCODER_WIDTHS = (512, 384, 256, 192, 128, 96)
DEFAULT_LATENT_DIM = 64
N_BLOCKS = 6


class ModelFormatError(ValueError):
    """Raised when a model or latent file is malformed or from an unknown version."""


@dataclass(frozen=True)
class VaeHyperparams:
    latent_dim: int = DEFAULT_LATENT_DIM
    encoder_widths: tuple[int, ...] = DEFAULT_ENCODER_WIDTHS  # reversed by the decoder
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
        nn.Affine(in_dim, out_dim, rng, f"{name}.affine"),
        nn.BatchNorm(out_dim, f"{name}.bn"),
        nn.Relu(f"{name}.relu"),
    ]


class VaeModel:
    def __init__(
        self,
        d: int,
        groups: tuple[ColumnGroup, ...],
        schema_fingerprint: str,
        hyper: VaeHyperparams,
    ):
        self.d = d
        self.groups = groups
        self.schema_fingerprint = schema_fingerprint
        self.hyper = hyper
        rng = np.random.default_rng(hyper.init_seed)

        layers = []
        width = d
        for i, w in enumerate(hyper.encoder_widths):
            layers.extend(_block(width, w, rng, f"enc{i}"))
            width = w
        self.encoder = nn.Chain(layers)
        self.mu_affine = nn.Affine(width, hyper.latent_dim, rng, "mu.affine")
        self.mu_bn = nn.BatchNorm(hyper.latent_dim, "mu.bn")
        self.logsig_affine = nn.Affine(width, hyper.latent_dim, rng, "logsig.affine")
        self.logsig_bn = nn.BatchNorm(hyper.latent_dim, "logsig.bn")

        layers = []
        width = hyper.latent_dim
        for i, w in enumerate(reversed(hyper.encoder_widths)):
            layers.extend(_block(width, w, rng, f"dec{i}"))
            width = w
        self.decoder = nn.Chain(layers)
        self.out_affine = nn.Affine(width, d, rng, "out.affine")
        self.out_softmax = nn.GroupSoftmax(
            [(g.start, g.stop) for g in groups], "out.softmax"
        )
        if self.out_softmax.width != d:
            raise ValueError(f"column groups cover {self.out_softmax.width} columns, not {d}")
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

    def encode_backward(self, dmu, dlogsig, with_params: bool = True):
        dh = self.mu_affine.backward(
            self.mu_bn.backward(dmu, with_params), with_params
        )
        dh += self.logsig_affine.backward(
            self.logsig_bn.backward(dlogsig, with_params), with_params
        )
        return self.encoder.backward(dh, with_params=with_params)

    def decode(self, z: np.ndarray, train: bool = False) -> np.ndarray:
        h = self.decoder.forward(z, train=train)
        return self.out_softmax.forward(self.out_affine.forward(h, train), train)

    def decode_backward(self, dprobs, with_params: bool = True):
        dh = self.out_affine.backward(
            self.out_softmax.backward(dprobs, with_params), with_params
        )
        return self.decoder.backward(dh, with_params=with_params)

    # -- state ---------------------------------------------------------------

    def _pack(self) -> None:
        """View every parameter and running statistic into ``state`` (in file
        order), and every gradient into ``flat``, a Param over the parameters."""
        params = self.parameters()
        slots = [(p, "value", p.name) for p in params] + [
            (bn, key, f"{bn.name}.{key}")
            for bn in self._layers()
            if isinstance(bn, nn.BatchNorm)
            for key in ("running_mean", "running_var")
        ]
        self.state = np.concatenate([getattr(o, key).ravel() for o, key, _ in slots])
        self.flat = nn.Param(self.state[: sum(p.value.size for p in params)], "params")
        self.arrays = []  # (name, view into state), in file order
        offset = 0
        for owner, key, name in slots:
            arr = getattr(owner, key)
            span = slice(offset, offset + arr.size)
            setattr(owner, key, self.state[span].reshape(arr.shape))
            if key == "value":
                owner.grad = self.flat.grad[span].reshape(arr.shape)
            self.arrays.append((name, getattr(owner, key)))
            offset = span.stop

    def _layers(self) -> list:
        heads = [self.mu_affine, self.mu_bn, self.logsig_affine, self.logsig_bn]
        return [*self.encoder.layers, *heads, *self.decoder.layers, self.out_affine]

    def parameters(self) -> list[nn.Param]:
        return [p for layer in self._layers() for p in layer.params()]

    def zero_grads(self) -> None:
        self.flat.zero_grad()

    def directory(self) -> list[list]:
        """The file header's array directory: [name, shape] in file order."""
        return [[name, list(arr.shape)] for name, arr in self.arrays]

    def checksum(self, items=None) -> str:
        h = hashlib.sha256()
        for name, arr in items if items is not None else self.arrays:
            h.update(name.encode("utf-8"))
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        return h.hexdigest()

    def decoder_checksum(self) -> str:
        return self.checksum(
            [(n, a) for n, a in self.arrays if n.startswith(("dec", "out"))]
        )


def init_model(
    schema: Schema,
    latent_dim: int = DEFAULT_LATENT_DIM,
    hidden_widths: tuple[int, ...] | None = None,
    seed: int = 0,
) -> VaeModel:
    """Build a freshly initialised model for a resolved schema.

    ``hidden_widths`` gives the six encoder widths; the decoder mirrors them.
    Initialisation is uniform in +/- sqrt(6 / (fan_in + fan_out)), biases and
    batch-norm shifts zero, deterministic in the seed.
    """
    groups, d = column_layout(schema)
    widths = tuple(hidden_widths) if hidden_widths else DEFAULT_ENCODER_WIDTHS
    hyper = VaeHyperparams(latent_dim=latent_dim, encoder_widths=widths, init_seed=seed)
    return VaeModel(d, groups, schema.fingerprint(), hyper)


# ---------------------------------------------------------------------------
# persistence


def write_blob(path, magic: bytes, version: int, header: dict, payload: np.ndarray) -> None:
    """Write magic, the u32 length of the JSON header (``header`` plus version
    and dtype), the header and the payload as little-endian float64, atomically."""
    header = header | {"version": version, "dtype": "<f8"}
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = np.ascontiguousarray(payload, dtype="<f8").tobytes()
    write_atomic(path, magic + struct.pack("<I", len(head)) + head + body)


def read_blob(path, magic: bytes, version: int, shape_of) -> tuple[dict, np.ndarray]:
    """Read a ``write_blob`` file into (header, payload). Any defect, including
    a payload that does not fill the rest of the file in the shape
    ``shape_of(header)``, raises ``ModelFormatError``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    start = len(magic) + 4
    if blob[: len(magic)] != magic:
        raise ModelFormatError(f"{path}: bad magic, not a {magic.decode().strip()} file")
    try:
        (size,) = struct.unpack_from("<I", blob, len(magic))
        header = json.loads(blob[start : start + size])
    except (struct.error, ValueError) as exc:
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
    return header, payload.astype(np.float64)


def save_model(model: VaeModel, path) -> None:
    header = {
        "format": "psvae",
        "schema_fingerprint": model.schema_fingerprint,
        "d": model.d,
        "groups": [[g.var, g.slot, g.start, g.width] for g in model.groups],
        "hyperparams": asdict(model.hyper),
        "arrays": model.directory(),
    }
    write_blob(path, MODEL_MAGIC, MODEL_VERSION, header, model.state)


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
        hyper = VaeHyperparams(**hp)
        groups = tuple(ColumnGroup(*g) for g in header["groups"])
        model = VaeModel(header["d"], groups, header["schema_fingerprint"], hyper)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: header does not describe a model: {exc!r}") from None
    if header["arrays"] != model.directory():
        raise ModelFormatError(f"{path}: array directory does not match the model")
    model.state[...] = state
    return model
