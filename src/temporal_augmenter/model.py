"""The dual-stream ensemble network.

Each stream runs conv1d -> maxpool -> activation -> dropout -> recurrent
cell; the GRU stream captures short-term structure, the LSTM stream
long-term structure.  Stream outputs (the last hidden state by default) are
concatenated and fed through a dense head ending in softmax.

Pooling before the ReLU is the network conv1d -> ReLU -> maxpool, bit for
bit, on 1/pool_size of the data: ``max(relu(a), relu(b)) == relu(max(a, b))``
exactly (``np.maximum(-0.0, 0.0)`` is +0.0 either way), and both orders
send a window's gradient to its first maximal position when that max is
positive and a zero otherwise.  That zero is -0.0 when the incoming
gradient is negative, and in a window whose max is <= 0 it may sit at a
different position; the kernel and bias gradients sum over positions, so
at most the sign of a kernel gradient entry that is exactly zero can differ.

Each stream runs its front-end (conv1d -> maxpool -> activation -> dropout)
over blocks of batch rows, so a block's intermediates stay in cache instead
of streaming whole [n, T, F] arrays through memory.  A block holds
``rows = max(1, _BLOCK_BYTES // (T_conv * F * 8))`` rows, the most whose
float64 conv output [rows, T_conv, F] fits in ``_BLOCK_BYTES``; the last
block takes what is left.  Each block's dropout output is written into one
[n, T_out, F] cell input.  Blocking changes no bit: conv1d computes each
sample on its own (a per-sample product with K), pooling, the activation and
the dropout scaling are elementwise, and the dropout draws are counter-based
SplitMix64 words taken in C order, so drawing block after block in row order
yields the very words of one draw over the whole array.  The backward runs
dropout -> activation -> maxpool per block into one [n, T_conv, F] gradient
and then calls ``conv1d_backward`` once on the whole batch: its kernel and
bias gradients are sums over every (sample, step) pair, and summing per
block would change their order.

``build`` draws parameters in a fixed documented order so a (config, seed)
pair always produces bitwise-identical models:  for each stream in
``config.streams`` order the conv kernel (he-uniform) then the cell
parameters (glorot-uniform input weights, orthogonal recurrent weights);
then the head layers first-to-last (glorot-uniform).  Biases are zero.

Train-mode forward consumes rng draws in the same stream order: one dropout
mask per stream, one word per element of the [n, T_out, F] cell input
(drawn block by block, the same words as one whole-array draw), then the
head dropout.  Eval-mode forward consumes none.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import layers, recurrent
from .data import DataError
from .layers import Conv1DParams, DenseParams
from .tensor_core import Rng, ShapeError, Tensor, init_glorot_uniform, init_he_uniform, softmax


# Bytes of one [rows, T_conv, F] conv-output block in the stream front-end:
# about half an L2 cache, so a block's intermediates stay in cache.
_BLOCK_BYTES = 512 * 1024


class TraceError(RuntimeError):
    """Raised when a backward pass gets a stale, reused, or eval-mode trace."""


@dataclass
class ModelConfig:
    input_timesteps: int
    input_channels: int
    num_classes: int
    conv_filters: int = 128
    conv_kernel: int = 1
    conv_activation: str = "relu"  # "relu" or "identity"
    pool_size: int = 2
    dropout_stream: float = 0.5
    dropout_head: float = 0.3
    lstm_units: int = 10
    gru_units: int = 10
    dense_sizes: tuple = (64, 32)
    return_sequences: bool = False
    streams: tuple = ("gru", "lstm")

    def __post_init__(self):
        self.dense_sizes = tuple(int(s) for s in self.dense_sizes)
        self.streams = tuple(self.streams)
        self.validate()

    def validate(self) -> None:
        positive = {
            "input_timesteps": self.input_timesteps,
            "input_channels": self.input_channels,
            "conv_filters": self.conv_filters,
            "conv_kernel": self.conv_kernel,
            "pool_size": self.pool_size,
            "lstm_units": self.lstm_units,
            "gru_units": self.gru_units,
        }
        for name, value in positive.items():
            if int(value) < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        for name, rate in (("dropout_stream", self.dropout_stream), ("dropout_head", self.dropout_head)):
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        if self.conv_activation not in ("relu", "identity"):
            raise ValueError(f"conv_activation must be 'relu' or 'identity', got {self.conv_activation!r}")
        if any(s < 1 for s in self.dense_sizes):
            raise ValueError(f"dense_sizes must be positive, got {self.dense_sizes}")
        if not self.streams or any(s not in ("gru", "lstm") for s in self.streams):
            raise ValueError(f"streams must be a non-empty subset of ('gru', 'lstm'), got {self.streams}")
        if len(set(self.streams)) != len(self.streams):
            raise ValueError(f"duplicate stream in {self.streams}")
        if self.recurrent_timesteps < 1:
            raise ValueError(
                f"conv_kernel={self.conv_kernel} and pool_size={self.pool_size} leave no "
                f"timesteps from input_timesteps={self.input_timesteps}")

    @property
    def recurrent_timesteps(self) -> int:
        """Timesteps seen by the recurrent cells after conv (valid) and pooling."""
        return (self.input_timesteps - self.conv_kernel + 1) // self.pool_size

    def stream_units(self, kind: str) -> int:
        return self.gru_units if kind == "gru" else self.lstm_units

    def stream_width(self, kind: str) -> int:
        u = self.stream_units(kind)
        return u * self.recurrent_timesteps if self.return_sequences else u

    @property
    def concat_width(self) -> int:
        return sum(self.stream_width(kind) for kind in self.streams)


@dataclass
class StreamParams:
    kind: str  # "gru" or "lstm"
    conv: Conv1DParams
    cell: object  # GRUParams or LSTMParams


@dataclass
class TemporalAugmenterModel:
    config: ModelConfig
    streams: list
    head: list  # hidden DenseParams..., output DenseParams last

    def parameters(self) -> dict:
        """Flat name -> tensor view of every trainable parameter (stable order)."""
        out = {}
        for sp in self.streams:
            out[f"{sp.kind}.conv.K"] = sp.conv.K
            out[f"{sp.kind}.conv.b"] = sp.conv.b
            for name, value in recurrent.params_as_dict(sp.cell).items():
                out[f"{sp.kind}.cell.{name}"] = value
        for idx, dp in enumerate(self.head[:-1]):
            out[f"head.{idx}.W"] = dp.W
            out[f"head.{idx}.b"] = dp.b
        out["head.out.W"] = self.head[-1].W
        out["head.out.b"] = self.head[-1].b
        return out


@dataclass
class ForwardTrace:
    """Per-layer caches from one train-mode forward; consumed by one backward."""
    mode: str
    stream_caches: list
    head_caches: list
    consumed: bool = field(default=False)


def build(config: ModelConfig, rng: Rng) -> TemporalAugmenterModel:
    """Instantiate all parameters for the configured architecture."""
    config.validate()
    k, d, F = config.conv_kernel, config.input_channels, config.conv_filters
    streams = []
    for kind in config.streams:
        K = init_he_uniform(k * d, (k, d, F), rng)
        conv = Conv1DParams(K=K, b=np.zeros(F))
        if kind == "gru":
            cell = recurrent.init_gru_params(F, config.gru_units, rng)
        else:
            cell = recurrent.init_lstm_params(F, config.lstm_units, rng)
        streams.append(StreamParams(kind=kind, conv=conv, cell=cell))
    head = []
    in_size = config.concat_width
    for size in config.dense_sizes:
        head.append(DenseParams(W=init_glorot_uniform(in_size, size, (in_size, size), rng),
                                b=np.zeros(size)))
        in_size = size
    head.append(DenseParams(W=init_glorot_uniform(in_size, config.num_classes,
                                                  (in_size, config.num_classes), rng),
                            b=np.zeros(config.num_classes)))
    return TemporalAugmenterModel(config=config, streams=streams, head=head)


def _stream_forward(sp: StreamParams, cfg: ModelConfig, x: Tensor, mode: str, rng):
    """One stream over the batch; cache = ((x, conv params), blocks, cell cache,
    hs shape), with one (start, stop, pool, activation, dropout cache) per block."""
    n, T, _ = x.shape
    T_conv = T - cfg.conv_kernel + 1
    F = cfg.conv_filters
    rows = max(1, _BLOCK_BYTES // (T_conv * F * 8))
    cell_in = np.empty((n, cfg.recurrent_timesteps, F))
    blocks = []
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        y, _ = layers.conv1d_forward(x[start:stop], sp.conv)
        y, pool_cache = layers.maxpool1d_forward(y, cfg.pool_size, mode)
        act_cache = None
        if cfg.conv_activation == "relu":
            y, act_cache = layers.relu_forward(y, mode)
        y, drop_cache = layers.dropout_forward(y, cfg.dropout_stream, mode, rng)
        cell_in[start:stop] = y
        blocks.append((start, stop, pool_cache, act_cache, drop_cache))
    if sp.kind == "gru":
        hs, cell_cache = recurrent.gru_forward(cell_in, sp.cell, mode=mode)
    else:
        hs, cell_cache = recurrent.lstm_forward(cell_in, sp.cell, mode=mode)
    if cfg.return_sequences:
        out = hs.reshape(hs.shape[0], -1)
    else:
        out = hs[:, -1]
    return out, ((x, sp.conv), blocks, cell_cache, hs.shape)


def forward(model: TemporalAugmenterModel, x: Tensor, mode: str = "eval", rng: Rng | None = None):
    """Run the network; returns (probs [n, num_classes], ForwardTrace)."""
    cfg = model.config
    if x.ndim != 3 or x.shape[1] != cfg.input_timesteps or x.shape[2] != cfg.input_channels:
        raise ShapeError(
            f"input {x.shape} does not match configured "
            f"[n, {cfg.input_timesteps}, {cfg.input_channels}]")
    stream_outs = []
    stream_caches = []
    for sp in model.streams:
        out, cache = _stream_forward(sp, cfg, x, mode, rng)
        stream_outs.append(out)
        stream_caches.append(cache)
    a = np.concatenate(stream_outs, axis=1)
    head_caches = []
    for idx, dp in enumerate(model.head[:-1]):
        z, dense_cache = layers.dense_forward(a, dp)
        a, relu_cache = layers.relu_forward(z, mode)
        drop_cache = None
        if idx == 0:
            a, drop_cache = layers.dropout_forward(a, cfg.dropout_head, mode, rng)
        head_caches.append((dense_cache, relu_cache, drop_cache))
    logits, out_cache = layers.dense_forward(a, model.head[-1])
    head_caches.append((out_cache, None, None))
    probs = softmax(logits)
    return probs, ForwardTrace(mode=mode, stream_caches=stream_caches, head_caches=head_caches)


def _stream_backward(sp: StreamParams, cfg: ModelConfig, cache, d_out: Tensor) -> dict:
    conv_cache, blocks, cell_cache, hs_shape = cache
    if cfg.return_sequences:
        d_hs = d_out.reshape(hs_shape)
    else:
        d_hs = np.zeros(hs_shape)
        d_hs[:, -1] = d_out
    if sp.kind == "gru":
        d_cell, cell_grads = recurrent.gru_backward(cell_cache, d_hs)
    else:
        d_cell, cell_grads = recurrent.lstm_backward(cell_cache, d_hs)
    x = conv_cache[0]
    d_conv = np.empty((x.shape[0], x.shape[1] - cfg.conv_kernel + 1, cfg.conv_filters))
    for start, stop, pool_cache, act_cache, drop_cache in blocks:
        d = layers.dropout_backward(drop_cache, d_cell[start:stop])
        if cfg.conv_activation == "relu":
            d = layers.relu_backward(act_cache, d)
        d_conv[start:stop] = layers.maxpool1d_backward(pool_cache, d)
    dK, db = layers.conv1d_backward(conv_cache, d_conv)
    grads = {f"{sp.kind}.conv.K": dK, f"{sp.kind}.conv.b": db}
    for name, g in cell_grads.items():
        grads[f"{sp.kind}.cell.{name}"] = g
    return grads


def backward(model: TemporalAugmenterModel, trace: ForwardTrace, dlogits: Tensor) -> dict:
    """Exact gradients of every parameter given dL/dlogits from the loss.

    The trace must come from a train-mode forward and is consumed by this call.
    """
    if trace is None or trace.consumed:
        raise TraceError("forward trace is missing or already consumed")
    if trace.mode != "train":
        raise TraceError("backward requires a trace from a train-mode forward")
    trace.consumed = True
    cfg = model.config
    grads = {}
    out_cache, _, _ = trace.head_caches[-1]
    da, dW, db = layers.dense_backward(out_cache, dlogits)
    grads["head.out.W"] = dW
    grads["head.out.b"] = db
    for idx in range(len(model.head) - 2, -1, -1):
        dense_cache, relu_cache, drop_cache = trace.head_caches[idx]
        if drop_cache is not None:
            da = layers.dropout_backward(drop_cache, da)
        da = layers.relu_backward(relu_cache, da)
        da, dW, db = layers.dense_backward(dense_cache, da)
        grads[f"head.{idx}.W"] = dW
        grads[f"head.{idx}.b"] = db
    offset = 0
    for sp, cache in zip(model.streams, trace.stream_caches):
        width = cfg.stream_width(sp.kind)
        grads.update(_stream_backward(sp, cfg, cache, da[:, offset:offset + width]))
        offset += width
    return grads


def param_count(model: TemporalAugmenterModel) -> int:
    """Total number of scalar parameters."""
    return int(sum(p.size for p in model.parameters().values()))


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------
#
# Layout (version 1):
#   bytes 0..7    magic  b"TACKPT01"
#   bytes 8..15   uint64 little-endian header length H
#   bytes 16..16+H  UTF-8 JSON header:
#       {"version": 1, "config": {...}, "tensors": [{"name","shape"}...],
#        "extras": {...}}
#   then, for each entry of "tensors" in order, the raw little-endian
#   float64 values (C order).
# Model parameters are stored under their parameters() names; callers may
# attach additional named tensors (e.g. scaler statistics) and a JSON
# extras dict.  Loading reconstructs the model bitwise.

_MAGIC = b"TACKPT01"


def save_checkpoint(path, model: TemporalAugmenterModel, extras: dict | None = None,
                    extra_tensors: dict | None = None) -> None:
    tensors = dict(model.parameters())
    for name, arr in (extra_tensors or {}).items():
        key = f"extra.{name}"
        if key in tensors:
            raise ValueError(f"duplicate tensor name {key!r}")
        tensors[key] = np.asarray(arr, dtype=np.float64)
    header = {
        "version": 1,
        "config": asdict(model.config),
        "tensors": [{"name": n, "shape": list(t.shape)} for n, t in tensors.items()],
        "extras": extras or {},
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for t in tensors.values():
            fh.write(np.ascontiguousarray(t, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Returns (model, extras, extra_tensors).

    Any file that is not one whole, valid checkpoint raises DataError naming
    ``path``: bad magic or version, a cut or unreadable header, a config that
    ModelConfig rejects, a tensor missing or of the wrong shape, or a length
    other than the header describes.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != _MAGIC:
        raise DataError(f"{path}: not a checkpoint file (bad magic {blob[:8]!r})")
    hlen = int.from_bytes(blob[8:16], "little")
    if len(blob) < 16 or 16 + hlen > len(blob):
        raise DataError(f"{path}: checkpoint header cut short ({len(blob)} bytes)")
    try:
        header = json.loads(blob[16:16 + hlen].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise DataError(f"{path}: unreadable checkpoint header ({exc})") from None
    if not isinstance(header, dict) or not isinstance(header.get("extras", {}), dict):
        raise DataError(f"{path}: checkpoint header or its extras is not a JSON object")
    if header.get("version") != 1:
        raise DataError(f"{path}: unsupported checkpoint version {header.get('version')!r}")
    try:
        config = ModelConfig(**header["config"])
        entries = [(str(e["name"]), tuple(int(s) for s in e["shape"]))
                   for e in header["tensors"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: invalid checkpoint header ({exc!r})") from None
    if any(s < 0 for _, shape in entries for s in shape):
        raise DataError(f"{path}: negative tensor dimension in checkpoint header")
    sizes = [math.prod(shape) for _, shape in entries]
    expected = 16 + hlen + 8 * sum(sizes)
    if len(blob) != expected:
        raise DataError(f"{path}: checkpoint is {len(blob)} bytes, its header describes {expected}")
    tensors, offset = {}, 16 + hlen
    for (name, shape), size in zip(entries, sizes):
        tensors[name] = np.frombuffer(blob, "<f8", size, offset).astype(np.float64).reshape(shape)
        offset += 8 * size
    model = build(config, Rng(0))
    for name, arr in model.parameters().items():
        if name not in tensors:
            raise DataError(f"{path}: checkpoint missing parameter {name!r}")
        t = tensors.pop(name)
        if t.shape != arr.shape:
            raise DataError(f"{path}: parameter {name!r} has shape {list(t.shape)}, "
                            f"the model expects {list(arr.shape)}")
        arr[...] = t
    extra_tensors = {n[len("extra."):]: t for n, t in tensors.items() if n.startswith("extra.")}
    return model, header.get("extras", {}), extra_tensors
