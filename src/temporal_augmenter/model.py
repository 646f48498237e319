"""The dual-stream ensemble network.

Each stream runs conv1d -> maxpool -> activation -> dropout -> recurrent
cell; the GRU stream captures short-term structure, the LSTM stream
long-term structure.  Stream outputs (the last hidden state by default) are
concatenated and fed through a dense head ending in softmax.

The stream front-end is one loop over blocks of batch rows
(``_front_end``), so a block's intermediates stay in cache instead of
streaming whole [n, T, F] arrays through memory.  A block holds ``rows =
max(1, _BLOCK_BYTES // (width * F * 8))`` rows, the most whose widest
float64 intermediate [rows, width, F] fits in ``_BLOCK_BYTES``; the last
block takes what is left.  The loop forms a block's pooled pre-activation
[rows, T_out, F] and applies the activation (``_form_block``) in one
reused buffer, in either mode; it is a function of its own so that the
buffer is freed before the cells run.  It applies the dropout in place
and, while the block is still in cache, multiplies it by the cell's input
weights into its rows of the cell's input projection px [n, T_out, k]
(``recurrent.project``), which is all the cell reads.  No [n, T_out, F]
cell input exists in either mode.  Two paths form the pooled
pre-activation; nothing else differs.

The pooled path runs when the kernel is one step over one input channel
(``_pools_first``: the default kernel on the mitbih and tess shapes;
``width = T_out``).  Its conv output is ``fl(fl(x[n, t] * K[f]) + b'[f])``
with ``b' = b + 0.0``.  Rounding is monotone, so per filter that is a
monotone function of x, non-decreasing where K[f] >= 0 and non-increasing
where K[f] < 0, and a window's max of it is its value at the window's max
of x or at its min: ``max(xmax * K, xmin * K) + b'``.  b' is never -0.0, so
no such sum is -0.0, and equal values have equal bits.  The path takes the
window max and min of x ([n, T_out]) once.  Per block it forms that max as
one product of the [rows * T_out, 2] extremes with a [2, F] matrix: K with
0.0 where K < 0, over K with 0.0 where K > 0.  For finite x one of a
filter's two terms is an exact zero (both are where K is +-0.0), so the
product is the other term's rounded value.  No [n, T_conv, F] conv output,
pool winner mask or conv-output gradient exists on this path.

The general path runs for any other kernel or channel count (ionosphere's
two channels; ``width = T_conv``) and is the oracle the pooled path is
tested against.  It runs ``conv1d_forward`` on the block's rows and
``maxpool1d_forward`` into the block.  The [rows, T_conv, F] conv output is
a temporary, freed before the projection, so the next block's conv output
reuses its memory instead of faulting in fresh pages.  Pooling before the
ReLU is the network conv1d -> ReLU -> maxpool, bit for bit, on 1/pool_size
of the data: ``max(relu(a), relu(b)) == relu(max(a, b))`` exactly
(``np.maximum(-0.0, 0.0)`` is +0.0 either way), and both orders send a
window's gradient to its first maximal position when that max is positive
and a zero otherwise.  That zero is -0.0 when the incoming gradient is
negative, and in a window whose max is <= 0 it may sit at a different
position; the kernel and bias gradients sum over positions, so at most the
sign of a kernel gradient entry that is exactly zero can differ.

The backward recomputes each block's cell input rather than keeping it
(Chen et al., *Training Deep Nets with Sublinear Memory Cost*,
arXiv:1604.06174): forming a block costs a two-column product or a conv
and a pool, so it is cheaper to form again than to store.  A block's cache
is its bool dropout keep mask (None without dropout) and its dropout
scale.  The cell's backward returns the pre-activation gradient da
[n, T_out, k]; then, per block, the backward re-forms the cell input with
``_form_block`` and the keep mask into a reused buffer, bit for bit the
forward's, the general path taking its pool winners from the conv output
formed there; adds x^T da into the cell's input-weight gradient and forms
da W^T in a second reused buffer (``recurrent.project_backward``); runs
the ReLU and dropout backward, which read that cell input, not a mask (see
``layers``); and adds the block's share of the kernel and bias gradients.
The general path runs the block's max-pool backward into a reused
[rows, T_conv, F] buffer and ``conv1d_backward`` on it.  The pooled path's
kernel gradient takes, per filter, the input value that the general path's
window winner holds: the window max of x where K[f] > 0, the min where
K[f] < 0, and the window's first step where K[f] is +-0.0 and every step
ties, as one product of those three [rows * T_out] rows with the block's
[rows * T_out, F] gradient.  Its summation order differs from the general
path's, so its last bits may move; so may its value where rounding makes
two window values equal while their x differ.  Over the same blocks, the
pooled path's bias gradient is bit for bit the general path's: numpy's sum
starts at +0.0, so no partial sum is -0.0 and the +0.0 that the general
path adds for each non-winning step changes none of them.

Blocking changes no bit of the forward: each sample is filtered on its
own, pooling, the activation and the dropout scaling are elementwise, and
the dropout draws are 32-bit halves of counter-based SplitMix64 words taken
in C order, the ``Rng`` keeping an odd block's unused half for the next
block, so drawing block after block yields the values of one draw over the
whole array.  Nor does blocking the projection for the default cells
(k = 30 and 40, checked with OpenBLAS's SkylakeX kernels) while no block
has a single row: numpy sends a one-row product to gemv, whose sums
differ from gemm's.  Only T_out = 1 can make such a block, so then blocks
hold at least two samples and a trailing block of one joins the block
before it (``_block_bounds``).  At some other gate widths (k = 9, 18 and
44 among them, with F = 128) a block's rows get other last bits than one
whole product; the result is still fixed for a given batch size.  The
backward's input-weight, kernel and bias gradients are sums over blocks,
each block's term added in block order, so their last bits depend on the
blocking; every other gradient's do not.

Each parameter's shape is stated once, in ``_allocate``, and its name
once, in ``TemporalAugmenterModel.parameters``.  The checkpoint check
reads both from a model of read-only zeros that holds no memory, and the
backward returns its gradients as the ``parameters()`` of a model built of
them.  ``build`` draws parameters in a fixed documented order so a
(config, seed) pair always produces bitwise-identical models:  for each
stream in ``config.streams`` order the conv kernel (he-uniform) then the
cell parameters (glorot-uniform input weights, orthogonal recurrent
weights); then the head layers first-to-last (glorot-uniform).  Biases are
zero.

Train-mode forward consumes rng draws in the same stream order: one dropout
mask per stream, one 32-bit half per element of the [n, T_out, F] cell
input, two per SplitMix64 word (drawn block by block, the same values as
one whole-array draw), then the head dropout.  Eval-mode forward consumes
none.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import layers, recurrent
from .data import DataError, read_file
from .layers import Conv1DParams, DenseParams
from .settings import POSITIVE, RATE, check, one_of, setting
from .tensor_core import Rng, ShapeError, Tensor, init_glorot_uniform, init_he_uniform, softmax


# Bytes of one block's widest intermediate in the stream front-end: about
# half an L2 cache, so a block's intermediates stay in cache.
_BLOCK_BYTES = 512 * 1024


class TraceError(RuntimeError):
    """Raised when a backward pass gets a stale, reused, or eval-mode trace."""


_STREAMS = ("gru", "lstm")


@dataclass
class ModelConfig:
    """The network's settings (see ``settings``).  Each rule reads one field,
    so a config file's line is checked before the data gives the shape."""
    input_timesteps: int = setting(MISSING, POSITIVE, keys=())
    input_channels: int = setting(MISSING, POSITIVE, keys=())
    num_classes: int = setting(MISSING, (lambda v: v >= 2, "must be >= 2"), keys=())
    conv_filters: int = setting(128, POSITIVE)
    conv_kernel: int = setting(1, POSITIVE)
    conv_activation: str = setting("relu", one_of("relu", "identity"))
    pool_size: int = setting(2, POSITIVE)
    dropout_stream: float = setting(0.5, RATE)
    dropout_head: float = setting(0.3, RATE)
    lstm_units: int = setting(10, POSITIVE)
    gru_units: int = setting(10, POSITIVE)
    dense_sizes: tuple[int, ...] = setting(
        (64, 32), (lambda v: all(s > 0 for s in v), "must be positive integers"))
    return_sequences: bool = setting(False)
    streams: tuple[str, ...] = setting(
        _STREAMS, (lambda v: v and set(v) <= set(_STREAMS),
                   f"must be a non-empty subset of {_STREAMS}"),
        (lambda v: len(set(v)) == len(v), "must not hold a duplicate stream"))

    def validate(self) -> None:
        check(self)
        if self.recurrent_timesteps < 1:
            raise ValueError(
                f"conv_kernel={self.conv_kernel} and pool_size={self.pool_size} leave no "
                f"timesteps from input_timesteps={self.input_timesteps}")

    __post_init__ = validate  # a ModelConfig is checked however it is made

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
    cell: recurrent.CellParams  # the gate slots of its kind


@dataclass
class TemporalAugmenterModel:
    config: ModelConfig
    streams: list
    head: list  # hidden DenseParams..., output DenseParams last

    def parameters(self) -> dict:
        """Flat name -> every trainable parameter array, in a stable order;
        the one place that names them."""
        out = {}
        for sp in self.streams:
            out[f"{sp.kind}.conv.K"] = sp.conv.K
            out[f"{sp.kind}.conv.b"] = sp.conv.b
            for name, value in vars(sp.cell).items():
                out[f"{sp.kind}.cell.{name}"] = value
        for idx, dp in enumerate(self.head[:-1]):
            out[f"head.{idx}.W"] = dp.W
            out[f"head.{idx}.b"] = dp.b
        out["head.out.W"] = self.head[-1].W
        out["head.out.b"] = self.head[-1].b
        return out


@dataclass
class ForwardTrace:
    """Per-layer caches from one forward.  One backward consumes a
    train-mode trace and empties it, releasing every cache as soon as the
    gradients that read it are formed; a consumed trace holds nothing."""
    mode: str
    stream_caches: list
    head_caches: list
    consumed: bool = field(default=False)


def _allocate(config: ModelConfig, make=np.zeros) -> TemporalAugmenterModel:
    """The network for ``config`` with every parameter ``make(shape)``, all
    zero; the one place that gives each parameter its shape."""
    k, d, F = config.conv_kernel, config.input_channels, config.conv_filters
    streams = [StreamParams(kind=kind, conv=Conv1DParams(K=make((k, d, F)), b=make((F,))),
                            cell=recurrent.zero_params(kind, F, config.stream_units(kind), make))
               for kind in config.streams]
    sizes = (config.concat_width, *config.dense_sizes, config.num_classes)
    head = [DenseParams(W=make((i, o)), b=make((o,))) for i, o in zip(sizes, sizes[1:])]
    return TemporalAugmenterModel(config=config, streams=streams, head=head)


def build(config: ModelConfig, rng: Rng) -> TemporalAugmenterModel:
    """Instantiate all parameters for the configured architecture."""
    config.validate()
    model = _allocate(config)
    for sp in model.streams:
        k, d, F = sp.conv.K.shape
        sp.conv.K[...] = init_he_uniform(k * d, (k, d, F), rng)
        recurrent.draw_params(sp.cell, sp.kind, rng)
    for dp in model.head:
        dp.W[...] = init_glorot_uniform(dp.in_size, dp.out_size, dp.W.shape, rng)
    return model


def _pools_first(cfg: ModelConfig) -> bool:
    """Whether the stream front-end takes the pooled path: a kernel of one
    step over one input channel (see the module docstring)."""
    return cfg.conv_kernel == 1 and cfg.input_channels == 1


def _block_bounds(n: int, width: int, cfg: ModelConfig) -> list:
    """(start, stop) of each block of the batch's rows (see the module
    docstring).  With one recurrent step per sample, a one-sample block's
    input projection would be a one-row product, which numpy sends to gemv,
    whose sums differ from gemm's: so blocks then hold at least two rows,
    and a trailing block of one joins the block before it."""
    rows = max(1, _BLOCK_BYTES // (width * cfg.conv_filters * 8))
    one_step = cfg.recurrent_timesteps == 1
    if one_step:
        rows = max(rows, 2)
    stops = [*range(rows, n, rows), n]
    if one_step and len(stops) > 1 and stops[-1] - stops[-2] == 1:
        del stops[-2]
    return list(zip([0, *stops[:-1]], stops))


def _pooled_terms(sp: StreamParams, cfg: ModelConfig, x: Tensor):
    """On the pooled path (see the module docstring), (extremes, weights,
    b'): the window max and min of ``x`` [n, T_out, 2], the [2, F] matrix
    they multiply, and b' = b + 0.0; None on the general path."""
    if not _pools_first(cfg):
        return None
    n, T_out, pool = x.shape[0], cfg.recurrent_timesteps, cfg.pool_size
    windows = x[:, :T_out * pool, 0].reshape(n, T_out, pool)
    extremes = np.stack((windows.max(axis=2), windows.min(axis=2)), axis=2)
    K = sp.conv.K[0, 0]
    # xmax * K where K > 0, xmin * K where K < 0, both terms where K is +-0 or NaN
    weights = np.stack((np.where(K < 0, 0.0, K), np.where(K > 0, 0.0, K)))
    return extremes, weights, sp.conv.b + 0.0


def _form_block(sp: StreamParams, cfg: ModelConfig, x: Tensor, pooled, start: int, stop: int,
                y: Tensor, mode: str):
    """Write the activated, pooled pre-activation of batch rows start:stop
    into ``y`` [stop - start, T_out, F], by the path that ``pooled``
    (``_pooled_terms``) selects.  Returns the max-pool cache: None on the
    pooled path and in eval mode, which the forward uses as it keeps no
    pool winners.  The backward's re-form calls it too, so it sees the
    forward's bits."""
    pool_cache = None
    if pooled is not None:
        extremes, weights, b = pooled
        np.matmul(extremes[start:stop].reshape(-1, 2), weights, out=y.reshape(-1, y.shape[2]))
        y += b
    else:
        # the conv output is a temporary, freed before the projection
        _, pool_cache = layers.maxpool1d_forward(
            layers.conv1d_forward(x[start:stop], sp.conv)[0], cfg.pool_size, mode, out=y)
    if cfg.conv_activation == "relu":
        layers.relu_forward(y)
    return pool_cache


def _front_end(sp: StreamParams, cfg: ModelConfig, x: Tensor, mode: str, rng, px: Tensor):
    """The block loop (see the module docstring), writing every row of
    ``px``.  Returns (blocks, pooled): one (start, stop, keep mask, dropout
    scale) per block, and the pooled path's terms."""
    pooled = _pooled_terms(sp, cfg, x)
    width = cfg.recurrent_timesteps if pooled is not None else x.shape[1] - cfg.conv_kernel + 1
    bounds = _block_bounds(x.shape[0], width, cfg)
    buffer = np.empty((max(stop - start for start, stop in bounds), cfg.recurrent_timesteps,
                       cfg.conv_filters))
    blocks = []
    for start, stop in bounds:
        y = buffer[:stop - start]
        _form_block(sp, cfg, x, pooled, start, stop, y, "eval")
        _, (keep, scale) = layers.dropout_forward(y, cfg.dropout_stream, mode, rng)
        recurrent.project(y, sp.cell, out=px[start:stop])
        blocks.append((start, stop, keep, scale))
    return blocks, pooled


def _stream_forward(sp: StreamParams, cfg: ModelConfig, x: Tensor, mode: str, rng):
    """One stream over the batch.  Its front-end writes every row of the
    cell's input projection px, block by block; no [n, T_out, F] cell input
    exists in either mode.  cache = (x, blocks, cell cache, pooled terms),
    the pooled terms None on the general path."""
    px = np.empty((x.shape[0], cfg.recurrent_timesteps, sp.cell.W.shape[1]))
    blocks, pooled = _front_end(sp, cfg, x, mode, rng, px)
    run = recurrent.gru_forward if sp.kind == "gru" else recurrent.lstm_forward
    hs, cell_cache = run(px, sp.cell, mode=mode)
    out = hs.reshape(hs.shape[0], -1) if cfg.return_sequences else hs[:, -1]
    return out, (x, blocks, cell_cache, pooled)


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
        a, dense_cache = layers.dense_forward(a, dp)
        rate = cfg.dropout_head if idx == 0 else 0.0
        _, (_, scale) = layers.dropout_forward(layers.relu_forward(a)[0], rate, mode, rng)
        # the output a is the next layer's dense input, which this backward reads
        head_caches.append((dense_cache, scale))
    logits, out_cache = layers.dense_forward(a, model.head[-1])
    head_caches.append((out_cache, 1.0))
    probs = softmax(logits)
    return probs, ForwardTrace(mode=mode, stream_caches=stream_caches, head_caches=head_caches)


def _accumulate(total: Tensor | None, part: Tensor) -> Tensor:
    """A gradient summed over blocks: ``part`` for the first block, then
    ``total`` with each later block's ``part`` added in place."""
    if total is None:
        return part
    total += part
    return total


def _stream_backward(sp: StreamParams, cfg: ModelConfig, cache, d_out: Tensor) -> StreamParams:
    """One stream's gradients, held as ``sp`` holds its parameters: the
    cell's BPTT, then one loop over the forward's blocks that re-forms each
    block's cell input and sums the input-weight, kernel and bias gradients
    block by block (see the module docstring)."""
    x, blocks, cell_cache, pooled = cache
    T_out, F, conv = cfg.recurrent_timesteps, cfg.conv_filters, sp.conv
    hs_shape = (x.shape[0], T_out, cfg.stream_units(sp.kind))
    if cfg.return_sequences:
        d_hs = d_out.reshape(hs_shape)
    else:
        d_hs = np.zeros(hs_shape)
        d_hs[:, -1] = d_out
    run = recurrent.gru_backward if sp.kind == "gru" else recurrent.lstm_backward
    da, cell_grads = run(cell_cache, d_hs)
    relu = cfg.conv_activation == "relu"
    rows = max(stop - start for start, stop, _, _ in blocks)
    y_buffer, g_buffer = np.empty((rows, T_out, F)), np.empty((rows, T_out, F))
    if pooled is not None:
        extremes = pooled[0]
        first = x[:, :T_out * cfg.pool_size:cfg.pool_size, 0]
        # per filter, the input value the general path's window winner holds
        winners = np.stack((extremes[..., 0], extremes[..., 1], first)).reshape(3, -1)
    else:
        d_conv = np.empty((rows, x.shape[1] - cfg.conv_kernel + 1, F))
    dW = dK = db = sums = None
    for start, stop, keep, scale in blocks:
        y, g = y_buffer[:stop - start], g_buffer[:stop - start]
        pool_cache = _form_block(sp, cfg, x, pooled, start, stop, y, "train")
        # dropout is linear, so with the forward's keep mask its backward is its forward
        layers.dropout_backward((keep, scale), y)
        _, part = recurrent.project_backward(y, da[start:stop], sp.cell, out=g)
        dW = _accumulate(dW, part)
        if relu:
            layers.relu_backward(y, g)
        layers.dropout_backward((None if relu else keep, scale), g)
        if pooled is not None:
            g2 = g.reshape(-1, F)
            db = _accumulate(db, g2.sum(axis=0))
            sums = _accumulate(sums, winners[:, start * T_out:stop * T_out] @ g2)
        else:
            d = layers.maxpool1d_backward(pool_cache, g, out=d_conv[:stop - start])
            part_K, part_b = layers.conv1d_backward((x[start:stop], conv), d)
            dK = _accumulate(dK, part_K)
            db = _accumulate(db, part_b)
    if pooled is not None:
        K = conv.K[0, 0]
        dK = np.where(K > 0, sums[0], np.where(K < 0, sums[1], sums[2])).reshape(conv.K.shape)
    return StreamParams(sp.kind, Conv1DParams(dK, db), recurrent.CellParams(W=dW, **cell_grads))


def backward(model: TemporalAugmenterModel, trace: ForwardTrace, dlogits: Tensor) -> dict:
    """Exact gradients of every parameter given dL/dlogits from the loss,
    keyed and ordered as ``model.parameters()``.

    The trace must come from a train-mode forward and is consumed by this
    call, which empties it: the head's caches are released once the
    head's gradients are formed, and each stream's cache once that
    stream's are, so a consumed trace holds no array.
    """
    if trace is None or trace.consumed:
        raise TraceError("forward trace is missing or already consumed")
    if trace.mode != "train":
        raise TraceError("backward requires a trace from a train-mode forward")
    trace.consumed = True
    cfg = model.config
    head_caches, trace.head_caches = trace.head_caches, []
    head = [None] * len(model.head)
    da, y = dlogits, None
    for idx in range(len(model.head) - 1, -1, -1):
        dense_cache, scale = head_caches.pop()
        if y is not None:  # a hidden layer, whose output y the layer above read
            layers.dropout_backward((None, scale), layers.relu_backward(y, da))
        y = dense_cache[0]
        da, dW, db = layers.dense_backward(dense_cache, da)
        head[idx] = DenseParams(dW, db)
    streams, offset = [], 0
    for sp in model.streams:
        width = cfg.stream_width(sp.kind)
        # popped, so that the stream's cache is freed once its gradients are formed
        streams.append(_stream_backward(sp, cfg, trace.stream_caches.pop(0),
                                        da[:, offset:offset + width]))
        offset += width
    return TemporalAugmenterModel(cfg, streams, head).parameters()


def param_count(model: TemporalAugmenterModel) -> int:
    """Total number of scalar parameters."""
    return int(sum(p.size for p in model.parameters().values()))


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------
#
# Layout (version 3):
#   bytes 0..7    magic  b"TACKPT01"
#   bytes 8..15   uint64 little-endian header length H
#   bytes 16..16+H  UTF-8 JSON header:
#       {"version": 3, "config": {...}, "tensors": [{"name","shape"}...],
#        "extras": {...}}
#   then, for each entry of "tensors" in order, the raw little-endian
#   float64 values (C order).
# Model parameters are stored in parameters() order, under its names and with
# the shapes _allocate gives them, a cell's as its fused blocks
# ("lstm.cell.U" [u, 4u], "gru.cell.U" [u, 3u]).  Both older versions are
# refused: version 2 stored the GRU's U as two tensors, its z and r columns
# [u, 2u] and its candidate's [u, u], and version 1 one tensor per gate.
# Every stored value is finite.  Callers may attach additional named tensors
# (e.g. scaler statistics) and a JSON extras dict.  Loading reconstructs the
# model bitwise.  The `train` command writes three extras, which `eval` reads
# (see cli.py): "run_config" (the run's config text), "class_names" and
# "data_sha256".

_MAGIC = b"TACKPT01"
_VERSION = 3


def save_checkpoint(path, model: TemporalAugmenterModel, extras: dict | None = None,
                    extra_tensors: dict | None = None) -> None:
    tensors = dict(model.parameters())
    for name, arr in (extra_tensors or {}).items():
        key = f"extra.{name}"
        if key in tensors:
            raise ValueError(f"duplicate tensor name {key!r}")
        tensors[key] = np.asarray(arr, dtype=np.float64)
    header = {
        "version": _VERSION,
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


def _header_config(values) -> ModelConfig:
    """The ModelConfig of a header's ``config``, which must set every field."""
    if not isinstance(values, dict):
        raise ValueError(f"config must be a JSON object, got {values!r}")
    names = {f.name for f in fields(ModelConfig)}
    name = min(values.keys() ^ names, default=None)  # the first in name order
    if name is not None:
        raise ValueError(f"config {'lacks' if name in names else 'has unknown'} field {name!r}")
    return ModelConfig(**values)


def load_checkpoint(path):
    """Returns (model, extras, extra_tensors).

    Any path that is not one whole, valid checkpoint file raises DataError
    naming ``path``: no such file, bad magic or version, a cut or unreadable
    header, a config that lacks, adds or misstates a ModelConfig field, a
    tensor named twice, missing, of the wrong shape or neither a parameter
    nor ``extra.*``, a length other than the header describes, or a tensor
    holding a NaN or infinite value.
    """
    blob = read_file(path, "checkpoint")
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
    if header.get("version") != _VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {header.get('version')!r}")
    try:
        config = _header_config(header.get("config"))
        entries = [(str(e["name"]), tuple(e["shape"])) for e in header["tensors"]]
        # read-only zeros that hold no memory, so every parameter's shape is
        # checked before anything is allocated; numpy raises a ValueError for
        # a dimension it cannot index
        expected = _allocate(config, lambda s: np.broadcast_to(np.float64(0.0), s)).parameters()
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: invalid checkpoint header ({exc!r})") from None
    if any(type(s) is not int or s < 0 for _, shape in entries for s in shape):
        raise DataError(f"{path}: a tensor dimension in the checkpoint header is not an int >= 0")
    header_shapes = dict(entries)
    if len(header_shapes) != len(entries):
        raise DataError(f"{path}: the checkpoint header names a tensor twice")
    for name, arr in expected.items():
        if name not in header_shapes:
            raise DataError(f"{path}: checkpoint missing parameter {name!r}")
        if header_shapes[name] != arr.shape:
            raise DataError(f"{path}: parameter {name!r} has shape {list(header_shapes[name])}, "
                            f"the model expects {list(arr.shape)}")
    name = next((name for name in header_shapes
                 if name not in expected and not name.startswith("extra.")), None)
    if name is not None:
        raise DataError(f"{path}: checkpoint tensor {name!r} is neither a parameter nor extra.*")
    sizes = [math.prod(shape) for _, shape in entries]
    length = 16 + hlen + 8 * sum(sizes)
    if len(blob) != length:
        raise DataError(f"{path}: checkpoint is {len(blob)} bytes, its header describes {length}")
    tensors, offset = {}, 16 + hlen
    for (name, shape), size in zip(entries, sizes):
        tensors[name] = np.frombuffer(blob, "<f8", size, offset).reshape(shape)
        offset += 8 * size
    name = next((name for name, t in tensors.items() if not np.isfinite(t).all()), None)
    if name is not None:
        raise DataError(f"{path}: tensor {name!r} holds a NaN or infinite value")
    model = _allocate(config)
    for name, arr in model.parameters().items():
        arr[...] = tensors.pop(name)
    extra_tensors = {n[len("extra."):]: t.astype(np.float64)
                     for n, t in tensors.items() if n.startswith("extra.")}
    return model, header.get("extras", {}), extra_tensors
