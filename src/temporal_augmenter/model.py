"""The dual-stream ensemble network.

Each stream runs conv1d -> maxpool -> ReLU -> dropout -> recurrent cell;
the conv1d has one tap, the dense map ``conv`` (W [d, F], b [F]) at each
of the T steps of the d input channels (see ``layers``).  The GRU stream
captures short-term structure, the LSTM stream long-term structure.  Each
stream's output, the cell's last hidden state, is concatenated with the
other's and fed through a dense head ending in softmax.

The stream front-end is one loop over blocks of batch rows
(``_front_end``), so a block's intermediates stay in cache instead of
streaming whole [n, T, F] arrays through memory.  A block holds ``rows =
max(1, _BLOCK_BYTES // (width * F * 8))`` rows, the most whose widest
float64 intermediate [rows, width, F] fits in ``_BLOCK_BYTES``; the last
block takes what is left.  The loop forms a block's pooled pre-activation
[rows, T_out, F] and applies the ReLU (``_form_block``) in one reused
buffer, in either mode; it is a function of its own so that the
buffer is freed before the cells run.  It applies the dropout in place
and, while the block is still in cache, multiplies it by the cell's input
weights and adds the cell's bias into its rows of the cell's input
projection px = y (W s) + b s [n, T_out, k], s halving the sigmoid gates'
columns and W s and b s formed once per stream (``recurrent.project``),
which is all the cell reads.  No [n, T_out, F] cell input exists in either
mode.  Two paths form the pooled pre-activation; nothing else differs.

The pooled path runs on one input channel (``_pools_first``: the mitbih
and tess shapes; ``width = T_out``).  With K = W[0], the [F] weights of
that channel, its conv output is ``fl(fl(x[n, t] * K[f]) + b'[f])`` with
``b' = b + 0.0``.  Rounding is monotone, so per filter that is a monotone
function of x, non-decreasing where K[f] >= 0 and non-increasing where
K[f] < 0, and a window's max of it is its value at the window's max of x
or at its min: ``max(xmax * K, xmin * K) + b'``.  b' is never -0.0, so no
such sum is -0.0, and equal values have equal bits.  ``forward`` takes the
window max and min of x once for both streams, by pairwise ``np.maximum``
and ``np.minimum``, into one [2, n, T_out] array, which a train forward
extends with each window's first step for the backward
(``_window_extremes``).  Per block it forms that max plus b' as one
product of a [rows * T_out, 3] operand, the block's window max, min and a
one, with the [3, F] matrix [K+; K-; b']: K with 0.0 where K < 0, K with
0.0 where K > 0, and b'.  For finite x one of a filter's two K terms is an
exact zero (both are where K is +-0.0), so their sum is the other term's
rounded value, and b', the last term of the sum, adds to it as a
separate ``+ b'`` would, while the BLAS kernel sums k in order (checked with
OpenBLAS's SkylakeX, Haswell and Sandybridge kernels).  The operand lives
in a reused buffer of its own, in the forward and the backward alike.
No [n, T, F] conv output or pool winner mask exists on this path.

The general path runs on more channels (ionosphere's two; ``width = T``)
and is the oracle the pooled path is tested against.  ``forward`` forms
its windows once for both streams (``_window_slots``): a
[pool, n, T_out, d + 1] array whose slot j holds step t * pool + j of each
window t, then a one; the remainder steps are dropped.  Each stream
stacks [W; b] [d + 1, F] once.  Per block, one product per slot
multiplies the block's [rows * T_out, d + 1] slot rows by [W; b] into a
reused [pool, rows * T_out, F] buffer of slot products; the window max is
pool - 1 ``np.maximum`` calls in ``maxpool1d_forward``'s operand order,
and the ReLU follows.  Each sum over k then ends with 1 * b, which is
exact, so while the BLAS kernel sums k in order (checked with OpenBLAS's
SkylakeX, Haswell and Sandybridge kernels) a slot product is
``conv1d_forward``'s ``x @ W + b`` at that step, bit for bit.  No
[n, T, F] conv output or pool winner mask exists on this path either.
Pooling before the ReLU is the network conv1d -> ReLU -> maxpool, bit for
bit, on 1/pool_size of the data: ``max(relu(a), relu(b)) ==
relu(max(a, b))`` exactly (``np.maximum(-0.0, 0.0)`` is +0.0 either way),
and both orders send a window's gradient to its first maximal position
when that max is positive and a zero otherwise.  That zero is
-0.0 when the incoming gradient is negative, and in a window whose max is
<= 0 it may sit at a different position; the kernel and bias gradients sum
over positions, so at most the sign of a kernel gradient entry that is
exactly zero can differ.

The backward recomputes each block's cell input rather than keeping it
(Chen et al., *Training Deep Nets with Sublinear Memory Cost*,
arXiv:1604.06174): forming a block costs a three-column product or one
narrow product per slot and a max, so it is cheaper to form again than to
store.  A block's cache is its dropout keep mask as packed bits (None
without dropout) and its dropout scale.  The cell's backward returns the
pre-activation gradient da [n, T_out, k]; then, per block, the backward
re-forms the cell input with ``_form_block`` and the keep mask into a
reused buffer, bit for bit the forward's, the general path keeping the
slot products formed there; adds x^T da into the cell's input-weight
gradient and forms da W^T in a second reused buffer
(``recurrent.project_backward``); and runs the ReLU and dropout backward,
which read that cell input, not a mask (see ``layers``), into the pooled
gradient g [rows, T_out, F].  Both paths then add g summed over its rows
to the bias gradient, and one ``layers.conv1d_backward`` product of the
block's front-end inputs with their gradient to the kernel gradient; no
conv-output gradient exists.  The general path's inputs are its window
slots without the ones column, and their gradient its slot products, over
which ``_route_to_winners`` writes g's bits at each window's winner and
+0.0 at its other slots: ``maxpool1d_backward``'s gradient bit for bit,
in slot order and with no mask built, as the winner is ``maxpool1d``'s,
the first slot whose product holds the window max, and a window holding
NaN has none.  The product is the forward's slot product, transposed; it
sums over slots, not over the textbook's steps, so its last bits may
differ from the textbook's.  The pooled path's inputs are the block's
[rows * T_out, 3] columns of ``_window_extremes`` and their gradient g; of
each filter's three sums it keeps the one over the input value that the
general path's window winner holds: the window max of x where K[f] > 0,
the min where K[f] < 0, and the window's first step where K[f] is +-0.0
and every step ties.  Its last bits may differ from the general path's,
as may its value where rounding makes two window values equal while
their x differ.  Over the same blocks, the bias gradient is the
textbook's bit for bit: numpy's sum starts at +0.0, so no partial sum is
-0.0 and the +0.0 that the textbook adds for each non-winning step
changes none of them.

Blocking changes no bit of the forward: each sample is filtered on its
own, pooling, the ReLU and the dropout scaling are elementwise, and
the dropout draws are fields of the bit stream of counter-based SplitMix64
words taken in C order, the ``Rng`` carrying a block's unused bits to the
next block, so drawing block after block yields the bits of one draw over
the whole array.  Nor does blocking the projection for the default cells
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
once, in ``TemporalAugmenterModel.parameters``.  The checkpoint stores
neither: its loader reads both from a model of read-only zeros that holds
no memory, built for the header's config, and the
backward returns its gradients as the ``parameters()`` of a model built of
them.  ``build`` draws parameters in a fixed documented order so a
(config, seed) pair always produces bitwise-identical models:  for each
stream in ``config.streams`` order the conv W (he-uniform) then the
cell parameters (glorot-uniform input weights, orthogonal recurrent
weights); then the head layers first-to-last (glorot-uniform).  Biases are
zero.

Train-mode forward consumes rng draws in the same stream order: one dropout
mask per stream, one field of the ``Rng``'s bit stream per element of the
[n, T_out, F] cell input (one bit at the default rate 0.5, 64 to a
SplitMix64 word; drawn block by block, the same bits as one whole-array
draw), then the head dropout (32 bits per element at its default 0.3).
Eval-mode forward consumes none.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import layers, recurrent
from .data import DataError, ScalerParams, read_file
from .layers import DenseParams
from .settings import POSITIVE, RATE, check, setting
from .tensor_core import (Rng, ShapeError, Tensor, init_glorot_uniform, init_he_uniform,
                          is_train_mode, softmax)


# Bytes of one block's widest intermediate in the stream front-end: about
# half an L2 cache, so a block's intermediates stay in cache.
_BLOCK_BYTES = 512 * 1024


class TraceError(RuntimeError):
    """Raised when a backward pass gets a stale, reused, or eval-mode trace."""


_STREAMS = ("gru", "lstm")


@dataclass
class ModelConfig:
    """The network's settings (see ``settings``).  The data gives the three
    with no default, so no config key sets them.  Each rule reads one field,
    so a config file's line is checked before the data gives the shape."""
    input_timesteps: int = setting(MISSING, POSITIVE)
    input_channels: int = setting(MISSING, POSITIVE)
    num_classes: int = setting(MISSING, (lambda v: v >= 2, "must be >= 2"))
    conv_filters: int = setting(128, POSITIVE)
    pool_size: int = setting(2, POSITIVE)
    dropout_stream: float = setting(0.5, RATE)
    dropout_head: float = setting(0.3, RATE)
    lstm_units: int = setting(10, POSITIVE)
    gru_units: int = setting(10, POSITIVE)
    dense_sizes: tuple[int, ...] = setting(
        (64, 32), (lambda v: all(s > 0 for s in v), "must be positive integers"))
    streams: tuple[str, ...] = setting(
        _STREAMS, (lambda v: v and set(v) <= set(_STREAMS),
                   f"must be a non-empty subset of {_STREAMS}"),
        (lambda v: len(set(v)) == len(v), "must not hold a duplicate stream"))

    def validate(self) -> None:
        check(self)
        if self.recurrent_timesteps < 1:
            raise ValueError(
                f"windows of pool_size={self.pool_size} leave no timesteps from "
                f"input_timesteps={self.input_timesteps}")

    __post_init__ = validate  # a ModelConfig is checked however it is made

    @property
    def recurrent_timesteps(self) -> int:
        """Timesteps seen by the recurrent cells after pooling."""
        return self.input_timesteps // self.pool_size

    def stream_units(self, kind: str) -> int:
        return self.gru_units if kind == "gru" else self.lstm_units

    @property
    def concat_width(self) -> int:
        return sum(self.stream_units(kind) for kind in self.streams)


@dataclass
class StreamParams:
    kind: str  # "gru" or "lstm"
    conv: DenseParams  # the one-tap convolution, W [input_channels, conv_filters]
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
            out[f"{sp.kind}.conv.W"] = sp.conv.W
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
    d, F = config.input_channels, config.conv_filters
    streams = [StreamParams(kind=kind, conv=DenseParams(W=make((d, F)), b=make((F,))),
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
        sp.conv.W[...] = init_he_uniform(sp.conv.in_size, sp.conv.out_size, rng)
        recurrent.draw_params(sp.cell, sp.kind, rng)
    for dp in model.head:
        dp.W[...] = init_glorot_uniform(dp.in_size, dp.out_size, rng)
    return model


def _pools_first(cfg: ModelConfig) -> bool:
    """Whether the stream front-end takes the pooled path: one input
    channel (see the module docstring)."""
    return cfg.input_channels == 1


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


def _window_extremes(cfg: ModelConfig, x: Tensor, mode: str) -> Tensor:
    """Each window's max and min of ``x``, then in train mode its first step,
    which only the backward reads: [3, n, T_out], or [2, n, T_out] in eval
    mode.  The max and min by the ufuncs that ``max(axis)`` and
    ``min(axis)`` apply, in their order, so with their element, signed zero
    and NaN included."""
    T_out, pool = cfg.recurrent_timesteps, cfg.pool_size
    steps = x[:, :T_out * pool, 0]
    extremes = np.stack([steps[:, ::pool]] * (3 if is_train_mode(mode) else 2))
    for j in range(1, pool):
        np.maximum(extremes[0], steps[:, j::pool], out=extremes[0])
        np.minimum(extremes[1], steps[:, j::pool], out=extremes[1])
    return extremes


def _window_slots(cfg: ModelConfig, x: Tensor) -> Tensor:
    """The general path's windows of ``x``, [pool, n, T_out, d + 1]: slot j
    holds step t * pool + j of window t, then a one; the remainder steps
    are dropped."""
    n, d = x.shape[0], cfg.input_channels
    T_out, pool = cfg.recurrent_timesteps, cfg.pool_size
    slots = np.ones((pool, n, T_out, d + 1))
    slots[..., :d] = x[:, :T_out * pool].reshape(n, T_out, pool, d).transpose(2, 0, 1, 3)
    return slots


def _stream_terms(sp: StreamParams, windows: Tensor):
    """(windows, weights) that ``_form_block`` reads, given the forward's
    windows (see the module docstring); on both paths the bias is the last
    row of the weights.  On the pooled path: ``_window_extremes`` and the
    [3, F] matrix [K+; K-; b + 0.0] that a block's window max, min and a
    one multiply.  On the general path: ``_window_slots`` and [W; b]."""
    if windows.ndim == 4:
        return windows, np.vstack((sp.conv.W, sp.conv.b))
    K = sp.conv.W[0]
    # xmax * K where K > 0, xmin * K where K < 0, both terms where K is +-0 or NaN
    return windows, np.stack((np.where(K < 0, 0.0, K), np.where(K > 0, 0.0, K), sp.conv.b + 0.0))


def _form_block(terms, start: int, stop: int, y: Tensor, scratch: Tensor) -> Tensor:
    """Write the activated, pooled pre-activation of batch rows start:stop
    into ``y`` [stop - start, T_out, F], by the path that ``terms``
    (``_stream_terms``) selects, and return the first values of the flat
    ``scratch``, where the pooled path writes the block's window max, min
    and a one per window as the [3, rows * T_out] operand of its product,
    and the general path each slot's conv output as the block's
    [pool, rows * T_out, F] slot products.  The backward's re-form calls
    it too, so it sees the forward's bits."""
    windows, weights = terms
    m = y.shape[0] * y.shape[1]
    if windows.ndim == 3:
        scratch = scratch[:3 * m].reshape(3, m)
        scratch[:2] = windows[:2, start:stop].reshape(2, m)
        scratch[2] = 1.0
        np.matmul(scratch.T, weights, out=y.reshape(m, -1))
    else:
        scratch = scratch[:len(windows) * y.size].reshape(len(windows), m, -1)
        for slot, product in zip(windows[:, start:stop], scratch):
            np.matmul(slot.reshape(m, -1), weights, out=product)
        # maxpool1d_forward's running max, in its operand order; with one
        # slot, np.maximum(c, c) is c, NaN included
        pooled = y.reshape(scratch.shape[1:])
        np.maximum(scratch[min(1, len(scratch) - 1)], scratch[0], out=pooled)
        for product in scratch[2:]:
            np.maximum(product, pooled, out=pooled)
    layers.relu_forward(y)
    return scratch


def _block_buffers(cfg: ModelConfig, rows: int, pooled: bool):
    """A block's reused [rows, T_out, F] buffer, and the flat scratch that
    ``_form_block`` writes: the pooled path's [3, rows * T_out] operand, or
    the general path's [pool, rows * T_out, F] slot products."""
    T_out, F = cfg.recurrent_timesteps, cfg.conv_filters
    return np.empty((rows, T_out, F)), np.empty((3 if pooled else cfg.pool_size * F) * rows * T_out)


def _front_end(sp: StreamParams, cfg: ModelConfig, terms, mode: str, rng, px: Tensor):
    """The block loop (see the module docstring) given ``_stream_terms``,
    writing every row of ``px``.  Returns one (start, stop, keep mask,
    dropout scale) per block."""
    Ws, bs = recurrent.scaled_input(sp.cell)
    pooled = terms[0].ndim == 3
    width = cfg.recurrent_timesteps if pooled else cfg.input_timesteps
    bounds = _block_bounds(px.shape[0], width, cfg)
    buffer, scratch = _block_buffers(cfg, max(stop - start for start, stop in bounds), pooled)
    blocks = []
    for start, stop in bounds:
        y = buffer[:stop - start]
        _form_block(terms, start, stop, y, scratch)
        _, (keep, scale) = layers.dropout_forward(y, cfg.dropout_stream, mode, rng)
        recurrent.project(y, Ws, bs, out=px[start:stop])
        blocks.append((start, stop, keep, scale))
    return blocks


def _stream_forward(sp: StreamParams, cfg: ModelConfig, x: Tensor, windows: Tensor, mode: str,
                    rng):
    """One stream over the batch x, given the forward's ``_window_extremes``
    or ``_window_slots``, all that the front-end reads of x.  It writes every
    row of the cell's input projection px, block by block; no [n, T_out, F]
    cell input exists in either mode.  cache = (blocks, cell cache, stream
    terms)."""
    px = np.empty((x.shape[0], cfg.recurrent_timesteps, sp.cell.W.shape[1]))
    terms = _stream_terms(sp, windows)
    blocks = _front_end(sp, cfg, terms, mode, rng, px)
    run = recurrent.gru_forward if sp.kind == "gru" else recurrent.lstm_forward
    h, cell_cache = run(px, sp.cell, mode=mode)
    return h, (blocks, cell_cache, terms)


def forward(model: TemporalAugmenterModel, x: Tensor, mode: str = "eval", rng: Rng | None = None):
    """Run the network; returns (probs [n, num_classes], ForwardTrace)."""
    cfg = model.config
    if x.ndim != 3 or x.shape[1] != cfg.input_timesteps or x.shape[2] != cfg.input_channels:
        raise ShapeError(
            f"input {x.shape} does not match configured "
            f"[n, {cfg.input_timesteps}, {cfg.input_channels}]")
    # formed once, both streams read them
    windows = _window_extremes(cfg, x, mode) if _pools_first(cfg) else _window_slots(cfg, x)
    stream_outs = []
    stream_caches = []
    for sp in model.streams:
        out, cache = _stream_forward(sp, cfg, x, windows, mode, rng)
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


def _route_to_winners(products: Tensor, g: Tensor) -> Tensor:
    """``maxpool1d_backward`` of g [rows, T_out, F], in the slot-major
    layout of the block's slot ``products`` [pool, rows * T_out, F] from
    ``_form_block``, written over them and returned: each window's winner
    gets g's bits, and the window's other slots +0.0.  The winner is
    ``maxpool1d``'s, the first slot holding the window max: above every
    slot before it and not below any after it.  Every comparison with NaN
    is False, so a window holding NaN has none.  Every slot's winners are
    found before any slot is written."""
    wins = []
    for j, c in enumerate(products):
        tests = [c > other if k < j else c >= other for k, other in enumerate(products) if k != j]
        wins.append(functools.reduce(np.logical_and, tests) if tests else c == c)
    # multiplying g's float64 bit patterns by the 0/1 winners copies its bits
    bits = g.view(np.uint64).reshape(wins[0].shape)
    for win, product in zip(wins, products):
        np.multiply(bits, win, out=product.view(np.uint64))
    return products


def _stream_backward(sp: StreamParams, cfg: ModelConfig, cache, d_out: Tensor) -> StreamParams:
    """One stream's gradients, held as ``sp`` holds its parameters: the
    cell's BPTT, then one loop over the forward's blocks that re-forms each
    block's cell input and sums the input-weight, kernel and bias gradients
    block by block (see the module docstring)."""
    blocks, cell_cache, terms = cache
    windows, F = terms[0], cfg.conv_filters
    run = recurrent.gru_backward if sp.kind == "gru" else recurrent.lstm_backward
    da, cell_grads = run(cell_cache, d_out)
    rows = max(stop - start for start, stop, _, _ in blocks)
    pooled = windows.ndim == 3
    y_buffer, scratch = _block_buffers(cfg, rows, pooled)
    g_buffer = np.empty_like(y_buffer)
    dW = dK = db = None
    for start, stop, keep, scale in blocks:
        y, g = y_buffer[:stop - start], g_buffer[:stop - start]
        block_products = _form_block(terms, start, stop, y, scratch)
        # dropout is linear, so with the forward's keep mask its backward is its forward
        layers.dropout_backward((keep, scale), y)
        _, part = recurrent.project_backward(y, da[start:stop], sp.cell, out=g)
        dW = _accumulate(dW, part)
        layers.dropout_backward((None, scale), layers.relu_backward(y, g))
        db = _accumulate(db, g.reshape(-1, F).sum(axis=0))
        if pooled:
            # the window max, min and first step: per filter, one of them is
            # the input value that the general path's window winner holds
            x, dy = windows[:, start:stop].reshape(3, -1).T, g
        else:
            x, dy = windows[:, start:stop, :, :-1], _route_to_winners(block_products, g)
        dK = _accumulate(dK, layers.conv1d_backward(x, dy))
    if pooled:
        K = sp.conv.W[0]
        dK = np.where(K > 0, dK[0], np.where(K < 0, dK[1], dK[2])).reshape(sp.conv.W.shape)
    return StreamParams(sp.kind, DenseParams(dK, db), recurrent.CellParams(W=dW, **cell_grads))


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
        width = cfg.stream_units(sp.kind)
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
# Layout (version 7):
#   bytes 0..7    magic  b"TACKPT01"
#   bytes 8..15   uint64 little-endian header length H
#   bytes 16..16+H  UTF-8 JSON header:
#       {"version": 7, "config": {...}, "scaler": true|false, "extras": {...}}
#   then the raw little-endian float64 values (C order) of each of
#   parameters() in order, at the shapes _allocate gives them for "config";
#   when "scaler" is true, the standardization mean and std follow, each
#   [input_timesteps, input_channels].
# So the header's config gives every stored tensor's name and shape, and
# the header restates none.  Every stored value is finite, the scaler's std
# is > 0, and loading reconstructs the model bitwise.  Every older version
# is refused: version 6 stored the same values, but its header also listed
# each tensor's name and shape, the scaler's among them; versions 1-5 held
# other config fields, run_config keys, or cell and conv tensors.  The
# `train` command writes three extras, which `eval` reads (see cli.py):
# "run_config" (the run's config text), "class_names" and "data_sha256".

_MAGIC = b"TACKPT01"
_VERSION = 7


def save_checkpoint(path, model: TemporalAugmenterModel, extras: dict | None = None,
                    scaler: ScalerParams | None = None) -> None:
    header = {"version": _VERSION, "config": asdict(model.config),
              "scaler": scaler is not None, "extras": extras or {}}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tensors = [*model.parameters().values(), *((scaler.mean, scaler.std) if scaler else ())]
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for t in tensors:
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
    """Returns (model, extras, scaler), the scaler a ``data.ScalerParams`` or
    None.

    Any path that is not one whole, valid checkpoint file raises DataError
    naming ``path``: no such file, bad magic or version, a cut or unreadable
    header, a config that lacks, adds or misstates a ModelConfig field, a
    "scaler" other than true or false, a length other than the header's
    config describes, a tensor holding a NaN or infinite value, or a
    scaler std holding a value that is not > 0.
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
    if not isinstance(header.get("scaler"), bool):
        raise DataError(f"{path}: checkpoint header's scaler must be true or false, "
                        f"got {header.get('scaler')!r}")
    try:
        config = _header_config(header.get("config"))
        # read-only zeros that hold no memory, so the length is checked
        # before anything is allocated; numpy raises a ValueError for a
        # dimension it cannot index
        shapes = {name: arr.shape for name, arr in _allocate(
            config, lambda s: np.broadcast_to(np.float64(0.0), s)).parameters().items()}
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: invalid checkpoint header ({exc!r})") from None
    if header["scaler"]:
        shapes["scaler.mean"] = shapes["scaler.std"] = (config.input_timesteps,
                                                        config.input_channels)
    sizes = [math.prod(shape) for shape in shapes.values()]
    length = 16 + hlen + 8 * sum(sizes)
    if len(blob) != length:
        raise DataError(f"{path}: checkpoint is {len(blob)} bytes, its header describes {length}")
    tensors, offset = {}, 16 + hlen
    for (name, shape), size in zip(shapes.items(), sizes):
        tensors[name] = np.frombuffer(blob, "<f8", size, offset).reshape(shape)
        offset += 8 * size
    name = next((name for name, t in tensors.items() if not np.isfinite(t).all()), None)
    if name is not None:
        raise DataError(f"{path}: tensor {name!r} holds a NaN or infinite value")
    if header["scaler"] and not (tensors["scaler.std"] > 0.0).all():
        raise DataError(f"{path}: tensor 'scaler.std' holds a value that is not > 0")
    model = _allocate(config)
    for name, arr in model.parameters().items():
        arr[...] = tensors[name]
    scaler = (ScalerParams(mean=tensors["scaler.mean"].copy(), std=tensors["scaler.std"].copy())
              if header["scaler"] else None)
    return model, header.get("extras", {}), scaler
