"""Feed-forward layers with matching analytic backward passes.

Every layer comes as a ``*_forward`` / ``*_backward`` pair.  Forward returns
``(y, cache)``; backward consumes the cache produced by the immediately
preceding forward together with the gradient of the loss w.r.t. ``y``.
All caches are plain tuples documented next to the forward function.

Each stream's convolution has one tap, so it is a dense map applied at
each timestep (Lin, Chen & Yan, *Network in Network*, arXiv:1312.4400),
and its weights are a ``DenseParams`` like a dense layer's.

``conv1d_forward``, ``maxpool1d_forward`` and ``maxpool1d_backward`` are
the textbook layers, and no code in this package calls them: ``model``'s
stream front-end forms its pooled conv outputs and routes the pool
gradient itself, and the gradient check verifies that front-end through
the whole model, not these three.  They stay as the oracle the model's
tests hold its front-end to bit for bit, and as the names that
``perfbench/tracer.py`` times.  ``conv1d_backward`` is the model's own:
both front-end paths form their kernel gradient with it, each from the
inputs it pooled and their gradient, and sum their bias gradient
themselves.

ReLU and then dropout follow each stream's pooling and each hidden dense
layer.  Both work in place, a forward over its input and a backward over
its gradient.  ReLU's backward reads the output y, not a mask:
``relu_backward(y, dy)`` then ``dropout_backward((None, scale), dy)`` is
``(dy * (y > 0)) * scale``.  As the scale is at least 1, y > 0 holds
exactly where the input x was kept and positive, so this is the textbook
``((dy * keep) * scale) * (x > 0)`` bit for bit, except where
``dy * scale`` overflows at an element that the ReLU zeroes: there the
textbook order gives NaN (inf * 0), and this one 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor_core import Rng, ShapeError, Tensor, is_train_mode


@dataclass
class DenseParams:
    """Affine layer weights: W is [in, out], b is [out]."""
    W: Tensor
    b: Tensor

    @property
    def in_size(self) -> int:
        return self.W.shape[0]

    @property
    def out_size(self) -> int:
        return self.W.shape[1]


# ---------------------------------------------------------------------------
# dense
# ---------------------------------------------------------------------------

def dense_forward(x: Tensor, p: DenseParams):
    """y = x @ W + b for x of shape [n, in].

    cache = (x, p).
    """
    if x.ndim != 2 or x.shape[1] != p.in_size:
        raise ShapeError(f"dense input {x.shape} incompatible with W {p.W.shape}")
    return x @ p.W + p.b, (x, p)


def dense_backward(cache, dy: Tensor):
    """Return (dx, dW, db) given dL/dy."""
    x, p = cache
    dx = dy @ p.W.T
    dW = x.T @ dy
    db = dy.sum(axis=0)
    return dx, dW, db


# ---------------------------------------------------------------------------
# 1-D convolution with one tap (valid padding, stride 1)
# ---------------------------------------------------------------------------

def conv1d_forward(x: Tensor, p: DenseParams):
    """A one-tap convolution, the dense map ``p`` at each timestep:
    x [n, T, in] -> y = x @ W + b [n, T, out].  cache = (x, p).
    """
    if x.ndim != 3 or x.shape[2] != p.in_size:
        raise ShapeError(f"conv1d input {x.shape} incompatible with W {p.W.shape}")
    y = x @ p.W
    y += p.b
    return y, (x, p)


def conv1d_backward(x: Tensor, dy: Tensor) -> Tensor:
    """Return dL/dW [in, out], x^T dy summed over every row, as one 2-D
    product, given the input x [..., in] and dL/dy [..., out]: each
    array's leading indices, flattened in C order, number its rows, and
    x's row i pairs with dy's row i.

    There is no dx: conv1d is only ever the network's first layer.  Nor is
    there a db, dy summed over its rows, which ``model`` forms itself.
    """
    return x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])


# ---------------------------------------------------------------------------
# max pooling over time
# ---------------------------------------------------------------------------

def maxpool1d_forward(x: Tensor, pool: int):
    """Non-overlapping window max over time; trailing remainder steps dropped.

    x [n, T, c] -> y [n, T // pool, c];  cache = (x.shape, mask) where mask is
    a boolean [n, T // pool, pool, c] marking each window's winner, the first
    index on ties (as ``argmax`` picks).  The max is a running ``np.maximum``
    over the strided window view; it keeps its second operand on ties, so a
    tie between -0.0 and +0.0 also keeps the first one.  A window holding NaN
    gives NaN and marks no winner.
    """
    if pool < 1:
        raise ValueError(f"pool must be >= 1, got {pool}")
    if x.ndim != 3:
        raise ShapeError(f"maxpool1d input must be [n, T, c], got {x.shape}")
    n, T, c = x.shape
    if pool > T:
        raise ShapeError(f"pool window {pool} exceeds sequence length {T}")
    T_out = T // pool
    windows = x[:, :T_out * pool, :].reshape(n, T_out, pool, c)
    y = np.empty((n, T_out, c))
    y[...] = windows[:, :, 0]
    for j in range(1, pool):
        np.maximum(windows[:, :, j], y, out=y)
    mask = np.empty(windows.shape, dtype=bool)
    seen = np.zeros(y.shape, dtype=bool)
    for j in range(pool):
        hit = mask[:, :, j]
        np.equal(windows[:, :, j], y, out=hit)
        hit &= ~seen
        seen |= hit
    return y, (x.shape, mask)


def maxpool1d_backward(cache, dy: Tensor):
    """Copy dL/dy to each window's winner; every other slot, the dropped
    remainder steps included, is +0.0."""
    shape, mask = cache
    n, T_out, pool, c = mask.shape
    dx = np.empty(shape)
    dx[:, T_out * pool:] = 0.0
    # Multiplying the raw float64 bit patterns by the 0/1 mask copies each
    # winner's bits verbatim and leaves all bits clear (+0.0) elsewhere; a
    # float product would leave -0.0 wherever dy < 0.
    bits = np.asarray(dy, dtype=np.float64).view(np.uint64)
    windows = dx[:, :T_out * pool, :].reshape(mask.shape).view(np.uint64)
    np.multiply(bits[:, :, None, :], mask, out=windows)
    return dx


# ---------------------------------------------------------------------------
# ReLU and dropout (inverted), applied in that order
# ---------------------------------------------------------------------------

def relu_forward(x: Tensor):
    """y = max(0, x), written over x, which is returned; cache None."""
    return np.maximum(x, 0.0, out=x), None


def relu_backward(y: Tensor, dy: Tensor):
    """dy * (y > 0), written over dy, given the output y of ReLU or of ReLU then dropout."""
    return np.multiply(dy, y > 0, out=dy)


def dropout_forward(x: Tensor, rate: float, mode: str, rng: Rng | None = None):
    """Inverted dropout: keep with probability 1-rate, scale kept values by 1/(1-rate).

    Each element takes one b-bit field ``u`` of the rng's bit stream
    (``rng.next_bits``), b the smallest of 1, 8 and 16 for which
    ``rate * 2**b`` is an integer, else 32, and is kept when ``u >= t``
    with ``t = min(ceil(rate * 2**b), 2**b - 1)``.  ``rate * 2**b`` is
    exact, so below 32 bits t is ``rate * 2**b`` and the drop probability
    ``t / 2**b`` exactly rate; at 32 bits, for rate <= 1 - 2**-32 it lies in
    ``[rate, rate + 2**-32)``, and above that t is capped so that the
    threshold fits in 32 bits, and ``t / 2**32 = 1 - 2**-32`` lies within
    ``2**-32`` below rate.  At rate 0.5, the default stream rate, b is 1:
    an element is kept where its bit is set.  Fields are taken in C order,
    one per element, and ``Rng`` carries a call's unused bits to its next
    call, so masks drawn block after block over consecutive rows equal one
    mask drawn for the whole array, whatever the block sizes.

    The result is written over ``x``, which is returned.  Eval mode and rate
    0 are the identity and consume no rng draws.
    cache = (packed keep bits | None, scale): the keep decisions as
    little-endian bits (``np.packbits(keep, bitorder="little")``), which
    at b = 1 are the drawn bytes themselves.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not is_train_mode(mode) or rate == 0.0:
        return x, (None, 1.0)
    if rng is None:
        raise ValueError("train-mode dropout with rate > 0 requires an rng")
    b = next((b for b in (1, 8, 16) if (rate * 2.0 ** b).is_integer()), 32)
    drawn = rng.next_bits(x.size * b)
    if b == 1:  # rate 0.5: the threshold is 1, so each drawn bit is its decision
        packed, keep = drawn, np.unpackbits(drawn, count=x.size, bitorder="little").view(bool)
    else:
        keep = drawn.view(f"<u{b // 8}") >= min(math.ceil(rate * 2.0 ** b), 2 ** b - 1)
        packed = np.packbits(keep, bitorder="little")
    scale = 1.0 / (1.0 - rate)
    np.multiply(x, keep.reshape(x.shape), out=x)
    x *= scale
    return x, (packed, scale)


def dropout_backward(cache, dy: Tensor):
    """(dy * keep) * scale, written over dy, which is returned, the keep
    mask unpacked from the forward's bits.  Bits of None multiply by the
    scale alone, as after ``relu_backward``."""
    packed, scale = cache
    if packed is not None:
        keep = np.unpackbits(packed, count=dy.size, bitorder="little").view(bool)
        np.multiply(dy, keep.reshape(dy.shape), out=dy)
    if scale != 1.0:
        dy *= scale
    return dy
