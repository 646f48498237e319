"""Feed-forward layers with matching analytic backward passes.

Every layer comes as a ``*_forward`` / ``*_backward`` pair.  Forward returns
``(y, cache)``; backward consumes the cache produced by the immediately
preceding forward together with the gradient of the loss w.r.t. ``y``.
All caches are plain tuples documented next to the forward function.
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


@dataclass
class Conv1DParams:
    """1-D convolution weights: K is [kernel_size, in_channels, filters], b is [filters]."""
    K: Tensor
    b: Tensor

    @property
    def kernel_size(self) -> int:
        return self.K.shape[0]

    @property
    def in_channels(self) -> int:
        return self.K.shape[1]

    @property
    def filters(self) -> int:
        return self.K.shape[2]


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
# 1-D convolution (valid padding, stride 1)
# ---------------------------------------------------------------------------

def conv1d_forward(x: Tensor, p: Conv1DParams):
    """Sliding dot product over time: x [n, T, in_ch] -> y [n, T-k+1, filters].

    With kernel_size 1 this reduces exactly to a per-timestep dense map.
    cache = (x, p).
    """
    if x.ndim != 3 or x.shape[2] != p.in_channels:
        raise ShapeError(f"conv1d input {x.shape} incompatible with kernel {p.K.shape}")
    n, T, _ = x.shape
    k = p.kernel_size
    if T < k:
        raise ShapeError(f"conv1d needs T >= kernel_size, got T={T}, kernel_size={k}")
    T_out = T - k + 1
    # (x_0 K_0 + b) + x_1 K_1 + ...: the bias joins right after the first
    # product, which is the same sum as starting from a copy of b.
    y = x[:, :T_out, :] @ p.K[0]
    y += p.b
    for j in range(1, k):
        y += x[:, j:j + T_out, :] @ p.K[j]
    return y, (x, p)


def conv1d_backward(cache, dy: Tensor):
    """Return (dK, db) given dL/dy of shape [n, T_out, filters].

    There is no dx: conv1d is only ever the network's first layer.
    """
    x, p = cache
    T_out = dy.shape[1]
    dK = np.zeros_like(p.K)
    for j in range(p.kernel_size):
        dK[j] = np.tensordot(x[:, j:j + T_out, :], dy, axes=([0, 1], [0, 1]))
    db = dy.sum(axis=(0, 1))
    return dK, db


# ---------------------------------------------------------------------------
# max pooling over time
# ---------------------------------------------------------------------------

def maxpool1d_forward(x: Tensor, pool: int, mode: str = "train"):
    """Non-overlapping window max over time; trailing remainder steps dropped.

    x [n, T, c] -> y [n, T // pool, c];  cache = (x.shape, mask) where mask is
    a boolean [n, T // pool, pool, c] marking each window's winner, the first
    index on ties (as ``argmax`` picks).  The max is a running ``np.maximum``
    over the strided window view; it keeps its second operand on ties, so a
    tie between -0.0 and +0.0 also keeps the first one.  A window holding NaN
    gives NaN and marks no winner.  Eval mode builds no mask; its cache is None.
    """
    if pool < 1:
        raise ValueError(f"pool must be >= 1, got {pool}")
    if x.ndim != 3:
        raise ShapeError(f"maxpool1d input must be [n, T, c], got {x.shape}")
    train = is_train_mode(mode)
    n, T, c = x.shape
    if pool > T:
        raise ShapeError(f"pool window {pool} exceeds sequence length {T}")
    T_out = T // pool
    windows = x[:, :T_out * pool, :].reshape(n, T_out, pool, c)
    y = windows[:, :, 0].copy()
    for j in range(1, pool):
        np.maximum(windows[:, :, j], y, out=y)
    if not train:
        return y, None
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
    remainder steps included, stays +0.0."""
    shape, mask = cache
    n, T_out, pool, c = mask.shape
    dx = np.zeros(shape, dtype=np.float64)
    # Multiplying the raw float64 bit patterns by the 0/1 mask copies each
    # winner's bits verbatim and leaves all bits clear (+0.0) elsewhere; a
    # float product would leave -0.0 wherever dy < 0.
    bits = np.asarray(dy, dtype=np.float64).view(np.uint64)
    windows = dx[:, :T_out * pool, :].reshape(mask.shape).view(np.uint64)
    np.multiply(bits[:, :, None, :], mask, out=windows)
    return dx


# ---------------------------------------------------------------------------
# dropout (inverted) and ReLU
# ---------------------------------------------------------------------------

def dropout_forward(x: Tensor, rate: float, mode: str, rng: Rng | None = None):
    """Inverted dropout: keep with probability 1-rate, scale kept values by 1/(1-rate).

    An element is kept when its draw ``u = (w >> 11) * 2**-53`` from the raw
    word ``w`` is ``>= rate``, as ``rng.uniform`` would give it.  Both
    ``w >> 11`` and ``rate * 2**53`` are exact, so ``u >= rate`` holds exactly
    when the integer ``w >> 11`` is ``>= ceil(rate * 2**53)``, that is when
    ``w >= ceil(rate * 2**53) << 11``.  For rate < 1 that threshold is at most
    ``(2**53 - 1) << 11 < 2**64``, so the mask is one uint64 comparison of the
    raw words, with no float conversion.  Draws are taken in C order, one per
    element, so masks drawn block after block over consecutive rows equal
    one mask drawn for the whole array.

    Eval mode and rate 0 are the identity and consume no rng draws.
    cache = (keep_mask | None, scale).
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not is_train_mode(mode) or rate == 0.0:
        return x, (None, 1.0)
    if rng is None:
        raise ValueError("train-mode dropout with rate > 0 requires an rng")
    threshold = np.uint64(math.ceil(rate * 2.0 ** 53) << 11)
    keep = (rng.next_uint64(x.size) >= threshold).reshape(x.shape)
    scale = 1.0 / (1.0 - rate)
    return x * keep * scale, (keep, scale)


def dropout_backward(cache, dy: Tensor):
    keep, scale = cache
    if keep is None:
        return dy
    return dy * keep * scale


def relu_forward(x: Tensor, mode: str = "train"):
    """y = max(0, x); cache is the strict positive mask (gradient 0 at x == 0),
    or None in eval mode."""
    y = np.maximum(x, 0.0)
    return y, (x > 0 if is_train_mode(mode) else None)


def relu_backward(mask, dy: Tensor):
    return dy * mask
