"""LSTM and GRU cells with full backpropagation through time.

Cell equations (batch n, input size d, units u):

LSTM step
    f = sigmoid(x W_f + h U_f + b_f)        forget gate
    i = sigmoid(x W_i + h U_i + b_i)        input gate
    g = tanh   (x W_g + h U_g + b_g)        candidate
    o = sigmoid(x W_o + h U_o + b_o)        output gate
    c' = f * c + i * g
    h' = o * tanh(c')

GRU step (update gate preserves history)
    z = sigmoid(x W_z + h U_z + b_z)        update gate
    r = sigmoid(x W_r + h U_r + b_r)        reset gate
    hc = tanh(x W_h + (r * h) U_h + b_h)    candidate
    h' = z * h + (1 - z) * hc

``*_forward`` unrolls a [n, T, d] sequence from zero initial state (unless
given) and returns every hidden state; ``*_backward`` accepts a gradient for
the full hidden sequence [n, T, u] and accumulates parameter gradients across
all timesteps.  Input weights are glorot-uniform, recurrent weights
orthogonal, biases zero.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .tensor_core import (
    Rng,
    ShapeError,
    Tensor,
    init_glorot_uniform,
    init_orthogonal,
    sigmoid,
)

_LSTM_GATES = ("f", "i", "g", "o")
_GRU_GATES = ("z", "r", "h")


@dataclass
class LSTMParams:
    W_f: Tensor
    W_i: Tensor
    W_g: Tensor
    W_o: Tensor
    U_f: Tensor
    U_i: Tensor
    U_g: Tensor
    U_o: Tensor
    b_f: Tensor
    b_i: Tensor
    b_g: Tensor
    b_o: Tensor

    @property
    def input_size(self) -> int:
        return self.W_f.shape[0]

    @property
    def units(self) -> int:
        return self.W_f.shape[1]


@dataclass
class GRUParams:
    W_z: Tensor
    W_r: Tensor
    W_h: Tensor
    U_z: Tensor
    U_r: Tensor
    U_h: Tensor
    b_z: Tensor
    b_r: Tensor
    b_h: Tensor

    @property
    def input_size(self) -> int:
        return self.W_z.shape[0]

    @property
    def units(self) -> int:
        return self.W_z.shape[1]


def init_lstm_params(input_size: int, units: int, rng: Rng) -> LSTMParams:
    """Draw order: W_f, W_i, W_g, W_o then U_f, U_i, U_g, U_o; biases zero."""
    ws = {f"W_{g}": init_glorot_uniform(input_size, units, (input_size, units), rng)
          for g in _LSTM_GATES}
    us = {f"U_{g}": init_orthogonal(units, units, rng) for g in _LSTM_GATES}
    bs = {f"b_{g}": np.zeros(units) for g in _LSTM_GATES}
    return LSTMParams(**ws, **us, **bs)


def init_gru_params(input_size: int, units: int, rng: Rng) -> GRUParams:
    """Draw order: W_z, W_r, W_h then U_z, U_r, U_h; biases zero."""
    ws = {f"W_{g}": init_glorot_uniform(input_size, units, (input_size, units), rng)
          for g in _GRU_GATES}
    us = {f"U_{g}": init_orthogonal(units, units, rng) for g in _GRU_GATES}
    bs = {f"b_{g}": np.zeros(units) for g in _GRU_GATES}
    return GRUParams(**ws, **us, **bs)


def params_as_dict(p) -> dict:
    return {f.name: getattr(p, f.name) for f in fields(p)}


def _check_step_shapes(kind: str, x_t: Tensor, h: Tensor, p) -> None:
    if x_t.ndim != 2 or x_t.shape[1] != p.input_size:
        raise ShapeError(f"{kind} input {x_t.shape} incompatible with input size {p.input_size}")
    if h.shape != (x_t.shape[0], p.units):
        raise ShapeError(f"{kind} state {h.shape} incompatible with batch {x_t.shape[0]}, units {p.units}")


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def lstm_step(x_t: Tensor, h: Tensor, c: Tensor, p: LSTMParams):
    """One LSTM step; returns (h', c')."""
    _check_step_shapes("lstm", x_t, h, p)
    f = sigmoid(x_t @ p.W_f + h @ p.U_f + p.b_f)
    i = sigmoid(x_t @ p.W_i + h @ p.U_i + p.b_i)
    g = np.tanh(x_t @ p.W_g + h @ p.U_g + p.b_g)
    o = sigmoid(x_t @ p.W_o + h @ p.U_o + p.b_o)
    c_new = f * c + i * g
    h_new = o * np.tanh(c_new)
    return h_new, c_new

def gru_step(x_t: Tensor, h: Tensor, p: GRUParams):
    """One GRU step; returns h'."""
    _check_step_shapes("gru", x_t, h, p)
    z = sigmoid(x_t @ p.W_z + h @ p.U_z + p.b_z)
    r = sigmoid(x_t @ p.W_r + h @ p.U_r + p.b_r)
    hc = np.tanh(x_t @ p.W_h + (r * h) @ p.U_h + p.b_h)
    return z * h + (1.0 - z) * hc


# ---------------------------------------------------------------------------
# sequence forward/backward
# ---------------------------------------------------------------------------

def lstm_forward(x: Tensor, p: LSTMParams, h0: Tensor | None = None, c0: Tensor | None = None,
                 mode: str = "train"):
    """Unroll over t = 1..T; returns (hs [n, T, u], cache).

    The per-gate weights are fused into [d, 4u] / [u, 4u] blocks (gate order
    f, i, o, g) so each step costs one recurrent matmul.  In eval mode no
    backward follows, so no BPTT state is stored and the cache is None.
    """
    n, T, d = _check_seq(x, p)
    train = _is_train(mode)
    u = p.units
    h = np.zeros((n, u)) if h0 is None else h0
    c = np.zeros((n, u)) if c0 is None else c0
    W = np.concatenate([p.W_f, p.W_i, p.W_o, p.W_g], axis=1)
    U = np.concatenate([p.U_f, p.U_i, p.U_o, p.U_g], axis=1)
    b = np.concatenate([p.b_f, p.b_i, p.b_o, p.b_g])
    px = (x.reshape(n * T, d) @ W).reshape(n, T, 4 * u)
    hs = np.empty((n, T, u))
    if train:
        cs = np.empty((n, T, u))
        h_prev = np.empty((n, T, u))
        c_prev = np.empty((n, T, u))
        gates = np.empty((n, T, 4 * u))  # f, i, o stored as sigmoids, g as tanh
        tc = np.empty((n, T, u))
    s3 = 3 * u
    for t in range(T):
        if train:
            h_prev[:, t] = h
            c_prev[:, t] = c
        a = px[:, t] + h @ U + b
        fio = sigmoid(a[:, :s3])
        g = np.tanh(a[:, s3:])
        c = fio[:, :u] * c + fio[:, u:2 * u] * g
        tct = np.tanh(c)
        h = fio[:, 2 * u:] * tct
        hs[:, t] = h
        if train:
            gates[:, t, :s3] = fio
            gates[:, t, s3:] = g
            tc[:, t] = tct
            cs[:, t] = c
    if not train:
        return hs, None
    cache = (x, p, hs, cs, h_prev, c_prev, gates, tc, (W, U))
    return hs, cache


def lstm_backward(cache, d_hs: Tensor):
    """BPTT given dL/dhs over the whole sequence [n, T, u].

    Returns (dx, grads) with grads keyed like the LSTMParams fields.
    """
    x, p, hs, cs, h_prev, c_prev, gates, tc, (W, U) = cache
    n, T, d = x.shape
    u = p.units
    s3 = 3 * u
    da = np.empty((n, T, 4 * u))
    dh_carry = np.zeros((n, u))
    dc_carry = np.zeros((n, u))
    for t in range(T - 1, -1, -1):
        f = gates[:, t, :u]
        i = gates[:, t, u:2 * u]
        o = gates[:, t, 2 * u:s3]
        g = gates[:, t, s3:]
        tct = tc[:, t]
        dh = d_hs[:, t] + dh_carry
        dc = dc_carry + dh * o * (1.0 - tct * tct)
        dat = da[:, t]
        dat[:, :u] = dc * c_prev[:, t] * f * (1.0 - f)
        dat[:, u:2 * u] = dc * g * i * (1.0 - i)
        dat[:, 2 * u:s3] = dh * tct * o * (1.0 - o)
        dat[:, s3:] = dc * i * (1.0 - g * g)
        dc_carry = dc * f
        dh_carry = dat @ U.T
    da2 = da.reshape(n * T, 4 * u)
    dW = x.reshape(n * T, d).T @ da2
    dU = np.tensordot(h_prev, da, axes=([0, 1], [0, 1]))
    db = da2.sum(axis=0)
    dx = (da2 @ W.T).reshape(n, T, d)
    grads = {}
    for idx, k in enumerate(("f", "i", "o", "g")):
        sl = slice(idx * u, (idx + 1) * u)
        grads[f"W_{k}"] = dW[:, sl]
        grads[f"U_{k}"] = dU[:, sl]
        grads[f"b_{k}"] = db[sl]
    return dx, grads


def gru_forward(x: Tensor, p: GRUParams, h0: Tensor | None = None, mode: str = "train"):
    """Unroll over t = 1..T; returns (hs [n, T, u], cache).

    Update and reset weights are fused into [., 2u] blocks; the candidate
    path stays separate because it multiplies the reset-gated state.  In eval
    mode no backward follows, so no BPTT state is stored and the cache is None.
    """
    n, T, d = _check_seq(x, p)
    train = _is_train(mode)
    u = p.units
    h = np.zeros((n, u)) if h0 is None else h0
    W = np.concatenate([p.W_z, p.W_r, p.W_h], axis=1)
    Uzr = np.concatenate([p.U_z, p.U_r], axis=1)
    bzr = np.concatenate([p.b_z, p.b_r])
    px = (x.reshape(n * T, d) @ W).reshape(n, T, 3 * u)
    hs = np.empty((n, T, u))
    if train:
        h_prev = np.empty((n, T, u))
        zr = np.empty((n, T, 2 * u))
        hcs = np.empty((n, T, u))
        rh = np.empty((n, T, u))
    for t in range(T):
        if train:
            h_prev[:, t] = h
        zrt = sigmoid(px[:, t, :2 * u] + h @ Uzr + bzr)
        z = zrt[:, :u]
        rht = zrt[:, u:] * h
        hc = np.tanh(px[:, t, 2 * u:] + rht @ p.U_h + p.b_h)
        h = z * h + (1.0 - z) * hc
        hs[:, t] = h
        if train:
            zr[:, t] = zrt
            rh[:, t] = rht
            hcs[:, t] = hc
    if not train:
        return hs, None
    cache = (x, p, hs, h_prev, zr, hcs, rh, (W, Uzr))
    return hs, cache


def gru_backward(cache, d_hs: Tensor):
    """BPTT given dL/dhs over the whole sequence [n, T, u]."""
    x, p, hs, h_prev, zr, hcs, rh, (W, Uzr) = cache
    n, T, d = x.shape
    u = p.units
    da = np.empty((n, T, 3 * u))  # z, r, candidate pre-activation grads
    dh_carry = np.zeros((n, u))
    for t in range(T - 1, -1, -1):
        z = zr[:, t, :u]
        r = zr[:, t, u:]
        hc = hcs[:, t]
        hp = h_prev[:, t]
        dh = d_hs[:, t] + dh_carry
        da_h = dh * (1.0 - z) * (1.0 - hc * hc)
        drh = da_h @ p.U_h.T
        dat = da[:, t]
        dat[:, :u] = dh * (hp - hc) * z * (1.0 - z)
        dat[:, u:2 * u] = drh * hp * r * (1.0 - r)
        dat[:, 2 * u:] = da_h
        dh_carry = dh * z + drh * r + dat[:, :2 * u] @ Uzr.T
    da2 = da.reshape(n * T, 3 * u)
    dW = x.reshape(n * T, d).T @ da2
    db = da2.sum(axis=0)
    dx = (da2 @ W.T).reshape(n, T, d)
    dUzr = np.tensordot(h_prev, da[:, :, :2 * u], axes=([0, 1], [0, 1]))
    grads = {
        "W_z": dW[:, :u], "W_r": dW[:, u:2 * u], "W_h": dW[:, 2 * u:],
        "b_z": db[:u], "b_r": db[u:2 * u], "b_h": db[2 * u:],
        "U_z": dUzr[:, :u], "U_r": dUzr[:, u:],
        "U_h": np.tensordot(rh, da[:, :, 2 * u:], axes=([0, 1], [0, 1])),
    }
    return dx, grads


def _is_train(mode: str) -> bool:
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    return mode == "train"


def _check_seq(x: Tensor, p) -> tuple:
    if x.ndim != 3:
        raise ShapeError(f"sequence input must be [n, T, d], got {x.shape}")
    n, T, d = x.shape
    if T < 1:
        raise ShapeError("sequence length must be >= 1")
    if d != p.input_size:
        raise ShapeError(f"input size {d} does not match parameters ({p.input_size})")
    return n, T, d


# ---------------------------------------------------------------------------
# cell-agnostic unroll returning the final hidden state
# ---------------------------------------------------------------------------

def unroll(cell: str, x: Tensor, params):
    """Run the named cell over the sequence; returns (last_h [n, u], cache)."""
    if cell == "lstm":
        hs, cache = lstm_forward(x, params)
    elif cell == "gru":
        hs, cache = gru_forward(x, params)
    else:
        raise ValueError(f"unknown cell {cell!r}")
    return hs[:, -1], (cell, cache, hs.shape)


def unroll_backward(ucache, d_last: Tensor):
    """Gradients of the final hidden state w.r.t. inputs and all parameters."""
    cell, cache, hs_shape = ucache
    d_hs = np.zeros(hs_shape)
    d_hs[:, -1] = d_last
    if cell == "lstm":
        return lstm_backward(cache, d_hs)
    return gru_backward(cache, d_hs)
