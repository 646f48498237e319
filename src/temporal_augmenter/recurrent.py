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

Each cell stores its weights once, in fused blocks with one u-column slot per
gate, so a step costs one recurrent matmul (two for the GRU, whose candidate
multiplies the reset-gated state):

    LSTMParams   W [d, 4u], U [u, 4u], b [4u]     gates f, i, o, g
    GRUParams    W [d, 3u], b [3u]                 gates z, r, h
                 U_zr [u, 2u], U_h [u, u]          gates z, r and h

The per-gate names (``W_f``, ``U_r``, ``b_h``, ...) are views into the
blocks, mapped by ``_LSTM_VIEWS`` / ``_GRU_VIEWS``.  Their order there is
the parameter order: model parameter names, checkpoint tensors, init draws.

``*_forward`` unrolls a [n, T, d] sequence from zero initial state (unless
given) and returns every hidden state; ``*_backward`` accepts a gradient for
the full hidden sequence [n, T, u] and accumulates parameter gradients across
all timesteps.  Input weights are glorot-uniform, recurrent weights
orthogonal, biases zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import (
    Rng,
    ShapeError,
    Tensor,
    init_glorot_uniform,
    init_orthogonal,
    is_train_mode,
    sigmoid,
)

# per-gate name -> (stored block, gate slot in that block)
_LSTM_VIEWS = {f"{m}_{g}": (m, "fiog".index(g)) for m in "WUb" for g in "figo"}
_GRU_VIEWS = {
    "W_z": ("W", 0), "W_r": ("W", 1), "W_h": ("W", 2),
    "U_z": ("U_zr", 0), "U_r": ("U_zr", 1), "U_h": ("U_h", 0),
    "b_z": ("b", 0), "b_r": ("b", 1), "b_h": ("b", 2),
}


def _gate_view(p, name: str) -> Tensor:
    """``p.<per-gate name>``: that gate's column slot of its stored block."""
    try:
        block, slot = p.VIEWS[name]
    except KeyError:
        raise AttributeError(name) from None
    u = p.units
    return getattr(p, block)[..., slot * u:(slot + 1) * u]


@dataclass
class LSTMParams:
    """W [d, 4u], U [u, 4u], b [4u]; gate slots f, i, o, g."""
    W: Tensor
    U: Tensor
    b: Tensor

    VIEWS = _LSTM_VIEWS
    __getattr__ = _gate_view

    @property
    def input_size(self) -> int:
        return self.W.shape[0]

    @property
    def units(self) -> int:
        return self.U.shape[0]


@dataclass
class GRUParams:
    """W [d, 3u], b [3u] with gate slots z, r, h; U_zr [u, 2u] (z, r); U_h [u, u]."""
    W: Tensor
    U_zr: Tensor
    U_h: Tensor
    b: Tensor

    VIEWS = _GRU_VIEWS
    __getattr__ = _gate_view

    @property
    def input_size(self) -> int:
        return self.W.shape[0]

    @property
    def units(self) -> int:
        return self.U_h.shape[0]


def params_as_dict(p) -> dict:
    """Per-gate name -> view into the stored blocks, in ``p.VIEWS`` order."""
    return {name: getattr(p, name) for name in p.VIEWS}


def _draw(p, rng: Rng):
    """Fill each input and recurrent gate view in ``p.VIEWS`` order."""
    d, u = p.input_size, p.units
    for name, view in params_as_dict(p).items():
        if name.startswith("W_"):
            view[...] = init_glorot_uniform(d, u, (d, u), rng)
        elif name.startswith("U_"):
            view[...] = init_orthogonal(u, u, rng)
    return p


def init_lstm_params(input_size: int, units: int, rng: Rng) -> LSTMParams:
    """Draw order: W_f, W_i, W_g, W_o then U_f, U_i, U_g, U_o; biases zero."""
    u = units
    return _draw(LSTMParams(W=np.empty((input_size, 4 * u)), U=np.empty((u, 4 * u)),
                            b=np.zeros(4 * u)), rng)


def init_gru_params(input_size: int, units: int, rng: Rng) -> GRUParams:
    """Draw order: W_z, W_r, W_h then U_z, U_r, U_h; biases zero."""
    u = units
    return _draw(GRUParams(W=np.empty((input_size, 3 * u)), U_zr=np.empty((u, 2 * u)),
                           U_h=np.empty((u, u)), b=np.zeros(3 * u)), rng)


# ---------------------------------------------------------------------------
# sequence forward/backward
# ---------------------------------------------------------------------------

def lstm_forward(x: Tensor, p: LSTMParams, h0: Tensor | None = None, c0: Tensor | None = None,
                 mode: str = "train"):
    """Unroll over t = 1..T; returns (hs [n, T, u], cache).

    In eval mode no backward follows, so no BPTT state is stored and the
    cache is None.
    """
    n, T, d = _check_seq(x, p)
    train = is_train_mode(mode)
    u = p.units
    h = np.zeros((n, u)) if h0 is None else h0
    c = np.zeros((n, u)) if c0 is None else c0
    px = (x.reshape(n * T, d) @ p.W).reshape(n, T, 4 * u)
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
        a = px[:, t] + h @ p.U + p.b
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
    cache = (x, p, hs, cs, h_prev, c_prev, gates, tc)
    return hs, cache


def lstm_backward(cache, d_hs: Tensor):
    """BPTT given dL/dhs over the whole sequence [n, T, u].

    Returns (dx, grads) with grads keyed by the per-gate names.
    """
    x, p, hs, cs, h_prev, c_prev, gates, tc = cache
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
        dh_carry = dat @ p.U.T
    da2 = da.reshape(n * T, 4 * u)
    dx = (da2 @ p.W.T).reshape(n, T, d)
    # np.dot of the [u, n*T] view gives tensordot's bits; ``@`` does not for u = 1
    dp = LSTMParams(W=x.reshape(n * T, d).T @ da2,
                    U=np.dot(h_prev.reshape(n * T, u).T, da2),
                    b=da2.sum(axis=0))
    # the key order sets the summation order of global-norm clipping
    return dx, {f"{m}_{k}": getattr(dp, f"{m}_{k}") for k in "fiog" for m in "WUb"}


def gru_forward(x: Tensor, p: GRUParams, h0: Tensor | None = None, mode: str = "train"):
    """Unroll over t = 1..T; returns (hs [n, T, u], cache).

    In eval mode no backward follows, so no BPTT state is stored and the
    cache is None.
    """
    n, T, d = _check_seq(x, p)
    train = is_train_mode(mode)
    u = p.units
    h = np.zeros((n, u)) if h0 is None else h0
    px = (x.reshape(n * T, d) @ p.W).reshape(n, T, 3 * u)
    bzr = p.b[:2 * u]
    bh = p.b[2 * u:]
    hs = np.empty((n, T, u))
    if train:
        h_prev = np.empty((n, T, u))
        zr = np.empty((n, T, 2 * u))
        hcs = np.empty((n, T, u))
        rh = np.empty((n, T, u))
    for t in range(T):
        if train:
            h_prev[:, t] = h
        zrt = sigmoid(px[:, t, :2 * u] + h @ p.U_zr + bzr)
        z = zrt[:, :u]
        rht = zrt[:, u:] * h
        hc = np.tanh(px[:, t, 2 * u:] + rht @ p.U_h + bh)
        h = z * h + (1.0 - z) * hc
        hs[:, t] = h
        if train:
            zr[:, t] = zrt
            rh[:, t] = rht
            hcs[:, t] = hc
    if not train:
        return hs, None
    cache = (x, p, hs, h_prev, zr, hcs, rh)
    return hs, cache


def gru_backward(cache, d_hs: Tensor):
    """BPTT given dL/dhs over the whole sequence [n, T, u]."""
    x, p, hs, h_prev, zr, hcs, rh = cache
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
        dh_carry = dh * z + drh * r + dat[:, :2 * u] @ p.U_zr.T
    da2 = da.reshape(n * T, 3 * u)
    dx = (da2 @ p.W.T).reshape(n, T, d)
    # np.dot of the [u, n*T] view gives tensordot's bits; ``@`` does not for u = 1
    dp = GRUParams(W=x.reshape(n * T, d).T @ da2,
                   U_zr=np.dot(h_prev.reshape(n * T, u).T, da2[:, :2 * u]),
                   U_h=np.dot(rh.reshape(n * T, u).T, da2[:, 2 * u:]),
                   b=da2.sum(axis=0))
    # the key order sets the summation order of global-norm clipping
    return dx, {f"{m}_{k}": getattr(dp, f"{m}_{k}") for m in "WbU" for k in "zrh"}


def _check_seq(x: Tensor, p) -> tuple:
    if x.ndim != 3:
        raise ShapeError(f"sequence input must be [n, T, d], got {x.shape}")
    n, T, d = x.shape
    if T < 1:
        raise ShapeError("sequence length must be >= 1")
    if d != p.input_size:
        raise ShapeError(f"input size {d} does not match parameters ({p.input_size})")
    return n, T, d
