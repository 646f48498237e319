"""LSTM and GRU cells with full backpropagation through time.

Cell equations (batch n, input size d, units u):

LSTM step, with sigmoid(a) = 1 / (1 + exp(-a))
    f = sigmoid(x W[f] + h U[f] + b[f])        forget gate
    i = sigmoid(x W[i] + h U[i] + b[i])        input gate
    g = tanh   (x W[g] + h U[g] + b[g])        candidate
    o = sigmoid(x W[o] + h U[o] + b[o])        output gate
    c' = f * c + i * g
    h' = o * tanh(c')

GRU step (update gate preserves history)
    z = sigmoid(x W[z] + h U[z] + b[z])        update gate
    r = sigmoid(x W[r] + h U[r] + b[r])        reset gate
    hc = tanh(x W[h] + (r * h) U[h] + b[h])    candidate
    h' = z * h + (1 - z) * hc

where W[x], U[x] and b[x] are gate x's u-column slot of the blocks below.

Both cells store their weights once, as one ``CellParams`` of three fused
blocks with one u-column slot per gate:

    lstm    W [d, 4u], U [u, 4u], b [4u]    gate slots f, i, o, g
    gru     W [d, 3u], U [u, 3u], b [3u]    gate slots z, r, h

An LSTM step costs one recurrent matmul; a GRU step costs two, as its
candidate multiplies the reset-gated state, through the views ``U[:, :2u]``
and ``U[:, 2u:]``.  These blocks are the parameters, named by their fields;
``zero_params`` gives their shapes.  ``draw_params`` fills one gate slot at
a time, input weights before recurrent ones, in the order of
``DRAW_SLOTS``: LSTM f, i, g, o (slots 0, 1, 3, 2) and GRU z, r, h.

``*_forward`` unrolls a sequence from zero initial state and returns the
hidden state after its last step [n, u], the only state the network reads;
``*_backward`` accepts the gradient of that state and accumulates
parameter gradients across all timesteps.  Input weights are
glorot-uniform, recurrent weights orthogonal, biases zero.

Time loops.  Each step costs a handful of numpy calls on contiguous [n, k]
blocks, because at these sizes a step's cost is the number of calls, not
the arithmetic.  The caller supplies the input projection
px = x (W s) + b s [n, T, k] (``project``), so a cell never reads its
[n, T, d] input, in either mode: the model forms px block by block while
each block of its front-end's output is still in cache, and no whole cell
input ever exists.  s (``_gate_scale``) is 0.5 on the sigmoid gates'
columns, the first k - u (both kinds keep their tanh gate last: LSTM g,
GRU h), and 1 on the tanh gate's; the caller forms W s and b s once
(``scaled_input``).  With U s, made once per call, a step's sum is the
pre-activation a times s, so one ``tanh`` over all its gates and two more
calls give each sigmoid gate as 0.5 tanh(a / 2) + 0.5.  The
backward returns the gradient da [n, T, k] of the unscaled a and the
recurrent and bias gradients; the input's share, dx = da W^T and
dW = x^T da, is ``project_backward``'s, which the caller runs over the
same blocks of rows it projected.  Everything a step writes goes in place
(``out=``) into time-major arrays, so the state before step t is row t of
one [T+1, n, u] array, and the gates are stored gate-major, so each gate
is one [n, u] block:

    lstm cache  (p, H [T+1, n, u], C [T+1, n, u], G [T, 4, n, u], TC [T, n, u])
                G holds sigmoid f, i, o and tanh g; TC holds tanh(c)
    gru cache   (p, H [T+1, n, u], ZR [T, 2, n, u], HC [T, n, u], RH [T, n, u])
                ZR holds sigmoid z, r; HC the candidate; RH = r * h_prev

No cache holds the cell's input or px.  The output h is ``H[T]``.  Train
and eval run the same loop; in eval every per-step array, H included, is
one step's block seen at every t through a zero stride (``_per_step``), so
nothing per step is kept and the cache is None.  The backward's carried
dh starts as dL/dh, and step t writes its da into the rows ``da[:, t]``
of one batch-major [n, T, k] array, so the [n*T, k] operand of the dU
GEMM and of ``project_backward`` is a free reshape of it.

The bits are those of one numpy expression per gate (the oracles in
tests/test_recurrent.py), for four reasons:

* Every product keeps its operands.  The step matmuls see the same [n, u]
  state and [n, k] gradient rows, and the dx, dW and dU GEMMs the same
  batch-major [n*T, k] operands; an operand's row stride does not change
  OpenBLAS's sums, and tanh gives the same bits at any stride.  The
  px GEMM may run over any split of the n*T rows into blocks of at least
  two: each output row's sum is the same.  numpy sends a one-row product
  to gemv, whose sums differ, so a caller that splits the rows leaves no
  block of one row unless there is only one.  ``project_backward``'s
  GEMMs are not split-proof: the W gradient sums over the rows, and the dx
  product's rows get other last bits at some gate widths (k = 40 among
  them, with OpenBLAS's SkylakeX kernels), so the model's gradients depend
  on its blocks.
* Halving is exact in binary floating point (short of the subnormal
  range), so x (W s) + b s is (x W + b) s and the cells' sums are
  ((x W + b) + h U) s, bit for bit: the bias precedes the recurrent term.
  A sigmoid gate is within 2.2e-16 of the exact logistic, exactly 0.5 at
  +-0, 0 from a ~ -38 down and 1 from a ~ 37 up, and carries NaN through.
* Elementwise products are evaluated left to right, as the per-gate
  expressions are, so only factors that start a product or need no
  recurrence move.  The LSTM's BPTT computes 1 - f, 1 - i, 1 - o, 1 - g^2
  and 1 - tanh^2 c once over the whole sequence, each the same operation
  on the same operands as inside the loop, and a step multiplies [n, u] and
  gate-major blocks in the expressions' order, e.g.
  ((dc * c_prev) * f) * (1 - f) for the forget gate.
* The GRU's BPTT forms its factors once over the whole sequence, and its
  expressions group them so: da_h = dh ((1 - z) (1 - hc^2)),
  da_z = dh ((h_prev - hc) (z (1 - z))), da_r = drh (h_prev (r (1 - r))).
  A step keeps dh and drh as the two rows of one [2, n, u] array, so da_z
  and da_r take one multiply, and dh z + drh r one multiply and one add.
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
)


@dataclass
class CellParams:
    """W [d, g*u], U [u, g*u], b [g*u]: one u-column slot per gate, g = 4
    for the LSTM and 3 for the GRU (see the module docstring)."""
    W: Tensor
    U: Tensor
    b: Tensor

    @property
    def input_size(self) -> int:
        return self.W.shape[0]

    @property
    def units(self) -> int:
        return self.U.shape[0]


# each kind's gate slots in the order ``draw_params`` fills them; their count is g
DRAW_SLOTS = {"lstm": (0, 1, 3, 2), "gru": (0, 1, 2)}


def zero_params(kind: str, input_size: int, units: int, make=np.zeros) -> CellParams:
    """All-zero parameters of a "gru" or "lstm" cell, each block ``make(shape)``."""
    d, k = input_size, len(DRAW_SLOTS[kind]) * units
    return CellParams(W=make((d, k)), U=make((units, k)), b=make((k,)))


def draw_params(p: CellParams, kind: str, rng: Rng) -> CellParams:
    """Fill the input weights, then the recurrent weights, one gate slot at a
    time in ``DRAW_SLOTS[kind]`` order; biases stay as they are."""
    d, u, slots = p.input_size, p.units, DRAW_SLOTS[kind]
    for s in slots:
        p.W[:, s * u:(s + 1) * u] = init_glorot_uniform(d, u, rng)
    for s in slots:
        p.U[:, s * u:(s + 1) * u] = init_orthogonal(u, rng)
    return p


# ---------------------------------------------------------------------------
# sequence forward/backward
# ---------------------------------------------------------------------------

def _states(T: int, n: int, u: int, keep: bool) -> Tensor:
    """Time-major states [T + 1, n, u]: row 0 is zeros and step t writes row
    t + 1.  With ``keep`` False the rows are one [n, u] block (see
    ``_per_step``), updated in place."""
    S = _per_step((T + 1, n, u), keep)
    S[0] = 0.0
    return S


def _per_step(shape: tuple, keep: bool) -> Tensor:
    """A buffer indexed by timestep first.  With ``keep`` (train mode) every
    step has its own rows, for the backward; otherwise all steps share one
    block, seen at every t through a zero stride, so nothing per step is
    stored."""
    if keep:
        return np.empty(shape)
    block = np.empty(shape[1:])
    return np.lib.stride_tricks.as_strided(block, shape, (0,) + block.strides)


def _gate_major(a: Tensor, gates: int) -> Tensor:
    """[gates, n, u] view of an [n, gates * u] block whose rows are contiguous."""
    n, width = a.shape
    return a.reshape(n, gates, width // gates).transpose(1, 0, 2)


def _batch_major(a: Tensor) -> Tensor:
    """C-order [n*T, k] rows, sample by sample, of a time-major [T, n, k] array."""
    return a.transpose(1, 0, 2).reshape(-1, a.shape[2])


def _gate_scale(p) -> Tensor:
    """s [k]: 0.5 on the sigmoid gates' first k - u columns, 1 on the tanh gate's."""
    s = np.full(p.W.shape[1], 0.5)
    s[-p.units:] = 1.0
    return s


def scaled_input(p) -> tuple:
    """(W s, b s), s the ``_gate_scale``: ``project``'s operands."""
    s = _gate_scale(p)
    return p.W * s, p.b * s


def project(x: Tensor, Ws: Tensor, bs: Tensor, out: Tensor | None = None) -> Tensor:
    """The input projection px = x (W s) + b s [n, T, k] of a cell's
    [n, T, d] input (``scaled_input``): one GEMM over its n*T rows and one
    bias add, (x W + b) s bit for bit as halving is exact (see the module
    docstring); written into ``out``, C-contiguous, if given."""
    n, T, d = x.shape
    k = Ws.shape[1]
    if out is None:
        out = np.empty((n, T, k))
    out2 = out.reshape(n * T, k)
    np.matmul(x.reshape(n * T, d), Ws, out=out2)
    np.add(out2, bs, out=out2)
    return out


def project_backward(x: Tensor, da: Tensor, p, out: Tensor | None = None):
    """The backward of ``project`` over rows of a cell's input x [m, T, d]
    and their pre-activation gradient da [m, T, k], both C-contiguous.
    Returns (dx, dW): dx = da W^T [m, T, d], written into ``out`` if given,
    and the rows' share of the W gradient, x^T da [d, k]."""
    m, T, d = x.shape
    da2 = da.reshape(m * T, -1)
    dW = x.reshape(m * T, d).T @ da2
    if out is None:
        out = np.empty((m, T, d))
    np.matmul(da2, p.W.T, out=out.reshape(m * T, d))
    return out, dW


def lstm_forward(px: Tensor, p: CellParams, mode: str = "train"):
    """Unroll over t = 1..T given the input projection ``px`` = x (W s) + b s
    [n, T, 4u] (``project``); returns (h [n, u], cache), h the state after
    step T.

    cache = (p, H [T+1, n, u], C [T+1, n, u], G [T, 4, n, u], TC [T, n, u]):
    row t of H and C is the state before step t, G holds sigmoid f, i, o
    and tanh g, TC holds tanh(c).  In eval mode no backward follows, so
    every per-step array is one block and the cache is None.
    """
    train = is_train_mode(mode)
    n, T = _check_seq(px, p)
    u = p.units
    H = _states(T, n, u, train)
    C = _states(T, n, u, train)
    G = _per_step((T, 4, n, u), train)
    TC = _per_step((T, n, u), train)
    a = np.empty((n, 4 * u))
    a4 = _gate_major(a, 4)
    Us = p.U * _gate_scale(p)
    ig = np.empty((n, u))
    for t in range(T):
        g = G[t]
        np.matmul(H[t], Us, out=a)
        np.add(px[:, t], a, out=a)
        np.tanh(a4, out=g)
        np.multiply(g[:3], 0.5, out=g[:3])
        np.add(g[:3], 0.5, out=g[:3])
        c = C[t + 1]
        np.multiply(g[0], C[t], out=c)
        np.multiply(g[1], g[3], out=ig)
        np.add(c, ig, out=c)
        np.tanh(c, out=TC[t])
        np.multiply(g[2], TC[t], out=H[t + 1])
    return H[T], ((p, H, C, G, TC) if train else None)


def lstm_backward(cache, d_h: Tensor):
    """BPTT given dL/dh [n, u] of the state after the last step.

    Returns (da, grads): the gate pre-activation gradient da [n, T, 4u],
    from which ``project_backward`` forms dx and the W gradient, and grads
    keyed by the other ``CellParams`` fields, U and b.
    """
    p, H, C, G, TC = cache
    T, n, u = TC.shape
    # factors free of the recurrence, once over the whole sequence:
    # R = 1 - f, 1 - i, 1 - o, 1 - g*g and K = 1 - tanh(c)^2
    R = np.subtract(1.0, G)
    np.multiply(G[:, 3], G[:, 3], out=R[:, 3])
    np.subtract(1.0, R[:, 3], out=R[:, 3])
    K = np.multiply(TC, TC)
    np.subtract(1.0, K, out=K)
    da = np.empty((n, T, 4 * u))  # batch-major; step t writes da[:, t]
    dh = d_h.copy()  # carried from step to step
    dc = np.empty((n, u))
    m = np.empty((4, n, u))
    dc_carry = np.zeros((n, u))
    UT = p.U.T
    for t in range(T - 1, -1, -1):
        g = G[t]
        np.multiply(dh, g[2], out=dc)
        np.multiply(dc, K[t], out=dc)
        np.add(dc_carry, dc, out=dc)
        # da = (first * second * gate) * R per slot: f (dc, c_prev), i (dc, g),
        # o (dh, tanh c); g is (dc * i) * (1 - g*g)
        np.multiply(dc, C[t], out=m[0])
        np.multiply(dc, g[3], out=m[1])
        np.multiply(dh, TC[t], out=m[2])
        np.multiply(dc, g[1], out=m[3])
        np.multiply(m[:3], g[:3], out=m[:3])
        np.multiply(m, R[t], out=_gate_major(da[:, t], 4))
        np.multiply(dc, g[0], out=dc_carry)
        np.matmul(da[:, t], UT, out=dh)
    del R, K  # freed before the products' batch-major copy of the states
    da2 = da.reshape(n * T, 4 * u)
    h_prev = _batch_major(H[:T])
    # np.dot of the [u, n*T] view gives tensordot's bits; ``@`` does not for u = 1
    return da, {"U": np.dot(h_prev.T, da2), "b": da2.sum(axis=0)}


def gru_forward(px: Tensor, p: CellParams, mode: str = "train"):
    """Unroll over t = 1..T given the input projection ``px`` = x (W s) + b s
    [n, T, 3u] (``project``); returns (h [n, u], cache), h the state after
    step T.

    cache = (p, H [T+1, n, u], ZR [T, 2, n, u], HC [T, n, u], RH [T, n, u]):
    row t of H is the state before step t, ZR holds sigmoid z and r, HC the
    candidate and RH the reset-gated state r * h.  In eval mode no backward
    follows, so every per-step array is one block and the cache is None.
    """
    train = is_train_mode(mode)
    n, T = _check_seq(px, p)
    u = p.units
    H = _states(T, n, u, train)
    ZR = _per_step((T, 2, n, u), train)
    HC = _per_step((T, n, u), train)
    RH = _per_step((T, n, u), train)
    a = np.empty((n, 2 * u))
    a2 = _gate_major(a, 2)
    Us = p.U * _gate_scale(p)
    Uzr, Uh = Us[:, :2 * u], Us[:, 2 * u:]
    ah = np.empty((n, u))
    for t in range(T):
        h, zr, hc = H[t], ZR[t], HC[t]
        np.matmul(h, Uzr, out=a)
        np.add(px[:, t, :2 * u], a, out=a)
        np.tanh(a2, out=zr)
        np.multiply(zr, 0.5, out=zr)
        np.add(zr, 0.5, out=zr)
        np.multiply(zr[1], h, out=RH[t])
        np.matmul(RH[t], Uh, out=ah)
        np.add(px[:, t, 2 * u:], ah, out=hc)
        np.tanh(hc, out=hc)
        h_new = H[t + 1]
        np.multiply(zr[0], h, out=h_new)
        np.subtract(1.0, zr[0], out=ah)
        np.multiply(ah, hc, out=ah)
        np.add(h_new, ah, out=h_new)
    return H[T], ((p, H, ZR, HC, RH) if train else None)


def gru_backward(cache, d_h: Tensor):
    """BPTT given dL/dh [n, u] of the state after the last step.

    Returns (da, grads): the z, r and candidate pre-activation gradient da
    [n, T, 3u], from which ``project_backward`` forms dx and the W
    gradient, and grads keyed by the other ``CellParams`` fields, U and b:
    the U gradient is the z and r columns' h_prev^T da next to the
    candidate's (r * h_prev)^T da.
    """
    p, H, ZR, HC, RH = cache
    T, n, u = HC.shape
    # z, r, candidate pre-activation grads, batch-major (step t writes da[:, t]),
    # before the factors below: the other order raised train's peak RSS ~1 MB
    da = np.empty((n, T, 3 * u))
    # factors free of the recurrence, once over the whole sequence:
    # Q = (1 - z) (1 - hc^2) and P = (h_prev - hc) (z (1 - z)), h_prev (r (1 - r))
    P = np.subtract(1.0, ZR)
    Q = np.multiply(HC, HC)
    np.subtract(1.0, Q, out=Q)
    np.multiply(Q, P[:, 0], out=Q)
    np.multiply(P, ZR, out=P)
    np.multiply(P[:, 1], H[:T], out=P[:, 1])
    DH = np.subtract(H[:T], HC, out=da[:, :, 2 * u:].transpose(1, 0, 2))  # until the loop writes da
    np.multiply(P[:, 0], DH, out=P[:, 0])
    D = np.empty((2, n, u))  # dh and drh; row 0 holds the carried dh between steps
    D[0] = d_h
    S = np.empty((2, n, u))
    q = np.empty((n, u))
    UzrT, UhT = p.U[:, :2 * u].T, p.U[:, 2 * u:].T
    for t in range(T - 1, -1, -1):
        da_h = da[:, t, 2 * u:]
        np.multiply(D[0], Q[t], out=da_h)
        np.matmul(da_h, UhT, out=D[1])
        da_zr = da[:, t, :2 * u]
        np.multiply(D, P[t], out=_gate_major(da_zr, 2))
        np.multiply(D, ZR[t], out=S)
        np.add(S[0], S[1], out=S[0])
        np.matmul(da_zr, UzrT, out=q)
        np.add(S[0], q, out=D[0])
    del P, Q  # freed before the products' batch-major copies
    da2 = da.reshape(n * T, 3 * u)
    h_prev = _batch_major(H[:T])
    rh = _batch_major(RH)
    # np.dot of the [u, n*T] view gives tensordot's bits; ``@`` does not for u = 1
    dU = np.concatenate((np.dot(h_prev.T, da2[:, :2 * u]), np.dot(rh.T, da2[:, 2 * u:])), axis=1)
    return da, {"U": dU, "b": da2.sum(axis=0)}


def _check_seq(px: Tensor, p) -> tuple:
    """(n, T) of a cell's input projection ``px`` [n, T, k]."""
    width = p.W.shape[1]
    if px.ndim != 3 or px.shape[2] != width:
        raise ShapeError(f"input projection must be [n, T, {width}], got {px.shape}")
    n, T, _ = px.shape
    if T < 1:
        raise ShapeError("sequence length must be >= 1")
    return n, T
