import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import numpy.testing as npt
import pytest

from temporal_augmenter import gradcheck
from temporal_augmenter.model import ModelConfig
from temporal_augmenter.recurrent import (
    CellParams,
    gru_backward,
    draw_params,
    gru_forward,
    lstm_backward,
    lstm_forward,
    project,
    project_backward,
    scaled_input,
    zero_params,
)
from temporal_augmenter.tensor_core import (
    Rng,
    ShapeError,
    init_glorot_uniform,
    init_orthogonal,
)


def run_lstm(x, p, mode="train"):
    """The LSTM on ``x``, given its input projection as one GEMM."""
    return lstm_forward(project(x, *scaled_input(p)), p, mode=mode)


def run_gru(x, p, mode="train"):
    """The GRU on ``x``, given its input projection as one GEMM."""
    return gru_forward(project(x, *scaled_input(p)), p, mode=mode)


def states(cache):
    """The hidden state after each step, batch-major [n, T, u], from a
    train cache's H [T + 1, n, u]."""
    return cache[1][1:].transpose(1, 0, 2)


def sigmoid(a):
    """The logistic function as the cells evaluate it, from one tanh:
    0.5 tanh(0.5 a) + 0.5."""
    return np.tanh(0.5 * a) * 0.5 + 0.5


def textbook_sigmoid(a):
    return 1.0 / (1.0 + np.exp(-a))


# ---------------------------------------------------------------------------
# naive one-step oracles for the fused cells, written gate by gate on column
# slots of the stored blocks: LSTM f, i, o, g; GRU z, r, h.  A gate's
# pre-activation is (x W + b) + h U, the bias folded into the projection.
# ---------------------------------------------------------------------------

def _check_step_shapes(kind, x_t, h, p):
    if x_t.ndim != 2 or x_t.shape[1] != p.input_size:
        raise ShapeError(f"{kind} input {x_t.shape} incompatible with input size {p.input_size}")
    if h.shape != (x_t.shape[0], p.units):
        raise ShapeError(f"{kind} state {h.shape} incompatible with batch {x_t.shape[0]}, units {p.units}")


def lstm_step(x_t, h, c, p):
    """One LSTM step; returns (h', c')."""
    _check_step_shapes("lstm", x_t, h, p)
    u = p.units

    def pre(slot):
        cols = slice(slot * u, (slot + 1) * u)
        return (x_t @ p.W[:, cols] + p.b[cols]) + h @ p.U[:, cols]

    f = sigmoid(pre(0))
    i = sigmoid(pre(1))
    g = np.tanh(pre(3))
    o = sigmoid(pre(2))
    c_new = f * c + i * g
    h_new = o * np.tanh(c_new)
    return h_new, c_new


def gru_step(x_t, h, p):
    """One GRU step; returns h'."""
    _check_step_shapes("gru", x_t, h, p)
    u = p.units
    z = sigmoid((x_t @ p.W[:, :u] + p.b[:u]) + h @ p.U[:, :u])
    r = sigmoid((x_t @ p.W[:, u:2 * u] + p.b[u:2 * u]) + h @ p.U[:, u:2 * u])
    hc = np.tanh((x_t @ p.W[:, 2 * u:] + p.b[2 * u:]) + (r * h) @ p.U[:, 2 * u:])
    return z * h + (1.0 - z) * hc


# ---------------------------------------------------------------------------
# whole-sequence oracles: the cells as one numpy expression per gate.  The
# engine's cells must reproduce these bit for bit.  With ``textbook`` the
# forward takes sigmoid = 1 / (1 + exp(-a)) and adds the bias last,
# (x W + h U) + b, and the GRU backward forms its products left to right;
# the engine must match that within rounding, so the bitwise oracles cannot
# share a wrong formula with it.
# ---------------------------------------------------------------------------

def _projection(x, p, textbook):
    n, T, d = x.shape
    px = (x.reshape(n * T, d) @ p.W).reshape(n, T, -1)
    return px if textbook else px + p.b


def _plus_bias(a, b, textbook):
    """The textbook forward adds the bias last; the other has it in px."""
    return a + b if textbook else a


def reference_lstm_forward(x, p, textbook=False):
    n, T, d = x.shape
    u = p.units
    gate = textbook_sigmoid if textbook else sigmoid
    h = np.zeros((n, u))
    c = np.zeros((n, u))
    px = _projection(x, p, textbook)
    hs = np.empty((n, T, u))
    cs = np.empty((n, T, u))
    h_prev = np.empty((n, T, u))
    c_prev = np.empty((n, T, u))
    gates = np.empty((n, T, 4 * u))
    tc = np.empty((n, T, u))
    s3 = 3 * u
    for t in range(T):
        h_prev[:, t] = h
        c_prev[:, t] = c
        a = _plus_bias(px[:, t] + h @ p.U, p.b, textbook)
        fio = gate(a[:, :s3])
        g = np.tanh(a[:, s3:])
        c = fio[:, :u] * c + fio[:, u:2 * u] * g
        tct = np.tanh(c)
        h = fio[:, 2 * u:] * tct
        hs[:, t] = h
        gates[:, t, :s3] = fio
        gates[:, t, s3:] = g
        tc[:, t] = tct
        cs[:, t] = c
    return hs, (x, p, hs, cs, h_prev, c_prev, gates, tc)


def reference_lstm_backward(cache, d_h):
    x, p, hs, cs, h_prev, c_prev, gates, tc = cache
    n, T, d = x.shape
    u = p.units
    s3 = 3 * u
    da = np.empty((n, T, 4 * u))
    dh = d_h
    dc_carry = np.zeros((n, u))
    for t in range(T - 1, -1, -1):
        f = gates[:, t, :u]
        i = gates[:, t, u:2 * u]
        o = gates[:, t, 2 * u:s3]
        g = gates[:, t, s3:]
        tct = tc[:, t]
        dc = dc_carry + dh * o * (1.0 - tct * tct)
        dat = da[:, t]
        dat[:, :u] = dc * c_prev[:, t] * f * (1.0 - f)
        dat[:, u:2 * u] = dc * g * i * (1.0 - i)
        dat[:, 2 * u:s3] = dh * tct * o * (1.0 - o)
        dat[:, s3:] = dc * i * (1.0 - g * g)
        dc_carry = dc * f
        dh = dat @ p.U.T
    da2 = da.reshape(n * T, 4 * u)
    dx = (da2 @ p.W.T).reshape(n, T, d)
    return da, dx, {"W": x.reshape(n * T, d).T @ da2,
                     "U": np.dot(h_prev.reshape(n * T, u).T, da2), "b": da2.sum(axis=0)}


def reference_gru_forward(x, p, textbook=False):
    n, T, d = x.shape
    u = p.units
    gate = textbook_sigmoid if textbook else sigmoid
    h = np.zeros((n, u))
    px = _projection(x, p, textbook)
    hs = np.empty((n, T, u))
    h_prev = np.empty((n, T, u))
    zr = np.empty((n, T, 2 * u))
    hcs = np.empty((n, T, u))
    rh = np.empty((n, T, u))
    for t in range(T):
        h_prev[:, t] = h
        zrt = gate(_plus_bias(px[:, t, :2 * u] + h @ p.U[:, :2 * u], p.b[:2 * u], textbook))
        z = zrt[:, :u]
        rht = zrt[:, u:] * h
        hc = np.tanh(_plus_bias(px[:, t, 2 * u:] + rht @ p.U[:, 2 * u:], p.b[2 * u:], textbook))
        h = z * h + (1.0 - z) * hc
        hs[:, t] = h
        zr[:, t] = zrt
        rh[:, t] = rht
        hcs[:, t] = hc
    return hs, (x, p, hs, h_prev, zr, hcs, rh)


def reference_gru_backward(cache, d_h, textbook=False):
    x, p, hs, h_prev, zr, hcs, rh = cache
    n, T, d = x.shape
    u = p.units
    da = np.empty((n, T, 3 * u))
    dh = d_h
    for t in range(T - 1, -1, -1):
        z = zr[:, t, :u]
        r = zr[:, t, u:]
        hc = hcs[:, t]
        hp = h_prev[:, t]
        dat = da[:, t]
        if textbook:
            da_h = dh * (1.0 - z) * (1.0 - hc * hc)
            drh = da_h @ p.U[:, 2 * u:].T
            dat[:, :u] = dh * (hp - hc) * z * (1.0 - z)
            dat[:, u:2 * u] = drh * hp * r * (1.0 - r)
        else:
            da_h = dh * ((1.0 - z) * (1.0 - hc * hc))
            drh = da_h @ p.U[:, 2 * u:].T
            dat[:, :u] = dh * ((hp - hc) * (z * (1.0 - z)))
            dat[:, u:2 * u] = drh * (hp * (r * (1.0 - r)))
        dat[:, 2 * u:] = da_h
        dh = dh * z + drh * r + dat[:, :2 * u] @ p.U[:, :2 * u].T
    da2 = da.reshape(n * T, 3 * u)
    dx = (da2 @ p.W.T).reshape(n, T, d)
    return da, dx, {"W": x.reshape(n * T, d).T @ da2,
                     "U": np.concatenate((np.dot(h_prev.reshape(n * T, u).T, da2[:, :2 * u]),
                                          np.dot(rh.reshape(n * T, u).T, da2[:, 2 * u:])), axis=1),
                     "b": da2.sum(axis=0)}


class TestLSTMStep:
    def test_zero_params_carry_halves_cell(self):
        # all gates sigmoid(0)=0.5, candidate tanh(0)=0:
        # c' = 0.5*0.8 = 0.4, h' = 0.5*tanh(0.4)
        p = zero_params("lstm", 1, 1)
        h, c = lstm_step(np.zeros((1, 1)), np.zeros((1, 1)), np.array([[0.8]]), p)
        assert abs(c[0, 0] - 0.4) < 1e-15
        assert abs(h[0, 0] - 0.5 * math.tanh(0.4)) < 1e-15
        assert abs(h[0, 0] - 0.18997) < 1e-5

    def test_zero_fixed_point(self):
        p = zero_params("lstm", 2, 3)
        h, c = lstm_step(np.zeros((4, 2)), np.zeros((4, 3)), np.zeros((4, 3)), p)
        npt.assert_array_equal(h, np.zeros((4, 3)))
        npt.assert_array_equal(c, np.zeros((4, 3)))

    def test_shape_mismatch(self):
        p = zero_params("lstm", 2, 3)
        with pytest.raises(ShapeError):
            lstm_step(np.zeros((4, 5)), np.zeros((4, 3)), np.zeros((4, 3)), p)
        with pytest.raises(ShapeError):
            lstm_step(np.zeros((4, 2)), np.zeros((4, 2)), np.zeros((4, 2)), p)


class TestGRUStep:
    def test_zero_params_halve_state(self):
        # z = r = 0.5, candidate tanh(0) = 0 -> h' = 0.5 * 0.4
        p = zero_params("gru", 1, 1)
        h = gru_step(np.zeros((1, 1)), np.array([[0.4]]), p)
        assert abs(h[0, 0] - 0.2) < 1e-15

    def test_zero_fixed_point(self):
        p = zero_params("gru", 2, 3)
        npt.assert_array_equal(gru_step(np.zeros((4, 2)), np.zeros((4, 3)), p),
                               np.zeros((4, 3)))


class TestUnroll:
    def test_length_one_equals_single_step(self):
        rng = Rng(61)
        p = draw_params(zero_params("lstm", 3, 4), "lstm", rng)
        x = rng.uniform((5, 1, 3)) * 2 - 1
        h, _ = run_lstm(x, p)
        h1, _ = lstm_step(x[:, 0, :], np.zeros((5, 4)), np.zeros((5, 4)), p)
        npt.assert_array_equal(h, h1)

        p2 = draw_params(zero_params("gru", 3, 4), "gru", rng)
        h2, _ = run_gru(x, p2)
        npt.assert_array_equal(h2, gru_step(x[:, 0, :], np.zeros((5, 4)), p2))

    def test_zero_params_gru_fixed_point_any_length(self):
        p = zero_params("gru", 2, 3)
        for T in (1, 4, 9):
            x = Rng(62).uniform((3, T, 2)) * 2 - 1
            h, _ = run_gru(x, p)
            npt.assert_array_equal(h, np.zeros((3, 3)))

    def test_empty_sequence_rejected(self):
        p = zero_params("gru", 2, 3)
        with pytest.raises(ShapeError):
            run_gru(np.zeros((3, 0, 2)), p)

    def test_cells_read_only_a_projection_of_the_gate_width(self):
        rng = Rng(64)
        for kind, forward, gates in (("gru", gru_forward, 3), ("lstm", lstm_forward, 4)):
            p = draw_params(zero_params(kind, 2, 3), kind, rng)
            x = rng.uniform((4, 5, 2))
            px = project(x, *scaled_input(p))
            assert px.shape == (4, 5, gates * 3)
            assert forward(px, p, mode="eval")[1] is None
            # no train cache holds the cell's input or its projection
            cache = forward(px, p)[1]
            assert not any(np.shares_memory(a, px) for a in cache if isinstance(a, np.ndarray))
            assert all(a.shape[-2:] == (4, 3) for a in cache if isinstance(a, np.ndarray))
            with pytest.raises(ShapeError, match="projection"):
                forward(px[:, :, 1:], p)

    def test_unknown_cell(self):
        # the cell name is read from the model config, which takes gru or lstm only
        with pytest.raises(ValueError, match="streams"):
            ModelConfig(input_timesteps=4, input_channels=2, num_classes=2, streams=("rnn",))

    def test_unroll_gradients_match_fd(self):
        rng = Rng(63)
        p = draw_params(zero_params("gru", 2, 3), "gru", rng)
        x = rng.uniform((3, 3, 2)) * 2 - 1
        proj = rng.uniform((3, 3)) * 2 - 1
        da, grads = gru_backward(run_gru(x, p)[1], proj)
        dx, grads["W"] = project_backward(x, da, p)

        def objective():
            return float(np.sum(run_gru(x, p)[0] * proj))

        assert gradcheck.max_rel_err(dx, gradcheck.fd_grad(objective, x)) < 1e-4
        for name, arr in vars(p).items():
            assert gradcheck.max_rel_err(grads[name], gradcheck.fd_grad(objective, arr)) < 1e-4


class TestFusedLayout:
    def test_init_draws_each_gate_in_name_order(self):
        d, u = 3, 4
        # gate -> column slot, in the order the gates are drawn
        for kind, slots in (("lstm", {"f": 0, "i": 1, "g": 3, "o": 2}),
                            ("gru", {"z": 0, "r": 1, "h": 2})):
            p = draw_params(zero_params(kind, d, u), kind, Rng(72))
            rng = Rng(72)
            for g, s in slots.items():
                assert p.W[:, s * u:(s + 1) * u].tobytes() == \
                    init_glorot_uniform(d, u, rng).tobytes(), g
            for g, s in slots.items():
                assert p.U[:, s * u:(s + 1) * u].tobytes() == \
                    init_orthogonal(u, rng).tobytes(), g
            assert not p.b.any()

    def test_both_kinds_are_one_cell_params_with_the_same_gradient_keys(self):
        rng = Rng(74)
        x = rng.uniform((2, 3, 4))
        for kind, forward, backward in (("lstm", lstm_forward, lstm_backward),
                                        ("gru", gru_forward, gru_backward)):
            p = draw_params(zero_params(kind, 4, 5), kind, rng)
            assert type(p) is CellParams and list(vars(p)) == ["W", "U", "b"]
            k = 4 * 5 if kind == "lstm" else 3 * 5
            assert (p.W.shape, p.U.shape, p.b.shape) == ((4, k), (5, k), (k,))
            da, grads = backward(forward(project(x, *scaled_input(p)), p)[1], rng.uniform((2, 5)))
            assert list(grads) == ["U", "b"]
            g = CellParams(W=project_backward(x, da, p)[1], **grads)
            assert [a.shape for a in vars(g).values()] == [a.shape for a in vars(p).values()]

    def test_forward_matches_step_oracle_over_time(self):
        rng = Rng(73)
        x = rng.uniform((4, 7, 3)) * 2 - 1
        pl = draw_params(zero_params("lstm", 3, 5), "lstm", rng)
        pg = draw_params(zero_params("gru", 3, 5), "gru", rng)
        for p in (pl, pg):
            p.b += rng.uniform(p.b.shape) - 0.5
        h, c, hg = np.zeros((4, 5)), np.zeros((4, 5)), np.zeros((4, 5))
        hs = states(run_lstm(x, pl)[1])
        hsg = states(run_gru(x, pg)[1])
        for t in range(7):
            h, c = lstm_step(x[:, t], h, c, pl)
            hg = gru_step(x[:, t], hg, pg)
            npt.assert_allclose(hs[:, t], h, rtol=0, atol=1e-14)
            npt.assert_allclose(hsg[:, t], hg, rtol=0, atol=1e-14)


class TestGateRanges:
    def test_gates_bounded_on_random_forward(self):
        rng = Rng(64)
        p = draw_params(zero_params("lstm", 4, 5), "lstm", rng)
        x = rng.uniform((6, 8, 4)) * 4 - 2
        _, cache = run_lstm(x, p)
        gates = cache[3]  # [T, 4, n, u]: sigmoid f, i, o then tanh g
        fio, g = gates[:, :3], gates[:, 3]
        assert np.all(fio > 0) and np.all(fio < 1)
        assert np.all(g > -1) and np.all(g < 1)
        assert np.all(np.abs(states(cache)) <= 1.0)

        pg = draw_params(zero_params("gru", 4, 5), "gru", rng)
        _, cacheg = run_gru(x, pg)
        zr, hcs = cacheg[2], cacheg[3]  # [T, 2, n, u] sigmoid z, r; [T, n, u] candidate
        assert np.all(zr > 0) and np.all(zr < 1)
        assert np.all(hcs > -1) and np.all(hcs < 1)
        assert np.all(np.abs(states(cacheg)) <= 1.0)


def cell_gates(a, T=1):
    """The sigmoid gates both cells compute from pre-activations ``a`` [m],
    and their states: each cell runs one unit whose input weights are 1 and
    whose bias is 0 on an input of ``a`` at each of T steps, and returns
    its gates at the last step, LSTM f, i, o and GRU z, r as rows of one
    [5, m] array, and the two cells' states after each step [2, m, T]."""
    x = np.repeat(np.asarray(a, dtype=float).reshape(-1, 1, 1), T, axis=1)
    gates, hs = [], []
    for kind, run, gate_rows in (("lstm", run_lstm, lambda c: c[3][-1, :3]),
                                 ("gru", run_gru, lambda c: c[2][-1])):
        p = draw_params(zero_params(kind, 1, 1), kind, Rng(90))
        p.W[...] = 1.0
        cache = run(x, p)[1]
        gates.append(gate_rows(cache)[:, :, 0])
        hs.append(states(cache)[:, :, 0])
    return np.concatenate(gates), np.stack(hs)


class TestGateNumerics:
    """The cells evaluate each sigmoid gate as 0.5 tanh(0.5 a) + 0.5, with
    the halving folded into the scaled columns of px and U."""

    def test_within_2_2e_16_of_the_exact_logistic(self):
        a = np.linspace(-60.0, 60.0, 12_001)
        gates, _ = cell_gates(a)
        with localcontext() as ctx:
            ctx.prec = 40
            exact = [1 / (1 + (-Decimal(v)).exp()) for v in a.tolist()]
            for row in gates:
                assert max(abs(Decimal(g) - e) for g, e in zip(row.tolist(), exact)) <= Decimal("2.2e-16")
        assert np.all((gates >= 0.0) & (gates <= 1.0))
        # 0 from a ~ -38 down, where the exact logistic is below 1e-16
        assert np.all(gates[:, a <= -38.0] == 0.0)

    def test_zero_of_either_sign_gives_exactly_one_half(self):
        gates, _ = cell_gates([0.0, -0.0])
        assert np.all(gates == 0.5)

    def test_extreme_pre_activations_saturate_exactly(self):
        a = np.array([1e300, np.inf, -1e300, -np.inf])
        gates, states = cell_gates(a, T=4)
        assert np.all(gates[:, :2] == 1.0) and np.all(gates[:, 2:] == 0.0)
        assert np.all(np.isfinite(states))

    def test_nan_propagates(self):
        gates, states = cell_gates([np.nan, 1.0])
        assert np.all(np.isnan(gates[:, 0])) and np.all(np.isnan(states[:, 0]))
        assert np.all(np.isfinite(gates[:, 1])) and np.all(np.isfinite(states[:, 1]))


class TestMemoryRetention:
    """A switch input channel, off for the first six of twelve steps and on
    for the rest, saturates the forget (LSTM) or update (GRU) gate through
    its input weights: the state the first stretch built must then carry
    through the second unchanged, bit for bit, as the saturated gate is
    exactly 1.0 (and the LSTM's input gate exactly 0.0)."""

    @staticmethod
    def switched_input(rng):
        x = rng.uniform((2, 12, 4)) * 2 - 1
        x[:, :, 3] = 0.0
        x[:, 6:, 3] = 1.0  # the switch, input channel 3
        return x

    def test_lstm_saturated_gates_carry_cell_unchanged(self):
        # forget gate ~1 and input gate ~0 (switch weights +/-50) must preserve c
        rng = Rng(65)
        p = draw_params(zero_params("lstm", 4, 4), "lstm", rng)
        p.W[3, :4] = 50.0  # f
        p.W[3, 4:8] = -50.0  # i
        _, cache = run_lstm(self.switched_input(rng), p)
        cs = cache[2]  # [T + 1, n, u]: zeros, then the cell state after each step
        assert np.linalg.norm(cs[6]) > 0.1
        npt.assert_array_equal(cs[-1], cs[6])

    def test_gru_saturated_update_gate_preserves_state(self):
        rng = Rng(66)
        p = draw_params(zero_params("gru", 4, 4), "gru", rng)
        p.W[3, :4] = 50.0  # z
        hs = states(run_gru(self.switched_input(rng), p)[1])
        assert np.linalg.norm(hs[:, 5]) > 0.1
        npt.assert_array_equal(hs[:, -1], hs[:, 5])


class TestEvalMode:
    def test_eval_h_bitwise_equal_and_no_cache(self):
        rng = Rng(68)
        x = rng.uniform((4, 9, 3)) * 2 - 1
        pl = draw_params(zero_params("lstm", 3, 5), "lstm", rng)
        pg = draw_params(zero_params("gru", 3, 5), "gru", rng)
        runs = [
            lambda mode: run_lstm(x, pl, mode=mode),
            lambda mode: run_gru(x, pg, mode=mode),
        ]
        for run in runs:
            h_train, cache = run("train")
            h_eval, eval_cache = run("eval")
            assert cache is not None and eval_cache is None
            assert h_eval.tobytes() == h_train.tobytes()

    def test_eval_forward_keeps_no_state_per_step(self):
        """An eval forward at the tess cell shape [n, T, u] = [32, 512, 10]
        peaks, traced, below one [T, n, u] float64 array: it keeps no state,
        gate or candidate per step."""
        n, T, u = 32, 512, 10
        rng = Rng(71)
        for kind, forward in (("lstm", lstm_forward), ("gru", gru_forward)):
            p = draw_params(zero_params(kind, 1, u), kind, rng)
            px = project(rng.uniform((n, T, 1)) * 2 - 1, *scaled_input(p))
            tracemalloc.start()
            try:
                forward(px, p, mode="eval")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < T * n * u * 8, kind

    def test_unknown_mode_rejected(self):
        p = draw_params(zero_params("gru", 2, 3), "gru", Rng(69))
        with pytest.raises(ValueError, match="mode"):
            run_gru(np.zeros((1, 2, 2)), p, mode="infer")
        with pytest.raises(ValueError, match="mode"):
            run_lstm(np.zeros((1, 2, 2)), draw_params(zero_params("lstm", 2, 3), "lstm", Rng(69)),
                         mode="test")


class TestBPTT:
    def test_lstm_matches_fd_all_lengths(self):
        assert gradcheck.check_lstm(seed=0) < 1e-5

    def test_gru_matches_fd_all_lengths(self):
        assert gradcheck.check_gru(seed=0) < 1e-5

    def test_determinism(self):
        rng = Rng(67)
        p = draw_params(zero_params("lstm", 3, 4), "lstm", rng)
        x = rng.uniform((5, 6, 3)) * 2 - 1
        a, _ = run_lstm(x, p)
        b, _ = run_lstm(x, p)
        npt.assert_array_equal(a, b)


class TestRecurrentGradientProducts:
    """The recurrent-weight gradients equal ``np.tensordot`` over (n, T) bit for bit.

    ``tensordot`` takes its BLAS path from the operand's memory layout, so the
    time-major state caches are handed to it as C-order [n, T, u] blocks, with
    the batch-major pre-activation gradient da that the backward returns.
    """

    @pytest.mark.parametrize("n,T,u", [(4, 16, 1), (3, 4, 3), (4, 6, 10), (1, 7, 2)])
    def test_lstm_U_matches_tensordot(self, n, T, u):
        rng = Rng(70 + u)
        p = draw_params(zero_params("lstm", n * T, u), "lstm", rng)
        x = np.eye(n * T).reshape(n, T, n * T)
        _, cache = run_lstm(x, p)
        da, grads = lstm_backward(cache, rng.uniform((n, u)) - 0.5)
        assert da.shape == (n, T, 4 * u) and da.flags.c_contiguous
        # the states before each step, batch-major [n, T, u] as one C-order block
        h_prev = np.ascontiguousarray(cache[1][:-1].transpose(1, 0, 2))
        oracle = np.tensordot(h_prev, da, axes=([0, 1], [0, 1]))
        assert grads["U"].tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("n,T,u", [(4, 16, 1), (3, 4, 3), (4, 6, 10), (1, 7, 2)])
    def test_gru_U_matches_tensordot(self, n, T, u):
        rng = Rng(80 + u)
        p = draw_params(zero_params("gru", n * T, u), "gru", rng)
        x = np.eye(n * T).reshape(n, T, n * T)
        _, cache = run_gru(x, p)
        da, grads = gru_backward(cache, rng.uniform((n, u)) - 0.5)
        assert da.shape == (n, T, 3 * u) and da.flags.c_contiguous
        # the states before each step and r * h_prev, batch-major [n, T, u]
        # as C-order blocks
        h_prev = np.ascontiguousarray(cache[1][:-1].transpose(1, 0, 2))
        rh = np.ascontiguousarray(cache[4].transpose(1, 0, 2))
        # the z and r columns of the U gradient, then the candidate's
        oracle = np.concatenate((np.tensordot(h_prev, da[:, :, :2 * u], axes=([0, 1], [0, 1])),
                                 np.tensordot(rh, da[:, :, 2 * u:], axes=([0, 1], [0, 1]))),
                                axis=1)
        assert grads["U"].tobytes() == oracle.tobytes()


class TestCellsMatchOracles:
    """The last state, the train cache's states after each step, input
    gradients and every parameter gradient equal the oracles above bit for
    bit, over unit counts, batch sizes and lengths.
    The input gradient and the W gradient are formed from the backward's da
    by ``project_backward``, as the model's backward forms them.
    ``with_state`` leads the sequence with three warm-up steps, so that its
    first step starts from the nonzero state they leave."""

    @staticmethod
    def _inputs(n, T, u, seed, with_state=False):
        rng = Rng(seed)
        d = 5
        T += 3 if with_state else 0
        x = rng.uniform((n, T, d)) * 4 - 2
        d_h = rng.uniform((n, u)) - 0.5
        pl = draw_params(zero_params("lstm", d, u), "lstm", rng)
        pg = draw_params(zero_params("gru", d, u), "gru", rng)
        for p in (pl, pg):
            p.b[...] = rng.uniform(p.b.shape) - 0.5
        return x, d_h, pl, pg

    @staticmethod
    def _assert_same(x, got, want, d_h):
        """``got`` is ((h, cache), backward) and ``want`` ((hs, cache),
        backward) on input ``x``."""
        ((h, cache), backward), ((ref_hs, ref_cache), ref_backward) = got, want
        assert h.shape == ref_hs[:, -1].shape and h.tobytes() == ref_hs[:, -1].tobytes()
        assert states(cache).tobytes() == ref_hs.tobytes()
        da, cell_grads = backward(cache, d_h)
        dx, dW = project_backward(x, da, cache[0])
        grads = {"W": dW, **cell_grads}
        ref_da, ref_dx, ref_grads = ref_backward(ref_cache, d_h)
        assert da.tobytes() == ref_da.tobytes()
        assert dx.tobytes() == ref_dx.tobytes()
        assert list(grads) == list(ref_grads)
        for name in ref_grads:
            assert grads[name].shape == ref_grads[name].shape, name
            assert grads[name].tobytes() == ref_grads[name].tobytes(), name

    @pytest.mark.parametrize("u", [1, 3, 10])
    @pytest.mark.parametrize("n", [1, 7, 32])
    @pytest.mark.parametrize("T", [1, 8, 93])
    @pytest.mark.parametrize("with_state", [False, True])
    def test_lstm_bitwise(self, u, n, T, with_state):
        x, d_h, p, _ = self._inputs(n, T, u, 1000 + 100 * u + 10 * n + T, with_state)
        self._assert_same(x, (run_lstm(x, p), lstm_backward),
                          (reference_lstm_forward(x, p), reference_lstm_backward), d_h)
        h_eval, cache_eval = run_lstm(x, p, mode="eval")
        assert cache_eval is None
        assert h_eval.tobytes() == reference_lstm_forward(x, p)[0][:, -1].tobytes()

    @pytest.mark.parametrize("u", [1, 3, 10])
    @pytest.mark.parametrize("n", [1, 7, 32])
    @pytest.mark.parametrize("T", [1, 8, 93])
    @pytest.mark.parametrize("with_state", [False, True])
    def test_gru_bitwise(self, u, n, T, with_state):
        x, d_h, _, p = self._inputs(n, T, u, 2000 + 100 * u + 10 * n + T, with_state)
        self._assert_same(x, (run_gru(x, p), gru_backward),
                          (reference_gru_forward(x, p), reference_gru_backward), d_h)
        h_eval, cache_eval = run_gru(x, p, mode="eval")
        assert cache_eval is None
        assert h_eval.tobytes() == reference_gru_forward(x, p)[0][:, -1].tobytes()

    def test_saturated_and_signed_zero_inputs(self):
        """Pre-activations far past the sigmoid's and tanh's saturation, and
        exact zeros of both signs, in the inputs and the incoming gradient."""
        n, T, u = 4, 6, 3
        x, d_h, pl, pg = self._inputs(n, T, u, 3000, with_state=True)
        x = x * 400.0
        x[0] = 0.0
        x[1] = -0.0
        d_h[::2] = -0.0
        for p in (pl, pg):
            p.b[::3] = -0.0
        self._assert_same(x, (run_lstm(x, pl), lstm_backward),
                          (reference_lstm_forward(x, pl), reference_lstm_backward), d_h)
        self._assert_same(x, (run_gru(x, pg), gru_backward),
                          (reference_gru_forward(x, pg), reference_gru_backward), d_h)

    @pytest.mark.parametrize("n,T", [(128, 93), (32, 512), (128, 8)])
    def test_textbook_formula_within_rounding(self, n, T):
        """At the three workloads' cell shapes (u = 10), the states, da and
        every gradient match the textbook cells, whose sigmoid is
        1 / (1 + exp(-a)) and whose bias is added last, within 1e-12 of
        each array's largest magnitude."""
        x, d_h, pl, pg = self._inputs(n, T, 10, 4000 + T)

        def rel_err(got, want):
            return np.max(np.abs(got - want)) / np.max(np.abs(want))

        for p, run, backward, ref_forward, ref_backward in (
                (pl, run_lstm, lstm_backward, reference_lstm_forward, reference_lstm_backward),
                (pg, run_gru, gru_backward, reference_gru_forward,
                 lambda cache, d: reference_gru_backward(cache, d, textbook=True))):
            h, cache = run(x, p)
            da, grads = backward(cache, d_h)
            grads["dx"], grads["W"] = project_backward(x, da, p)
            ref_hs, ref_cache = ref_forward(x, p, textbook=True)
            ref_da, ref_dx, ref_grads = ref_backward(ref_cache, d_h)
            assert rel_err(h, ref_hs[:, -1]) < 1e-12
            assert rel_err(states(cache), ref_hs) < 1e-12
            assert rel_err(da, ref_da) < 1e-12
            for name, want in {"dx": ref_dx, **ref_grads}.items():
                assert rel_err(grads[name], want) < 1e-12, name
