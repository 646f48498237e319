import math

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
    zero_params,
)
from temporal_augmenter.tensor_core import (
    Rng,
    ShapeError,
    init_glorot_uniform,
    init_orthogonal,
    sigmoid,
)


def run_lstm(x, p, mode="train"):
    """The LSTM on ``x``, given its input projection as one GEMM."""
    return lstm_forward(project(x, p), p, mode=mode)


def run_gru(x, p, mode="train"):
    """The GRU on ``x``, given its input projection as one GEMM."""
    return gru_forward(project(x, p), p, mode=mode)


# ---------------------------------------------------------------------------
# naive one-step oracles for the fused cells, written gate by gate on column
# slots of the stored blocks: LSTM f, i, o, g; GRU z, r, h
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
        return x_t @ p.W[:, cols] + h @ p.U[:, cols] + p.b[cols]

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
    z = sigmoid(x_t @ p.W[:, :u] + h @ p.U[:, :u] + p.b[:u])
    r = sigmoid(x_t @ p.W[:, u:2 * u] + h @ p.U[:, u:2 * u] + p.b[u:2 * u])
    hc = np.tanh(x_t @ p.W[:, 2 * u:] + (r * h) @ p.U[:, 2 * u:] + p.b[2 * u:])
    return z * h + (1.0 - z) * hc


# ---------------------------------------------------------------------------
# whole-sequence oracles: the cells as they were written before their time
# loops were fused, one numpy expression per gate.  ``sigmoid`` is pinned
# bit for bit to its np.where form in test_tensor_core.  The engine's cells
# must reproduce these bit for bit.
# ---------------------------------------------------------------------------

def reference_lstm_forward(x, p):
    n, T, d = x.shape
    u = p.units
    h = np.zeros((n, u))
    c = np.zeros((n, u))
    px = (x.reshape(n * T, d) @ p.W).reshape(n, T, 4 * u)
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
        a = px[:, t] + h @ p.U + p.b
        fio = sigmoid(a[:, :s3])
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


def reference_lstm_backward(cache, d_hs):
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
    return dx, {"W": x.reshape(n * T, d).T @ da2, "U": np.dot(h_prev.reshape(n * T, u).T, da2),
                "b": da2.sum(axis=0)}


def reference_gru_forward(x, p):
    n, T, d = x.shape
    u = p.units
    h = np.zeros((n, u))
    px = (x.reshape(n * T, d) @ p.W).reshape(n, T, 3 * u)
    bzr = p.b[:2 * u]
    bh = p.b[2 * u:]
    hs = np.empty((n, T, u))
    h_prev = np.empty((n, T, u))
    zr = np.empty((n, T, 2 * u))
    hcs = np.empty((n, T, u))
    rh = np.empty((n, T, u))
    for t in range(T):
        h_prev[:, t] = h
        zrt = sigmoid(px[:, t, :2 * u] + h @ p.U[:, :2 * u] + bzr)
        z = zrt[:, :u]
        rht = zrt[:, u:] * h
        hc = np.tanh(px[:, t, 2 * u:] + rht @ p.U[:, 2 * u:] + bh)
        h = z * h + (1.0 - z) * hc
        hs[:, t] = h
        zr[:, t] = zrt
        rh[:, t] = rht
        hcs[:, t] = hc
    return hs, (x, p, hs, h_prev, zr, hcs, rh)


def reference_gru_backward(cache, d_hs):
    x, p, hs, h_prev, zr, hcs, rh = cache
    n, T, d = x.shape
    u = p.units
    da = np.empty((n, T, 3 * u))
    dh_carry = np.zeros((n, u))
    for t in range(T - 1, -1, -1):
        z = zr[:, t, :u]
        r = zr[:, t, u:]
        hc = hcs[:, t]
        hp = h_prev[:, t]
        dh = d_hs[:, t] + dh_carry
        da_h = dh * (1.0 - z) * (1.0 - hc * hc)
        drh = da_h @ p.U[:, 2 * u:].T
        dat = da[:, t]
        dat[:, :u] = dh * (hp - hc) * z * (1.0 - z)
        dat[:, u:2 * u] = drh * hp * r * (1.0 - r)
        dat[:, 2 * u:] = da_h
        dh_carry = dh * z + drh * r + dat[:, :2 * u] @ p.U[:, :2 * u].T
    da2 = da.reshape(n * T, 3 * u)
    dx = (da2 @ p.W.T).reshape(n, T, d)
    return dx, {"W": x.reshape(n * T, d).T @ da2,
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
        hs, _ = run_lstm(x, p)
        h1, _ = lstm_step(x[:, 0, :], np.zeros((5, 4)), np.zeros((5, 4)), p)
        npt.assert_array_equal(hs[:, -1], h1)

        p2 = draw_params(zero_params("gru", 3, 4), "gru", rng)
        hs2, _ = run_gru(x, p2)
        npt.assert_array_equal(hs2[:, -1], gru_step(x[:, 0, :], np.zeros((5, 4)), p2))

    def test_zero_params_gru_fixed_point_any_length(self):
        p = zero_params("gru", 2, 3)
        for T in (1, 4, 9):
            x = Rng(62).uniform((3, T, 2)) * 2 - 1
            hs, _ = run_gru(x, p)
            npt.assert_array_equal(hs[:, -1], np.zeros((3, 3)))

    def test_empty_sequence_rejected(self):
        p = zero_params("gru", 2, 3)
        with pytest.raises(ShapeError):
            run_gru(np.zeros((3, 0, 2)), p)

    def test_cells_read_only_a_projection_of_the_gate_width(self):
        rng = Rng(64)
        for kind, forward, gates in (("gru", gru_forward, 3), ("lstm", lstm_forward, 4)):
            p = draw_params(zero_params(kind, 2, 3), kind, rng)
            x = rng.uniform((4, 5, 2))
            px = project(x, p)
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
        hs, cache = run_gru(x, p)
        d_hs = np.zeros(hs.shape)
        d_hs[:, -1] = proj
        da, grads = gru_backward(cache, d_hs)
        dx, grads["W"] = project_backward(x, da, p)

        def objective():
            return float(np.sum(run_gru(x, p)[0][:, -1] * proj))

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
                    init_glorot_uniform(d, u, (d, u), rng).tobytes(), g
            for g, s in slots.items():
                assert p.U[:, s * u:(s + 1) * u].tobytes() == \
                    init_orthogonal(u, u, rng).tobytes(), g
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
            da, grads = backward(forward(project(x, p), p)[1], rng.uniform((2, 3, 5)))
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
        hs, _ = run_lstm(x, pl)
        hsg, _ = run_gru(x, pg)
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
        hs, cache = run_lstm(x, p)
        gates = cache[3]  # [T, 4, n, u]: sigmoid f, i, o then tanh g
        fio, g = gates[:, :3], gates[:, 3]
        assert np.all(fio > 0) and np.all(fio < 1)
        assert np.all(g > -1) and np.all(g < 1)
        assert np.all(np.abs(hs) <= 1.0)

        pg = draw_params(zero_params("gru", 4, 5), "gru", rng)
        hsg, cacheg = run_gru(x, pg)
        zr, hcs = cacheg[2], cacheg[3]  # [T, 2, n, u] sigmoid z, r; [T, n, u] candidate
        assert np.all(zr > 0) and np.all(zr < 1)
        assert np.all(hcs > -1) and np.all(hcs < 1)
        assert np.all(np.abs(hsg) <= 1.0)


class TestMemoryRetention:
    """A switch input channel, off for the first six of twelve steps and on
    for the rest, saturates the forget (LSTM) or update (GRU) gate through
    its input weights: the state the first stretch built must then carry
    through the second unchanged, bit for bit, as the saturated gate is
    exactly 1.0 (and the LSTM's input gate below 1e-20)."""

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
        hs, _ = run_gru(self.switched_input(rng), p)
        assert np.linalg.norm(hs[:, 5]) > 0.1
        npt.assert_array_equal(hs[:, -1], hs[:, 5])


class TestEvalMode:
    def test_eval_hs_bitwise_equal_and_no_cache(self):
        rng = Rng(68)
        x = rng.uniform((4, 9, 3)) * 2 - 1
        pl = draw_params(zero_params("lstm", 3, 5), "lstm", rng)
        pg = draw_params(zero_params("gru", 3, 5), "gru", rng)
        runs = [
            lambda mode: run_lstm(x, pl, mode=mode),
            lambda mode: run_gru(x, pg, mode=mode),
        ]
        for run in runs:
            hs_train, cache = run("train")
            hs_eval, eval_cache = run("eval")
            assert cache is not None and eval_cache is None
            assert hs_eval.tobytes() == hs_train.tobytes()

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
        da, grads = lstm_backward(cache, rng.uniform((n, T, u)) - 0.5)
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
        da, grads = gru_backward(cache, rng.uniform((n, T, u)) - 0.5)
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
    """Forward states, input gradients and every parameter gradient equal the
    oracles above bit for bit, over unit counts, batch sizes and lengths.
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
        d_hs = rng.uniform((n, T, u)) - 0.5
        pl = draw_params(zero_params("lstm", d, u), "lstm", rng)
        pg = draw_params(zero_params("gru", d, u), "gru", rng)
        for p in (pl, pg):
            p.b[...] = rng.uniform(p.b.shape) - 0.5
        return x, d_hs, pl, pg

    @staticmethod
    def _assert_same(x, got, want, d_hs):
        """``got`` and ``want`` are each ((hs, cache), backward) on input ``x``."""
        ((hs, cache), backward), ((ref_hs, ref_cache), ref_backward) = got, want
        assert hs.shape == ref_hs.shape and hs.tobytes() == ref_hs.tobytes()
        da, cell_grads = backward(cache, d_hs)
        dx, dW = project_backward(x, da, cache[0])
        grads = {"W": dW, **cell_grads}
        ref_dx, ref_grads = ref_backward(ref_cache, d_hs)
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
        x, d_hs, p, _ = self._inputs(n, T, u, 1000 + 100 * u + 10 * n + T, with_state)
        self._assert_same(x, (run_lstm(x, p), lstm_backward),
                          (reference_lstm_forward(x, p), reference_lstm_backward), d_hs)
        hs_eval, cache_eval = run_lstm(x, p, mode="eval")
        assert cache_eval is None
        assert hs_eval.tobytes() == reference_lstm_forward(x, p)[0].tobytes()

    @pytest.mark.parametrize("u", [1, 3, 10])
    @pytest.mark.parametrize("n", [1, 7, 32])
    @pytest.mark.parametrize("T", [1, 8, 93])
    @pytest.mark.parametrize("with_state", [False, True])
    def test_gru_bitwise(self, u, n, T, with_state):
        x, d_hs, _, p = self._inputs(n, T, u, 2000 + 100 * u + 10 * n + T, with_state)
        self._assert_same(x, (run_gru(x, p), gru_backward),
                          (reference_gru_forward(x, p), reference_gru_backward), d_hs)
        hs_eval, cache_eval = run_gru(x, p, mode="eval")
        assert cache_eval is None
        assert hs_eval.tobytes() == reference_gru_forward(x, p)[0].tobytes()

    def test_saturated_and_signed_zero_inputs(self):
        """Pre-activations far past the sigmoid's and tanh's saturation, and
        exact zeros of both signs, in the inputs and the incoming gradient."""
        n, T, u = 4, 6, 3
        x, d_hs, pl, pg = self._inputs(n, T, u, 3000, with_state=True)
        x = x * 400.0
        x[0] = 0.0
        x[1] = -0.0
        d_hs[:, ::2] = -0.0
        for p in (pl, pg):
            p.b[::3] = -0.0
        self._assert_same(x, (run_lstm(x, pl), lstm_backward),
                          (reference_lstm_forward(x, pl), reference_lstm_backward), d_hs)
        self._assert_same(x, (run_gru(x, pg), gru_backward),
                          (reference_gru_forward(x, pg), reference_gru_backward), d_hs)
