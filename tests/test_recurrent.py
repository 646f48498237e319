import math

import numpy as np
import numpy.testing as npt
import pytest

from temporal_augmenter import gradcheck
from temporal_augmenter.recurrent import (
    GRUParams,
    LSTMParams,
    gru_forward,
    gru_step,
    init_gru_params,
    init_lstm_params,
    lstm_forward,
    lstm_step,
    params_as_dict,
    unroll,
    unroll_backward,
)
from temporal_augmenter.tensor_core import Rng, ShapeError


def zero_lstm(d, u):
    z = lambda *s: np.zeros(s)
    return LSTMParams(W_f=z(d, u), W_i=z(d, u), W_g=z(d, u), W_o=z(d, u),
                      U_f=z(u, u), U_i=z(u, u), U_g=z(u, u), U_o=z(u, u),
                      b_f=z(u), b_i=z(u), b_g=z(u), b_o=z(u))


def zero_gru(d, u):
    z = lambda *s: np.zeros(s)
    return GRUParams(W_z=z(d, u), W_r=z(d, u), W_h=z(d, u),
                     U_z=z(u, u), U_r=z(u, u), U_h=z(u, u),
                     b_z=z(u), b_r=z(u), b_h=z(u))


class TestLSTMStep:
    def test_zero_params_carry_halves_cell(self):
        # all gates sigmoid(0)=0.5, candidate tanh(0)=0:
        # c' = 0.5*0.8 = 0.4, h' = 0.5*tanh(0.4)
        p = zero_lstm(1, 1)
        h, c = lstm_step(np.zeros((1, 1)), np.zeros((1, 1)), np.array([[0.8]]), p)
        assert abs(c[0, 0] - 0.4) < 1e-15
        assert abs(h[0, 0] - 0.5 * math.tanh(0.4)) < 1e-15
        assert abs(h[0, 0] - 0.18997) < 1e-5

    def test_zero_fixed_point(self):
        p = zero_lstm(2, 3)
        h, c = lstm_step(np.zeros((4, 2)), np.zeros((4, 3)), np.zeros((4, 3)), p)
        npt.assert_array_equal(h, np.zeros((4, 3)))
        npt.assert_array_equal(c, np.zeros((4, 3)))

    def test_shape_mismatch(self):
        p = zero_lstm(2, 3)
        with pytest.raises(ShapeError):
            lstm_step(np.zeros((4, 5)), np.zeros((4, 3)), np.zeros((4, 3)), p)
        with pytest.raises(ShapeError):
            lstm_step(np.zeros((4, 2)), np.zeros((4, 2)), np.zeros((4, 2)), p)


class TestGRUStep:
    def test_zero_params_halve_state(self):
        # z = r = 0.5, candidate tanh(0) = 0 -> h' = 0.5 * 0.4
        p = zero_gru(1, 1)
        h = gru_step(np.zeros((1, 1)), np.array([[0.4]]), p)
        assert abs(h[0, 0] - 0.2) < 1e-15

    def test_zero_fixed_point(self):
        p = zero_gru(2, 3)
        npt.assert_array_equal(gru_step(np.zeros((4, 2)), np.zeros((4, 3)), p),
                               np.zeros((4, 3)))


class TestUnroll:
    def test_length_one_equals_single_step(self):
        rng = Rng(61)
        p = init_lstm_params(3, 4, rng)
        x = rng.uniform((5, 1, 3)) * 2 - 1
        last, _ = unroll("lstm", x, p)
        h1, _ = lstm_step(x[:, 0, :], np.zeros((5, 4)), np.zeros((5, 4)), p)
        npt.assert_array_equal(last, h1)

        p2 = init_gru_params(3, 4, rng)
        last2, _ = unroll("gru", x, p2)
        npt.assert_array_equal(last2, gru_step(x[:, 0, :], np.zeros((5, 4)), p2))

    def test_zero_params_gru_fixed_point_any_length(self):
        p = zero_gru(2, 3)
        for T in (1, 4, 9):
            x = Rng(62).uniform((3, T, 2)) * 2 - 1
            last, _ = unroll("gru", x, p)
            npt.assert_array_equal(last, np.zeros((3, 3)))

    def test_empty_sequence_rejected(self):
        p = zero_gru(2, 3)
        with pytest.raises(ShapeError):
            gru_forward(np.zeros((3, 0, 2)), p)

    def test_unknown_cell(self):
        with pytest.raises(ValueError):
            unroll("rnn", np.zeros((1, 1, 2)), zero_gru(2, 3))

    def test_unroll_gradients_match_fd(self):
        rng = Rng(63)
        p = init_gru_params(2, 3, rng)
        x = rng.uniform((3, 3, 2)) * 2 - 1
        proj = rng.uniform((3, 3)) * 2 - 1
        last, cache = unroll("gru", x, p)
        dx, grads = unroll_backward(cache, proj)

        def objective():
            return float(np.sum(unroll("gru", x, p)[0] * proj))

        assert gradcheck.max_rel_err(dx, gradcheck.fd_grad(objective, x)) < 1e-4
        for name, arr in params_as_dict(p).items():
            assert gradcheck.max_rel_err(grads[name], gradcheck.fd_grad(objective, arr)) < 1e-4


class TestGateRanges:
    def test_gates_bounded_on_random_forward(self):
        rng = Rng(64)
        p = init_lstm_params(4, 5, rng)
        x = rng.uniform((6, 8, 4)) * 4 - 2
        hs, cache = lstm_forward(x, p)
        gates = cache[6]  # [n, T, 4u]: sigmoid f, i, o then tanh g
        fio, g = gates[:, :, :15], gates[:, :, 15:]
        assert np.all(fio > 0) and np.all(fio < 1)
        assert np.all(g > -1) and np.all(g < 1)
        assert np.all(np.abs(hs) <= 1.0)

        pg = init_gru_params(4, 5, rng)
        hsg, cacheg = gru_forward(x, pg)
        zr, hcs = cacheg[4], cacheg[5]
        assert np.all(zr > 0) and np.all(zr < 1)
        assert np.all(hcs > -1) and np.all(hcs < 1)
        assert np.all(np.abs(hsg) <= 1.0)


class TestMemoryRetention:
    def test_lstm_saturated_gates_carry_cell_unchanged(self):
        # forget gate ~1 and input gate ~0 (biases +/-50) must preserve c
        rng = Rng(65)
        p = init_lstm_params(3, 4, rng)
        p.b_f[:] = 50.0
        p.b_i[:] = -50.0
        x = rng.uniform((2, 12, 3)) * 2 - 1
        c0 = rng.uniform((2, 4)) * 2 - 1
        h0 = np.zeros((2, 4))
        _, cache = lstm_forward(x, p, h0=h0, c0=c0)
        cs = cache[3]
        assert np.linalg.norm(cs[:, -1] - c0) < 1e-8

    def test_gru_saturated_update_gate_preserves_state(self):
        rng = Rng(66)
        p = init_gru_params(3, 4, rng)
        p.b_z[:] = 50.0
        x = rng.uniform((2, 12, 3)) * 2 - 1
        h0 = rng.uniform((2, 4)) * 2 - 1
        hs, _ = gru_forward(x, p, h0=h0)
        assert np.linalg.norm(hs[:, -1] - h0) < 1e-8


class TestEvalMode:
    def test_eval_hs_bitwise_equal_and_no_cache(self):
        rng = Rng(68)
        x = rng.uniform((4, 9, 3)) * 2 - 1
        h0 = rng.uniform((4, 5)) * 2 - 1
        c0 = rng.uniform((4, 5)) * 2 - 1
        pl = init_lstm_params(3, 5, rng)
        pg = init_gru_params(3, 5, rng)
        runs = [
            lambda mode: lstm_forward(x, pl, mode=mode),
            lambda mode: lstm_forward(x, pl, h0=h0, c0=c0, mode=mode),
            lambda mode: gru_forward(x, pg, mode=mode),
            lambda mode: gru_forward(x, pg, h0=h0, mode=mode),
        ]
        for run in runs:
            hs_train, cache = run("train")
            hs_eval, eval_cache = run("eval")
            assert cache is not None and eval_cache is None
            assert hs_eval.tobytes() == hs_train.tobytes()

    def test_unknown_mode_rejected(self):
        p = init_gru_params(2, 3, Rng(69))
        with pytest.raises(ValueError, match="mode"):
            gru_forward(np.zeros((1, 2, 2)), p, mode="infer")
        with pytest.raises(ValueError, match="mode"):
            lstm_forward(np.zeros((1, 2, 2)), init_lstm_params(2, 3, Rng(69)), mode="test")


class TestBPTT:
    def test_lstm_matches_fd_all_lengths(self):
        assert gradcheck.check_lstm(seed=0) < 1e-5

    def test_gru_matches_fd_all_lengths(self):
        assert gradcheck.check_gru(seed=0) < 1e-5

    def test_determinism(self):
        rng = Rng(67)
        p = init_lstm_params(3, 4, rng)
        x = rng.uniform((5, 6, 3)) * 2 - 1
        a, _ = lstm_forward(x, p)
        b, _ = lstm_forward(x, p)
        npt.assert_array_equal(a, b)
