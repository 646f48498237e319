import math

import numpy as np
import numpy.testing as npt
import pytest

from temporal_augmenter import gradcheck
from temporal_augmenter.model import ModelConfig
from temporal_augmenter.recurrent import (
    GRUParams,
    LSTMParams,
    gru_backward,
    gru_forward,
    init_gru_params,
    init_lstm_params,
    lstm_backward,
    lstm_forward,
    params_as_dict,
)
from temporal_augmenter.tensor_core import (
    Rng,
    ShapeError,
    init_glorot_uniform,
    init_orthogonal,
    sigmoid,
)


def zero_lstm(d, u):
    return LSTMParams(W=np.zeros((d, 4 * u)), U=np.zeros((u, 4 * u)), b=np.zeros(4 * u))


def zero_gru(d, u):
    return GRUParams(W=np.zeros((d, 3 * u)), U_zr=np.zeros((u, 2 * u)), U_h=np.zeros((u, u)),
                     b=np.zeros(3 * u))


# ---------------------------------------------------------------------------
# naive one-step oracles for the fused cells, written gate by gate on the
# per-gate views
# ---------------------------------------------------------------------------

def _check_step_shapes(kind, x_t, h, p):
    if x_t.ndim != 2 or x_t.shape[1] != p.input_size:
        raise ShapeError(f"{kind} input {x_t.shape} incompatible with input size {p.input_size}")
    if h.shape != (x_t.shape[0], p.units):
        raise ShapeError(f"{kind} state {h.shape} incompatible with batch {x_t.shape[0]}, units {p.units}")


def lstm_step(x_t, h, c, p):
    """One LSTM step; returns (h', c')."""
    _check_step_shapes("lstm", x_t, h, p)
    f = sigmoid(x_t @ p.W_f + h @ p.U_f + p.b_f)
    i = sigmoid(x_t @ p.W_i + h @ p.U_i + p.b_i)
    g = np.tanh(x_t @ p.W_g + h @ p.U_g + p.b_g)
    o = sigmoid(x_t @ p.W_o + h @ p.U_o + p.b_o)
    c_new = f * c + i * g
    h_new = o * np.tanh(c_new)
    return h_new, c_new


def gru_step(x_t, h, p):
    """One GRU step; returns h'."""
    _check_step_shapes("gru", x_t, h, p)
    z = sigmoid(x_t @ p.W_z + h @ p.U_z + p.b_z)
    r = sigmoid(x_t @ p.W_r + h @ p.U_r + p.b_r)
    hc = np.tanh(x_t @ p.W_h + (r * h) @ p.U_h + p.b_h)
    return z * h + (1.0 - z) * hc


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
        hs, _ = lstm_forward(x, p)
        h1, _ = lstm_step(x[:, 0, :], np.zeros((5, 4)), np.zeros((5, 4)), p)
        npt.assert_array_equal(hs[:, -1], h1)

        p2 = init_gru_params(3, 4, rng)
        hs2, _ = gru_forward(x, p2)
        npt.assert_array_equal(hs2[:, -1], gru_step(x[:, 0, :], np.zeros((5, 4)), p2))

    def test_zero_params_gru_fixed_point_any_length(self):
        p = zero_gru(2, 3)
        for T in (1, 4, 9):
            x = Rng(62).uniform((3, T, 2)) * 2 - 1
            hs, _ = gru_forward(x, p)
            npt.assert_array_equal(hs[:, -1], np.zeros((3, 3)))

    def test_empty_sequence_rejected(self):
        p = zero_gru(2, 3)
        with pytest.raises(ShapeError):
            gru_forward(np.zeros((3, 0, 2)), p)

    def test_unknown_cell(self):
        # the cell name is read from the model config, which takes gru or lstm only
        with pytest.raises(ValueError, match="streams"):
            ModelConfig(input_timesteps=4, input_channels=2, num_classes=2, streams=("rnn",))

    def test_unroll_gradients_match_fd(self):
        rng = Rng(63)
        p = init_gru_params(2, 3, rng)
        x = rng.uniform((3, 3, 2)) * 2 - 1
        proj = rng.uniform((3, 3)) * 2 - 1
        hs, cache = gru_forward(x, p)
        d_hs = np.zeros(hs.shape)
        d_hs[:, -1] = proj
        dx, grads = gru_backward(cache, d_hs)

        def objective():
            return float(np.sum(gru_forward(x, p)[0][:, -1] * proj))

        assert gradcheck.max_rel_err(dx, gradcheck.fd_grad(objective, x)) < 1e-4
        for name, arr in params_as_dict(p).items():
            assert gradcheck.max_rel_err(grads[name], gradcheck.fd_grad(objective, arr)) < 1e-4


class TestFusedLayout:
    def test_gate_names_are_views_in_parameter_order(self):
        p = init_lstm_params(3, 4, Rng(70))
        assert list(params_as_dict(p)) == [f"{m}_{g}" for m in "WUb" for g in "figo"]
        for gate, slot in zip("fiog", range(4)):
            cols = slice(4 * slot, 4 * slot + 4)
            assert getattr(p, f"W_{gate}").base is p.W
            npt.assert_array_equal(getattr(p, f"U_{gate}"), p.U[:, cols])
        p.b_o[:] = 7.0
        npt.assert_array_equal(p.b, [0.0] * 8 + [7.0] * 4 + [0.0] * 4)

        g = init_gru_params(3, 4, Rng(71))
        assert list(params_as_dict(g)) == ["W_z", "W_r", "W_h", "U_z", "U_r", "U_h",
                                           "b_z", "b_r", "b_h"]
        assert params_as_dict(g)["U_h"] is g.U_h and g.U_r.base is g.U_zr
        g.W_h[...] = 2.0
        npt.assert_array_equal(g.W[:, 8:], 2.0)
        with pytest.raises(AttributeError):
            g.W_f

    def test_init_draws_each_gate_in_name_order(self):
        d, u = 3, 4
        for init, gates in ((init_lstm_params, "figo"), (init_gru_params, "zrh")):
            p = init(d, u, Rng(72))
            rng = Rng(72)
            for g in gates:
                assert getattr(p, f"W_{g}").tobytes() == \
                    init_glorot_uniform(d, u, (d, u), rng).tobytes()
            for g in gates:
                assert getattr(p, f"U_{g}").tobytes() == init_orthogonal(u, u, rng).tobytes()
            assert not any(getattr(p, f"b_{g}").any() for g in gates)

    def test_forward_matches_step_oracle_over_time(self):
        rng = Rng(73)
        x = rng.uniform((4, 7, 3)) * 2 - 1
        pl = init_lstm_params(3, 5, rng)
        pg = init_gru_params(3, 5, rng)
        for p in (pl, pg):
            for name, arr in params_as_dict(p).items():
                if name.startswith("b_"):
                    arr += rng.uniform(arr.shape) - 0.5
        h, c, hg = np.zeros((4, 5)), np.zeros((4, 5)), np.zeros((4, 5))
        hs, _ = lstm_forward(x, pl)
        hsg, _ = gru_forward(x, pg)
        for t in range(7):
            h, c = lstm_step(x[:, t], h, c, pl)
            hg = gru_step(x[:, t], hg, pg)
            npt.assert_allclose(hs[:, t], h, rtol=0, atol=1e-14)
            npt.assert_allclose(hsg[:, t], hg, rtol=0, atol=1e-14)


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


def fused_grads(p, grads: dict) -> dict:
    """Per-gate gradients put back into blocks shaped like ``p``'s stored ones."""
    u = p.units
    blocks = {}
    for name, (block, slot) in p.VIEWS.items():
        out = blocks.setdefault(block, np.empty_like(getattr(p, block)))
        out[..., slot * u:(slot + 1) * u] = grads[name]
    return blocks


class TestRecurrentGradientProducts:
    """The recurrent-weight gradients equal ``np.tensordot`` over (n, T) bit for bit.

    With input rows that form an identity matrix (d = n * T), the input-weight
    gradient x^T da is da itself, so the test reads the pre-activation
    gradients of the cell's own backward from it.
    """

    @pytest.mark.parametrize("n,T,u", [(4, 16, 1), (3, 4, 3), (4, 6, 10), (1, 7, 2)])
    def test_lstm_U_matches_tensordot(self, n, T, u):
        rng = Rng(70 + u)
        p = init_lstm_params(n * T, u, rng)
        x = np.eye(n * T).reshape(n, T, n * T)
        _, cache = lstm_forward(x, p)
        _, grads = lstm_backward(cache, rng.uniform((n, T, u)) - 0.5)
        fused = fused_grads(p, grads)
        da = fused["W"].reshape(n, T, 4 * u)
        h_prev = cache[4]
        oracle = np.tensordot(h_prev, da, axes=([0, 1], [0, 1]))
        assert fused["U"].tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("n,T,u", [(4, 16, 1), (3, 4, 3), (4, 6, 10), (1, 7, 2)])
    def test_gru_U_matches_tensordot(self, n, T, u):
        rng = Rng(80 + u)
        p = init_gru_params(n * T, u, rng)
        x = np.eye(n * T).reshape(n, T, n * T)
        _, cache = gru_forward(x, p)
        _, grads = gru_backward(cache, rng.uniform((n, T, u)) - 0.5)
        fused = fused_grads(p, grads)
        da = fused["W"].reshape(n, T, 3 * u)
        h_prev, rh = cache[3], cache[6]
        oracle_zr = np.tensordot(h_prev, da[:, :, :2 * u], axes=([0, 1], [0, 1]))
        oracle_h = np.tensordot(rh, da[:, :, 2 * u:], axes=([0, 1], [0, 1]))
        assert fused["U_zr"].tobytes() == oracle_zr.tobytes()
        assert fused["U_h"].tobytes() == oracle_h.tobytes()
