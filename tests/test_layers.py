import numpy as np
import numpy.testing as npt
import pytest

from temporal_augmenter import gradcheck
from temporal_augmenter.layers import (
    Conv1DParams,
    DenseParams,
    conv1d_backward,
    conv1d_forward,
    dense_backward,
    dense_forward,
    dropout_backward,
    dropout_forward,
    maxpool1d_backward,
    maxpool1d_forward,
    relu_backward,
    relu_forward,
)
from temporal_augmenter.tensor_core import Rng, ShapeError


class TestDense:
    def test_identity(self):
        p = DenseParams(W=np.eye(2), b=np.zeros(2))
        y, _ = dense_forward(np.array([[1.0, 2.0]]), p)
        npt.assert_array_equal(y, [[1.0, 2.0]])

    def test_linear_layer_calculus(self):
        x = np.array([[1.0, 2.0]])
        p = DenseParams(W=np.zeros((2, 2)), b=np.zeros(2))
        _, cache = dense_forward(x, p)
        _, dW, db = dense_backward(cache, np.ones((1, 2)))
        npt.assert_array_equal(db, [1.0, 1.0])
        npt.assert_array_equal(dW, x.T @ np.ones((1, 2)))

    def test_shape_mismatch(self):
        p = DenseParams(W=np.eye(3), b=np.zeros(3))
        with pytest.raises(ShapeError):
            dense_forward(np.zeros((2, 2)), p)

    def test_finite_differences(self):
        assert gradcheck.check_dense(seed=0, trials=20) < 1e-6


class TestConv1D:
    def test_forced_arithmetic(self):
        x = np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1)
        p = Conv1DParams(K=np.array([1.0, -1.0]).reshape(2, 1, 1), b=np.zeros(1))
        y, _ = conv1d_forward(x, p)
        npt.assert_array_equal(y[0, :, 0], [-1.0, -1.0])

    def test_kernel1_reduces_to_dense_bitwise(self):
        rng = Rng(21)
        x = rng.uniform((4, 6, 3)) * 2 - 1
        W = rng.uniform((3, 5)) * 2 - 1
        b = rng.uniform((5,)) * 2 - 1
        conv_y, _ = conv1d_forward(x, Conv1DParams(K=W[None, :, :], b=b))
        dense = DenseParams(W=W, b=b)
        for t in range(6):
            dense_y, _ = dense_forward(x[:, t, :], dense)
            npt.assert_array_equal(conv_y[:, t, :], dense_y)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_bias_first_sum_bitwise(self, k):
        # reference sum: start from a copy of b, then add each shifted product
        rng = Rng(24 + k)
        x = rng.uniform((3, 9, 2)) * 2 - 1
        p = Conv1DParams(K=rng.uniform((k, 2, 5)) * 2 - 1, b=rng.uniform((5,)) * 2 - 1)
        T_out = 9 - k + 1
        ref = np.broadcast_to(p.b, (3, T_out, 5)).copy()
        for j in range(k):
            ref += x[:, j:j + T_out, :] @ p.K[j]
        y, _ = conv1d_forward(x, p)
        assert y.tobytes() == ref.tobytes()

    def test_backward_hand_calculation(self):
        # y_t = x_t - x_{t+1}; with dy = 1 everywhere dK[j] sums the x rows
        # each kernel tap saw and db counts the outputs; there is no dx
        x = np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1)
        p = Conv1DParams(K=np.array([1.0, -1.0]).reshape(2, 1, 1), b=np.zeros(1))
        _, cache = conv1d_forward(x, p)
        dK, db = conv1d_backward(cache, np.ones((1, 2, 1)))
        npt.assert_array_equal(dK[:, 0, 0], [3.0, 5.0])
        npt.assert_array_equal(db, [2.0])

    def test_too_short_sequence(self):
        p = Conv1DParams(K=np.zeros((4, 1, 2)), b=np.zeros(2))
        with pytest.raises(ShapeError):
            conv1d_forward(np.zeros((1, 3, 1)), p)

    def test_finite_differences(self):
        assert gradcheck.check_conv1d(seed=0, trials=20) < 1e-6


def reference_maxpool1d_forward(x, pool):
    """Reference max-pool: argmax per window (first index on ties), values
    gathered with take_along_axis; cache = (x.shape, arg, pool)."""
    n, T, c = x.shape
    T_out = T // pool
    windows = x[:, :T_out * pool, :].reshape(n, T_out, pool, c)
    arg = windows.argmax(axis=2)
    y = np.take_along_axis(windows, arg[:, :, None, :], axis=2)[:, :, 0, :]
    return y, (x.shape, arg, pool)


def reference_maxpool1d_backward(cache, dy):
    """Scatter dy to each window's argmax position into a zero tensor."""
    shape, arg, pool = cache
    n, T, c = shape
    T_out = arg.shape[1]
    dx = np.zeros(shape, dtype=np.float64)
    t_idx = np.arange(T_out)[None, :, None] * pool + arg
    dx[np.arange(n)[:, None, None], t_idx, np.arange(c)[None, None, :]] = dy
    return dx


def assert_bitwise(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    npt.assert_array_equal(a, b)
    npt.assert_array_equal(np.signbit(a), np.signbit(b))


class TestMaxPool1D:
    @pytest.mark.parametrize("pool", [1, 2, 3, 4])
    def test_matches_reference_kernel_bitwise(self, pool):
        rng = Rng(70 + pool)
        levels = np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])
        for T in (pool, 3 * pool, 3 * pool + pool - 1, 5 * pool + 1):
            shape = (3, T, 4)
            pick = (rng.uniform(shape) * len(levels)).astype(np.int64)
            inputs = [
                levels[pick],                   # exact ties
                levels[2 + pick % 2],           # only -0.0 and +0.0
                levels[pick % 3],               # windows <= 0 holding -0.0
                -(rng.uniform(shape) + 0.5),    # all-negative windows
                rng.uniform(shape) * 2 - 1,     # distinct values
            ]
            for x in inputs:
                y, cache = maxpool1d_forward(x, pool)
                y_ref, cache_ref = reference_maxpool1d_forward(x, pool)
                assert_bitwise(y, y_ref)
                dy = rng.uniform(y.shape) * 2 - 1
                dy[..., 0] = -0.0
                dy[..., 1] = 0.0
                assert_bitwise(maxpool1d_backward(cache, dy),
                               reference_maxpool1d_backward(cache_ref, dy))

    def test_cache_is_a_winner_mask_not_the_input(self):
        x = Rng(75).uniform((2, 9, 3))
        _, (shape, mask) = maxpool1d_forward(x, 2)
        assert shape == x.shape
        assert mask.dtype == np.bool_ and mask.shape == (2, 4, 2, 3)
        assert not np.shares_memory(mask, x)
        npt.assert_array_equal(mask.sum(axis=2), 1)

    @pytest.mark.parametrize("pool", [1, 2, 3])
    def test_eval_mode_same_values_no_cache(self, pool):
        x = Rng(76).uniform((3, 10, 4)) * 2 - 1
        x[0, :4, 0] = [-0.0, 0.0, 1.0, 1.0]
        y_train, cache = maxpool1d_forward(x, pool, "train")
        y_eval, eval_cache = maxpool1d_forward(x, pool, "eval")
        assert cache is not None and eval_cache is None
        assert y_eval.tobytes() == y_train.tobytes()

    def test_non_3d_input_names_shape(self):
        with pytest.raises(ShapeError, match=r"\(4, 6\)"):
            maxpool1d_forward(np.zeros((4, 6)), 2)

    def test_window_max(self):
        x = np.array([1.0, 3.0, 2.0, 5.0]).reshape(1, 4, 1)
        y, _ = maxpool1d_forward(x, 2)
        npt.assert_array_equal(y[0, :, 0], [3.0, 5.0])

    def test_argmax_routing(self):
        x = np.array([1.0, 3.0, 2.0, 5.0]).reshape(1, 4, 1)
        _, cache = maxpool1d_forward(x, 2)
        dx = maxpool1d_backward(cache, np.ones((1, 2, 1)))
        npt.assert_array_equal(dx[0, :, 0], [0.0, 1.0, 0.0, 1.0])

    def test_tie_routes_to_first_index(self):
        x = np.array([2.0, 2.0]).reshape(1, 2, 1)
        _, cache = maxpool1d_forward(x, 2)
        dx = maxpool1d_backward(cache, np.ones((1, 1, 1)))
        npt.assert_array_equal(dx[0, :, 0], [1.0, 0.0])

    def test_remainder_steps_dropped(self):
        x = np.arange(7.0).reshape(1, 7, 1)
        y, _ = maxpool1d_forward(x, 2)
        npt.assert_array_equal(y[0, :, 0], [1.0, 3.0, 5.0])

    def test_pool_larger_than_sequence(self):
        with pytest.raises(ShapeError):
            maxpool1d_forward(np.zeros((1, 3, 1)), 4)

    def test_gradient_mass_conserved(self):
        rng = Rng(31)
        for _ in range(10):
            x = rng.uniform((3, 9, 4)) * 2 - 1
            y, cache = maxpool1d_forward(x, 2)
            dy = rng.uniform(y.shape) * 2 - 1
            dx = maxpool1d_backward(cache, dy)
            assert abs(dx.sum() - dy.sum()) < 1e-12

    def test_finite_differences(self):
        assert gradcheck.check_maxpool1d(seed=0, trials=20) < 1e-6


class FixedWords:
    """Stands in for Rng: hands out the given raw words."""

    def __init__(self, words):
        self.words = words

    def next_uint64(self, n):
        assert n == self.words.size
        return self.words.copy()


class TestDropout:
    def test_rate_zero_train_is_identity(self):
        x = Rng(41).uniform((5, 7))
        y, _ = dropout_forward(x, 0.0, "train", Rng(1))
        assert y is x

    def test_eval_is_identity_any_rate(self):
        x = Rng(42).uniform((5, 7))
        y, _ = dropout_forward(x, 0.9, "eval")
        assert y is x

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            dropout_forward(np.ones((2, 2)), 1.0, "train", Rng(0))
        with pytest.raises(ValueError):
            dropout_forward(np.ones((2, 2)), -0.1, "train", Rng(0))

    def test_expectation_preserved(self):
        x = Rng(43).uniform((100000,)) + 0.5
        y, _ = dropout_forward(x, 0.5, "train", Rng(44))
        assert abs(y.mean() - x.mean()) / x.mean() < 0.02

    def test_backward_applies_same_mask(self):
        x = Rng(45).uniform((50, 20))
        y, cache = dropout_forward(x, 0.3, "train", Rng(46))
        dy = np.ones_like(x)
        dx = dropout_backward(cache, dy)
        # gradient zero exactly where the value was dropped, scaled elsewhere
        npt.assert_array_equal(dx == 0.0, y == 0.0)
        assert np.allclose(dx[dx != 0], 1.0 / 0.7)

    @pytest.mark.parametrize("rate", [0.5, 0.3, 1 / 3, 1e-9, float(np.nextafter(1.0, 0.0))])
    def test_word_threshold_equals_uniform_comparison(self, rate):
        x = np.ones((40, 25))
        rng = Rng(47)
        _, (keep, _) = dropout_forward(x, rate, "train", rng)
        assert rng._counter == x.size
        npt.assert_array_equal(keep, Rng(47).uniform(x.shape) >= rate)

    @pytest.mark.parametrize("rate", [0.5, 0.3, 1 / 3, 1e-9, float(np.nextafter(1.0, 0.0))])
    def test_word_threshold_exact_at_the_boundary(self, rate):
        """Words on either side of the cut are kept exactly when their uniform is >= rate."""
        m = int(rate * 2.0 ** 53)
        words = np.array([(k << 11) + low for k in (m - 1, m, m + 1, m + 2)
                          for low in (0, 1, 2047) if k << 11 < 2 ** 64], dtype=np.uint64)
        uniform = (words >> np.uint64(11)) * 2.0 ** -53
        _, (keep, _) = dropout_forward(np.ones(words.shape), rate, "train", FixedWords(words))
        npt.assert_array_equal(keep, uniform >= rate)
        assert keep.any() and not keep.all()

    def test_finite_differences(self):
        assert gradcheck.check_dropout(seed=0, trials=10) < 1e-6


class TestReLU:
    def test_values(self):
        y, _ = relu_forward(np.array([-1.0, 0.0, 2.0]))
        npt.assert_array_equal(y, [0.0, 0.0, 2.0])

    def test_gradient_mask(self):
        _, cache = relu_forward(np.array([3.0, -3.0, 0.0]))
        dx = relu_backward(cache, np.ones(3))
        npt.assert_array_equal(dx, [1.0, 0.0, 0.0])

    def test_eval_mode_same_values_no_cache(self):
        x = np.array([[-1.0, -0.0, 0.0, 2.0, 5e-324]])
        y_train, cache = relu_forward(x, "train")
        y_eval, eval_cache = relu_forward(x, "eval")
        assert cache is not None and eval_cache is None
        assert y_eval.tobytes() == y_train.tobytes()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            relu_forward(np.zeros(2), "infer")
        with pytest.raises(ValueError, match="mode"):
            maxpool1d_forward(np.zeros((1, 2, 1)), 2, "test")

    def test_finite_differences(self):
        assert gradcheck.check_relu(seed=0, trials=20) < 1e-6


def test_all_layer_backwards_match_fd_on_random_configs():
    """Umbrella property: every layer passes FD on 20 random shapes/configs."""
    for checker in (gradcheck.check_dense, gradcheck.check_conv1d,
                    gradcheck.check_maxpool1d, gradcheck.check_relu):
        assert checker(seed=7, trials=20) < 1e-4
