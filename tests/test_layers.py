import math

import numpy as np
import numpy.testing as npt
import pytest

from temporal_augmenter import gradcheck
from temporal_augmenter.layers import (
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


def uniform_pm(rng, shape):
    return rng.uniform(shape) * 2.0 - 1.0


def fd_err(run, proj, pairs):
    """Largest relative error over ``pairs`` of (analytic gradient, array)
    of the objective ``sum(run()[0] * proj)``, each array perturbed in place."""
    def objective():
        return float(np.sum(run()[0] * proj))

    return max(gradcheck.max_rel_err(analytic, gradcheck.fd_grad(objective, arr))
               for analytic, arr in pairs)


def conv1d_fd_err(seed=0, trials=5):
    """The textbook conv1d pair against finite differences; the model's own
    front end is checked through ``gradcheck.check_model``."""
    rng = Rng(seed).derive("conv1d")
    worst = 0.0
    for _ in range(trials):
        n = 2 + int(rng.uniform(()) * 2)
        T = 3 + int(rng.uniform(()) * 4)
        c = 1 + int(rng.uniform(()) * 3)
        F = 1 + int(rng.uniform(()) * 4)
        x = uniform_pm(rng, (n, T, c))
        p = DenseParams(W=uniform_pm(rng, (c, F)), b=uniform_pm(rng, (F,)))
        proj = uniform_pm(rng, (n, T, F))
        dW = conv1d_backward(x, proj)
        worst = max(worst, fd_err(lambda: conv1d_forward(x, p), proj, ((dW, p.W),)))
    return worst


def gapped_windows(rng, shape, pool):
    """Random input whose in-window values lie more than 1e-3 apart, 100
    finite-difference steps, so that no step moves a window's winner."""
    while True:
        x = uniform_pm(rng, shape)
        n, T, c = shape
        windows = x[:, :(T // pool) * pool, :].reshape(n, T // pool, pool, c)
        if pool == 1 or np.min(np.diff(np.sort(windows, axis=2), axis=2)) > 1e-3:
            return x


def maxpool1d_fd_err(seed=0, trials=5):
    """The textbook maxpool1d pair against finite differences, for pools 1
    to 3 with and without a remainder step."""
    rng = Rng(seed).derive("maxpool")
    worst = 0.0
    for trial in range(trials):
        n = 2 + int(rng.uniform(()) * 2)
        pool = 1 + trial % 3
        T = pool * (2 + int(rng.uniform(()) * 3)) + trial % 2
        c = 1 + int(rng.uniform(()) * 3)
        x = gapped_windows(rng, (n, T, c), pool)
        y, cache = maxpool1d_forward(x, pool)
        proj = uniform_pm(rng, y.shape)
        dx = maxpool1d_backward(cache, proj)
        worst = max(worst, fd_err(lambda: maxpool1d_forward(x, pool), proj, ((dx, x),)))
    return worst


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
    """The one-tap convolution: the dense map W [d, F], b at each timestep."""

    def test_forced_arithmetic(self):
        x = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]]).reshape(1, 3, 2)
        p = DenseParams(W=np.array([[1.0], [-1.0]]), b=np.array([0.5]))
        y, _ = conv1d_forward(x, p)
        npt.assert_array_equal(y[0, :, 0], [-8.5, -17.5, -26.5])

    def test_kernel1_reduces_to_dense_bitwise(self):
        rng = Rng(21)
        x = rng.uniform((4, 6, 3)) * 2 - 1
        W = rng.uniform((3, 5)) * 2 - 1
        b = rng.uniform((5,)) * 2 - 1
        conv_y, _ = conv1d_forward(x, DenseParams(W=W, b=b))
        dense = DenseParams(W=W, b=b)
        for t in range(6):
            dense_y, _ = dense_forward(x[:, t, :], dense)
            npt.assert_array_equal(conv_y[:, t, :], dense_y)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_bias_first_sum_bitwise(self, d):
        # reference sum: start from a copy of b, then add the product
        rng = Rng(24 + d)
        x = rng.uniform((3, 9, d)) * 2 - 1
        p = DenseParams(W=rng.uniform((d, 5)) * 2 - 1, b=rng.uniform((5,)) * 2 - 1)
        ref = np.broadcast_to(p.b, (3, 9, 5)).copy()
        ref += x @ p.W
        y, _ = conv1d_forward(x, p)
        assert y.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [128, 37])
    def test_matches_the_2d_product_forms_bitwise(self, n):
        """At the ionosphere shape, [n, T, d, F] = [n, 17, 2, 128], the
        layer pair gives the bits of one [n * T, d] product and its
        transpose."""
        rng = Rng(30).derive(str(n))
        T, d, F = 17, 2, 128
        x = rng.uniform((n, T, d)) * 2 - 1
        p = DenseParams(W=rng.uniform((d, F)) * 2 - 1, b=rng.uniform((F,)) * 2 - 1)
        dy = rng.uniform((n, T, F)) * 2 - 1
        y, _ = conv1d_forward(x, p)
        ref = x.reshape(-1, d) @ p.W
        ref += p.b
        assert y.tobytes() == ref.reshape(n, T, F).tobytes()
        dW = conv1d_backward(x, dy)
        assert dW.tobytes() == (x.reshape(-1, d).T @ dy.reshape(-1, F)).tobytes()

    # a block of the mitbih and of the tess shape, [rows, T_out] = [5, 93]
    # and [1, 512], with F = 128
    @pytest.mark.parametrize("rows,T_out", [(5, 93), (1, 512)])
    def test_pooled_operand_matches_its_product_bitwise(self, rows, T_out):
        """The pooled path's kernel gradient, x the transposed view
        [rows * T_out, 3] of a block's columns of the window extremes
        [3, n * T_out], gives the bits of the product of those columns with
        dy [rows * T_out, F]."""
        rng = Rng(31).derive(str(T_out))
        extremes = rng.uniform((3, 3 * rows * T_out)) * 2 - 1
        columns = extremes[:, rows * T_out:2 * rows * T_out]
        dy = rng.uniform((rows, T_out, 128)) * 2 - 1
        dW = conv1d_backward(columns.T, dy)
        assert dW.tobytes() == (columns @ dy.reshape(-1, 128)).tobytes()

    def test_one_channel_matches_matmul_form_with_signed_zeros(self):
        # one input channel: the product has an inner dimension of 1; the
        # layer must give the bits of the 2-D matmul form for every sign of
        # a zero in x, W and b, and for products that round to zero
        x = np.array([0.0, -0.0, 1.5, -2.0, 1e-200, -1e-200, 3.0, np.inf]).reshape(1, 8, 1)
        x = np.concatenate([x, -x, x[:, ::-1]], axis=0)
        W = np.array([[0.0, -0.0, 2.0, -0.5, 1e-200, -1e-200]])
        for b in (np.zeros(6), np.full(6, -0.0), np.tile([0.0, -0.0, 1.0], 2)):
            with np.errstate(invalid="ignore"):
                ref = x.reshape(-1, 1) @ W
                ref += b
                y, _ = conv1d_forward(x, DenseParams(W=W, b=b))
            assert y.tobytes() == ref.reshape(y.shape).tobytes()

    def test_backward_hand_calculation(self):
        # y_t = x_t W + b; with dy = 1 everywhere dW sums the x rows over
        # batch and time; there is no dx
        x = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]]).reshape(1, 3, 2)
        npt.assert_array_equal(conv1d_backward(x, np.ones((1, 3, 1)))[:, 0], [6.0, 60.0])

    def test_channel_mismatch(self):
        p = DenseParams(W=np.zeros((2, 4)), b=np.zeros(4))
        with pytest.raises(ShapeError):
            conv1d_forward(np.zeros((1, 3, 1)), p)
        with pytest.raises(ShapeError):
            conv1d_forward(np.zeros((3, 2)), p)

    def test_finite_differences(self):
        assert conv1d_fd_err(seed=0, trials=20) < 1e-6


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
        assert maxpool1d_fd_err(seed=0, trials=20) < 1e-6


def words_of(values, b=32):
    """The 64-bit words whose bit stream holds the b-bit fields ``values``,
    low bits first, padded with zero bits to a whole word."""
    if b == 1:
        data = np.packbits(np.asarray(values, dtype=np.uint8), bitorder="little")
    else:
        data = np.asarray(values, dtype=f"<u{b // 8}").view(np.uint8)
    padded = np.zeros(8 * -(-data.size // 8), dtype=np.uint8)
    padded[:data.size] = data
    return padded.view("<u8").astype(np.uint64)


def unpacked(cache, shape):
    """The bool keep mask of a dropout cache's packed little-endian bits."""
    n = math.prod(shape)
    return np.unpackbits(cache[0], count=n, bitorder="little").view(bool).reshape(shape)


# rate -> bits per keep decision: the fewest of 1, 8 and 16 for which
# rate * 2**b is an integer, else 32
FIELD_BITS = {0.5: 1, 0.25: 8, 3 / 2 ** 16: 16, 0.3: 32, 1 / 3: 32, 1e-9: 32,
              float(np.nextafter(1.0, 0.0)): 32}


class FixedWords(Rng):
    """An Rng whose 64-bit words are the given ones, so that its bit stream
    is their bits."""

    def __init__(self, words):
        super().__init__(0)
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

    def test_in_place_writes_the_same_bits_over_x(self):
        """Forward and backward each return their input, holding the bits of
        the product (a * keep) * scale."""
        x = Rng(48).uniform((30, 20)) * 2 - 1
        dy = Rng(50).uniform((30, 20)) * 2 - 1
        x0, dy0 = x.copy(), dy.copy()
        y, cache = dropout_forward(x, 0.3, "train", Rng(49))
        keep, scale = unpacked(cache, x.shape), cache[1]
        assert y is x and y.tobytes() == ((x0 * keep) * scale).tobytes()
        dx = dropout_backward(cache, dy)
        assert dx is dy and dx.tobytes() == ((dy0 * keep) * scale).tobytes()

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

    @pytest.mark.parametrize("rate", [0.5, 0.3, 1 / 3, 1e-9, float(np.nextafter(1.0, 0.0)),
                                      0.25, 3 / 2 ** 16])
    def test_word_threshold_equals_uniform_comparison(self, rate):
        """An element is kept when its b-bit field, as the uniform
        ``u * 2**-b``, is >= rate; 64 / b elements take one word."""
        b = FIELD_BITS[rate]
        x = np.ones((40, 25))
        rng = Rng(47)
        _, cache = dropout_forward(x, rate, "train", rng)
        assert rng._counter == -(-x.size * b // 64)
        drawn = Rng(47).next_bits(x.size * b)
        u = (np.unpackbits(drawn, count=x.size, bitorder="little") if b == 1
             else drawn.view(f"<u{b // 8}"))
        npt.assert_array_equal(unpacked(cache, x.shape), u.reshape(x.shape) * 2.0 ** -b >= rate)
        assert cache[0].tobytes() == np.packbits(u * 2.0 ** -b >= rate, bitorder="little").tobytes()
        assert unpacked(cache, x.shape).any() == (rate < 0.9)  # the largest rate below 1 keeps nothing

    @pytest.mark.parametrize("rate", [0.5, 0.3, 1 / 3, 1e-9, float(np.nextafter(1.0, 0.0)),
                                      0.25, 3 / 2 ** 16])
    def test_word_threshold_exact_at_the_boundary(self, rate):
        """Field values on either side of the cut, three of each in a row,
        so that they sit at several places in a word: one at the threshold
        keeps and one below it drops.  At 32 bits and above 1 - 2**-32 the
        threshold is capped at the largest 32-bit value, which keeps."""
        b = FIELD_BITS[rate]
        t = min(math.ceil(rate * 2.0 ** b), 2 ** b - 1)
        values = np.repeat([v for v in (t - 2, t - 1, t, t + 1) if 0 <= v < 2 ** b], 3)
        _, cache = dropout_forward(np.ones(values.shape), rate, "train",
                                   FixedWords(words_of(values, b)))
        keep = unpacked(cache, values.shape)
        want = values * 2.0 ** -b >= rate
        if rate > 1 - 2.0 ** -32:
            want |= values == 2 ** 32 - 1
        npt.assert_array_equal(keep, want)
        npt.assert_array_equal(keep[values == t], True)
        npt.assert_array_equal(keep[values == t - 1], False)

    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.5, 0.9, 0.25])
    def test_kept_fraction_is_one_minus_rate(self, rate):
        n = 2 ** 20
        _, cache = dropout_forward(np.ones(n), rate, "train", Rng(51))
        sigma = math.sqrt(rate * (1 - rate) / n)
        assert abs(unpacked(cache, (n,)).mean() - (1 - rate)) < 5 * sigma

    @pytest.mark.parametrize("rate", [0.5, 0.25, 0.3])
    def test_backward_unpacks_the_forwards_mask(self, rate):
        """The backward reads the forward's packed bits: its gradient is
        zero exactly where the forward dropped, and odd sizes leave no
        stray bit."""
        x = Rng(53).uniform((3, 7, 5)) + 0.5
        y, cache = dropout_forward(x, rate, "train", Rng(54))
        assert cache[0].dtype == np.uint8 and cache[0].size == -(-x.size // 8)
        dx = dropout_backward(cache, np.ones(x.shape))
        npt.assert_array_equal(dx == 0.0, y == 0.0)
        npt.assert_array_equal(dx[dx != 0.0], 1.0 / (1.0 - rate))

    def test_odd_blocks_draw_the_whole_array_mask(self):
        """Blocks of 15, 45 and 45 elements, so that unused bits carry over
        from one block to the next, at one, eight and 32 bits a decision."""
        x = np.ones((7, 5, 3))
        for rate in (0.5, 0.25, 0.3):
            rng = Rng(52)
            blocks = [unpacked(dropout_forward(x[a:b].copy(), rate, "train", rng)[1],
                               (b - a, 5, 3))
                      for a, b in ((0, 1), (1, 4), (4, 7))]
            whole = Rng(52)
            _, cache = dropout_forward(x.copy(), rate, "train", whole)
            npt.assert_array_equal(np.concatenate(blocks), unpacked(cache, x.shape))
            assert rng._counter == whole._counter == -(-x.size * FIELD_BITS[rate] // 64)

    def test_finite_differences(self):
        assert gradcheck.check_dropout(seed=0, trials=10) < 1e-6


class TestReLU:
    def test_values(self):
        y, _ = relu_forward(np.array([-1.0, 0.0, 2.0]))
        npt.assert_array_equal(y, [0.0, 0.0, 2.0])

    def test_gradient_mask(self):
        """The backward reads the output and writes over dy: 1 where the
        output is positive, 0 at and below the kink."""
        y, _ = relu_forward(np.array([3.0, -3.0, 0.0]))
        dy = np.ones(3)
        assert relu_backward(y, dy) is dy
        npt.assert_array_equal(dy, [1.0, 0.0, 0.0])

    def test_writes_over_x(self):
        x = np.array([[-1.0, -0.0, 0.0, 2.0, 5e-324, np.nan]])
        want = np.maximum(x, 0.0)
        y, cache = relu_forward(x)
        assert y is x and cache is None
        assert y.tobytes() == want.tobytes()

    def test_finite_differences(self):
        assert gradcheck.check_relu(seed=0, trials=20) < 1e-6


def keep_words(keep, b):
    """Raw words that dropout at any rate of b-bit decisions keeps exactly
    where ``keep`` holds."""
    return words_of(np.where(keep, 2 ** b - 1, 0), b)


class TestReLUThenDropout:
    """The pair as the model runs it, both in place: ReLU then dropout, and
    the backward from the output with no keep mask."""

    def test_backward_matches_the_textbook_order_bitwise(self):
        """(dy * (y > 0)) * scale equals the dropout then ReLU backward from
        their masks, ((dy * keep) * scale) * (x > 0), on every pairing of
        special values.  Where dy * scale overflows at an element that the
        ReLU zeroes, inf * 0 gives the textbook order NaN and the pair 0."""
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -1.5, 2.0 ** -1070])
        dy, x, keep = (a.ravel() for a in np.meshgrid(specials, specials, [False, True],
                                                      indexing="ij"))
        for rate, b in ((0.0, 32), (0.5, 1), (0.3, 32)):
            with np.errstate(invalid="ignore"):  # inf * 0
                y, _ = relu_forward(x.copy())
                y, (_, scale) = dropout_forward(y, rate, "train", FixedWords(keep_words(keep, b)))
                want = ((dy * keep) * scale) * (x > 0) if rate else dy * (x > 0)
                got = dropout_backward((None, scale), relu_backward(y, dy.copy()))
            assert got.tobytes() == want.tobytes(), rate
        y, _ = relu_forward(np.array([-1.0, 2.0]))
        y, (_, scale) = dropout_forward(y, 0.5, "train", FixedWords(keep_words([True, True], 1)))
        dy = np.array([1e308, 1e308])
        with np.errstate(over="ignore", invalid="ignore"):
            want = (dy * scale) * np.array([0.0, 1.0])
            got = dropout_backward((None, scale), relu_backward(y, dy))
        assert np.isnan(want[0]) and got.tolist() == [0.0, np.inf]


def test_all_layer_backwards_match_fd_on_random_configs():
    """Umbrella property: every layer passes FD on 20 random shapes/configs."""
    for checker in (gradcheck.check_dense, conv1d_fd_err, maxpool1d_fd_err,
                    gradcheck.check_relu):
        assert checker(seed=7, trials=20) < 1e-4
