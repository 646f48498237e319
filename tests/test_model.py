import copy
import json
import math
import tracemalloc
import weakref
from dataclasses import fields

import numpy as np
import numpy.testing as npt
import pytest

from temporal_augmenter import gradcheck, layers, model as model_mod, optim, recurrent
from temporal_augmenter.data import DataError, Dataset, ScalerParams
from temporal_augmenter.model import (
    ModelConfig,
    StreamParams,
    TraceError,
    backward,
    build,
    forward,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from temporal_augmenter.tensor_core import Rng, ShapeError


def closed_form_params(cfg: ModelConfig) -> int:
    """Independent hand-derived parameter sum."""
    total = 0
    for kind in cfg.streams:
        total += cfg.input_channels * cfg.conv_filters + cfg.conv_filters
        u = cfg.gru_units if kind == "gru" else cfg.lstm_units
        gates = 3 if kind == "gru" else 4
        total += gates * (cfg.conv_filters * u + u * u + u)
    width = sum(cfg.gru_units if kind == "gru" else cfg.lstm_units for kind in cfg.streams)
    sizes = [width] + list(cfg.dense_sizes) + [cfg.num_classes]
    for a, b in zip(sizes, sizes[1:]):
        total += a * b + b
    return total


def radar_config(**overrides) -> ModelConfig:
    base = dict(input_timesteps=17, input_channels=2, num_classes=2)
    base.update(overrides)
    return ModelConfig(**base)


class TestBuild:
    def test_same_seed_bitwise_identical(self):
        cfg = radar_config()
        a = build(cfg, Rng(3).derive("init"))
        b = build(cfg, Rng(3).derive("init"))
        for name, pa in a.parameters().items():
            npt.assert_array_equal(pa, b.parameters()[name])

    def test_concat_width(self):
        cfg = radar_config(lstm_units=10, gru_units=10)
        assert cfg.concat_width == 20
        net = build(cfg, Rng(0))
        assert net.head[0].W.shape[0] == 20

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(input_timesteps=0, input_channels=1, num_classes=2)
        with pytest.raises(ValueError):
            ModelConfig(input_timesteps=8, input_channels=1, num_classes=1)
        with pytest.raises(ValueError):
            ModelConfig(input_timesteps=8, input_channels=1, num_classes=2, dropout_stream=1.0)
        with pytest.raises(ValueError):
            ModelConfig(input_timesteps=8, input_channels=1, num_classes=2, streams=("gru", "gru"))
        with pytest.raises(ValueError):
            # pooling larger than the input leaves no timesteps
            ModelConfig(input_timesteps=3, input_channels=1, num_classes=2, pool_size=8)

    @pytest.mark.parametrize("key,value", [
        ("dropout_stream", False), ("dropout_head", True), ("dropout_head", "0.3"),
    ])
    def test_bool_and_rate_settings_checked_by_type(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be"):
            radar_config(**{key: value})

    def test_integer_rates_accepted(self):
        cfg = radar_config(dropout_stream=0, dropout_head=0)
        assert cfg.dropout_stream == 0 and cfg.dropout_head == 0


class TestParameters:
    def test_parameters_are_the_stored_arrays(self):
        net = build(radar_config(), Rng(4))
        gru, lstm = net.streams
        stored = {"gru.conv.W": gru.conv.W, "gru.conv.b": gru.conv.b,
                  "gru.cell.W": gru.cell.W, "gru.cell.U": gru.cell.U, "gru.cell.b": gru.cell.b,
                  "lstm.conv.W": lstm.conv.W, "lstm.conv.b": lstm.conv.b,
                  "lstm.cell.W": lstm.cell.W, "lstm.cell.U": lstm.cell.U,
                  "lstm.cell.b": lstm.cell.b}
        for name, dp in zip(("0", "1", "out"), net.head):
            stored.update({f"head.{name}.W": dp.W, f"head.{name}.b": dp.b})
        params = net.parameters()
        assert len(params) == 16
        assert list(params) == list(stored)
        for name, arr in stored.items():
            assert params[name] is arr, name
        probs, trace = forward(net, Rng(5).uniform((3, 17, 2)), mode="train", rng=Rng(6))
        grads = backward(net, trace, probs - np.eye(2)[[0, 1, 1]])
        assert grads.keys() == params.keys()
        for name, arr in params.items():
            assert grads[name].shape == arr.shape, name


class TestParamCount:
    def test_dense_contribution(self):
        # Dense(20 -> 64) alone contributes 20*64 + 64 = 1344
        assert 20 * 64 + 64 == 1344

    def test_cell_contributions(self):
        cfg = radar_config(input_timesteps=40, input_channels=1)
        net = build(cfg, Rng(1))
        params = net.parameters()
        gru = sum(params[k].size for k in params if k.startswith("gru.cell."))
        lstm = sum(params[k].size for k in params if k.startswith("lstm.cell."))
        conv = sum(params[k].size for k in params if k.startswith("gru.conv."))
        assert gru == 4170  # 3 * (128*10 + 10*10 + 10)
        assert lstm == 5560  # 4 * (128*10 + 10*10 + 10)
        assert conv == 256  # 1*1*128 + 128

    def test_radar_closed_form(self):
        cfg = radar_config()
        net = build(cfg, Rng(2))
        assert param_count(net) == closed_form_params(cfg) == 13988

    def test_closed_form_matrix(self):
        rng = Rng(5)
        for _ in range(10):
            cfg = ModelConfig(
                input_timesteps=6 + int(rng.uniform(()) * 20),
                input_channels=1 + int(rng.uniform(()) * 3),
                num_classes=2 + int(rng.uniform(()) * 5),
                conv_filters=2 + int(rng.uniform(()) * 12),
                lstm_units=2 + int(rng.uniform(()) * 6),
                gru_units=2 + int(rng.uniform(()) * 6),
                dense_sizes=(4 + int(rng.uniform(()) * 8), 3),
            )
            assert param_count(build(cfg, rng)) == closed_form_params(cfg)


class TestForward:
    def test_eval_deterministic(self):
        cfg = radar_config()
        net = build(cfg, Rng(7))
        x = Rng(8).uniform((5, 17, 2)) * 2 - 1
        a, _ = forward(net, x, mode="eval")
        b, _ = forward(net, x, mode="eval")
        npt.assert_array_equal(a, b)

    def test_eval_consumes_no_rng(self):
        cfg = radar_config()
        net = build(cfg, Rng(7))
        x = Rng(8).uniform((3, 17, 2))
        rng = Rng(99)
        forward(net, x, mode="eval", rng=rng)
        assert rng._counter == 0

    def test_zeroed_weights_give_uniform_probs(self):
        cfg = radar_config(num_classes=4, dropout_stream=0.0, dropout_head=0.0)
        net = build(cfg, Rng(9))
        for name, arr in net.parameters().items():
            if not name.endswith("conv.W"):
                arr[...] = 0.0
        probs, _ = forward(net, Rng(10).uniform((6, 17, 2)), mode="eval")
        npt.assert_allclose(probs, np.full((6, 4), 0.25), atol=1e-15)

    def test_shape_mismatch(self):
        net = build(radar_config(), Rng(11))
        with pytest.raises(ShapeError):
            forward(net, np.zeros((2, 16, 2)))
        with pytest.raises(ShapeError):
            forward(net, np.zeros((2, 17, 3)))

    def test_probs_rows_sum_to_one(self):
        net = build(radar_config(), Rng(12))
        probs, _ = forward(net, Rng(13).uniform((8, 17, 2)) * 4 - 2, mode="eval")
        npt.assert_allclose(probs.sum(axis=1), np.ones(8), atol=1e-12)


class TestBackward:
    def test_whole_model_fd_five_seeds(self):
        assert gradcheck.check_model(seed=100, builds=5) < 1e-4

    def test_trace_consumed_once(self):
        net = build(radar_config(dropout_stream=0.0, dropout_head=0.0), Rng(16))
        x = Rng(17).uniform((3, 17, 2))
        probs, trace = forward(net, x, mode="train", rng=Rng(0))
        dlogits = probs - probs.mean(axis=1, keepdims=True)
        backward(net, trace, dlogits)
        with pytest.raises(TraceError):
            backward(net, trace, dlogits)

    def test_eval_trace_rejected(self):
        net = build(radar_config(), Rng(18))
        probs, trace = forward(net, Rng(19).uniform((3, 17, 2)), mode="eval")
        with pytest.raises(TraceError):
            backward(net, trace, probs)

    @pytest.mark.parametrize("overrides", [
        {}, {"input_channels": 1}, {"streams": ("lstm",), "dense_sizes": ()},
        {"streams": ("lstm", "gru"), "lstm_units": 1, "gru_units": 2, "dense_sizes": (7,)},
    ])
    def test_gradients_come_in_parameters_order(self, overrides):
        cfg = radar_config(**overrides)
        net = build(cfg, Rng(15))
        x = Rng(14).uniform((3, 17, cfg.input_channels))
        probs, trace = forward(net, x, mode="train", rng=Rng(0))
        grads = backward(net, trace, probs - probs.mean(axis=1, keepdims=True))
        assert ([(name, g.shape) for name, g in grads.items()]
                == [(name, p.shape) for name, p in net.parameters().items()])

    def test_lstm_grads_zero_when_head_ignores_lstm_slice(self):
        # zero head weights on the LSTM slice: no gradient may reach that stream
        cfg = radar_config(dropout_stream=0.0, dropout_head=0.0)
        net = build(cfg, Rng(20))
        net.head[0].W[cfg.gru_units:, :] = 0.0
        x = Rng(21).uniform((4, 17, 2)) * 2 - 1
        probs, trace = forward(net, x, mode="train", rng=Rng(0))
        _, dlogits = optim.cce_loss(probs, np.zeros(4, dtype=np.int64))
        grads = backward(net, trace, dlogits)
        for name, g in grads.items():
            if name.startswith("lstm."):
                assert np.all(g == 0.0), name
        assert any(np.any(g != 0.0) for n, g in grads.items() if n.startswith("gru."))

    def test_concat_gradient_splits_exactly(self, monkeypatch):
        # captured per-stream slices must reassemble the full concat gradient
        cfg = radar_config(dropout_stream=0.0, dropout_head=0.0)
        net = build(cfg, Rng(22))
        x = Rng(23).uniform((4, 17, 2)) * 2 - 1
        captured = []
        original = model_mod._stream_backward

        def capture(sp, cfg_, cache, d_out):
            captured.append((sp.kind, d_out.copy()))
            return original(sp, cfg_, cache, d_out)

        monkeypatch.setattr(model_mod, "_stream_backward", capture)
        probs, trace = forward(net, x, mode="train", rng=Rng(0))
        head_caches = list(trace.head_caches)  # the backward empties the trace
        _, dlogits = optim.cce_loss(probs, np.ones(4, dtype=np.int64))
        backward(net, trace, dlogits)

        # recompute the concat gradient independently from the head caches:
        # a hidden layer's output is the next layer's dense input
        da, _, _ = layers.dense_backward(head_caches[-1][0], dlogits)
        for idx in range(len(net.head) - 2, -1, -1):
            (dcache, scale), out = head_caches[idx], head_caches[idx + 1][0][0]
            da, _, _ = layers.dense_backward(dcache, da * (out > 0) * scale)
        reassembled = np.concatenate([d for _, d in captured], axis=1)
        npt.assert_array_equal(reassembled, da)

    def test_ablation_separability(self, monkeypatch):
        """Zeroing one stream's parameter grads equals cutting its concat slice."""
        cfg = radar_config(dropout_stream=0.0, dropout_head=0.0)
        x = Rng(30).uniform((8, 17, 2)) * 2 - 1
        labels = (Rng(31).uniform((8,)) * 2).astype(np.int64)

        def train_steps(cut_slice: bool):
            net = build(cfg, Rng(32).derive("init"))
            params = net.parameters()
            opt = optim.Adam(optim.TrainConfig(lr=1e-3))
            original = model_mod._stream_backward

            def cutting(sp, cfg_, cache, d_out):
                if sp.kind == "lstm":
                    d_out = np.zeros_like(d_out)
                return original(sp, cfg_, cache, d_out)

            if cut_slice:
                monkeypatch.setattr(model_mod, "_stream_backward", cutting)
            for _ in range(3):
                probs, trace = forward(net, x, mode="train", rng=Rng(0))
                _, dlogits = optim.cce_loss(probs, labels)
                grads = backward(net, trace, dlogits)
                if not cut_slice:
                    for name in grads:
                        if name.startswith("lstm."):
                            grads[name] = np.zeros_like(grads[name])
                opt.step(params, grads)
            if cut_slice:
                monkeypatch.setattr(model_mod, "_stream_backward", original)
            return {n: p.copy() for n, p in params.items()}

        a = train_steps(cut_slice=False)
        b = train_steps(cut_slice=True)
        for name in a:
            npt.assert_array_equal(a[name], b[name], err_msg=name)


def cell_cache_arrays(trace):
    """Every array of a trace's cell caches."""
    return [a for cache in trace.stream_caches for a in cache[1] if isinstance(a, np.ndarray)]


class TestTraceRelease:
    """A backward empties its trace, so no step's caches outlive it."""

    def test_backward_frees_stream_and_head_caches(self):
        net = build(radar_config(), Rng(24))
        probs, trace = forward(net, Rng(25).uniform((5, 17, 2)), mode="train", rng=Rng(26))
        refs = [weakref.ref(a) for a in cell_cache_arrays(trace)]
        refs.append(weakref.ref(trace.stream_caches[1][0][0][2]))  # a block's keep mask
        refs.append(weakref.ref(trace.head_caches[1][0][0]))  # the first head layer's output
        backward(net, trace, probs - probs.mean(axis=1, keepdims=True))
        assert trace.stream_caches == [] and trace.head_caches == []
        assert [ref() for ref in refs] == [None] * len(refs)

    def test_fit_frees_each_step_before_the_next_forward(self, monkeypatch):
        cfg = radar_config(conv_filters=6, dense_sizes=(8,))
        net = build(cfg, Rng(27))
        x = Rng(28).uniform((10, 17, 2)) * 2 - 1
        labels = np.arange(10) % 2
        train_set = Dataset(features=x, labels=labels, class_names=["b", "g"])
        original = model_mod.forward
        refs, alive = [], []

        def watching(model, x, mode="eval", rng=None):
            if mode == "train":
                alive.append(sum(ref() is not None for ref in refs))
                probs, trace = original(model, x, mode=mode, rng=rng)
                refs[:] = [weakref.ref(a) for a in cell_cache_arrays(trace)]
                return probs, trace
            return original(model, x, mode=mode, rng=rng)

        monkeypatch.setattr(model_mod, "forward", watching)
        optim.fit(net, train_set, train_set, optim.TrainConfig(batch_size=5, epochs=2), Rng(0))
        # four steps; none finds a cell cache of the step before it alive
        assert alive == [0, 0, 0, 0]
        assert len(refs) == 2 * 4  # the GRU's four arrays and the LSTM's four


class TestTrainStepMemory:
    def test_step_peak_below_the_cell_caches_and_one_cell_input(self):
        """One mitbih-shaped train step holds, at its traced peak, less than
        the cell caches plus one [n, T_out, F] array: no whole-batch cell
        input or cell-input gradient exists.  tracemalloc counts bytes, so
        the bound is the same on every run."""
        cfg = ModelConfig(input_timesteps=187, input_channels=1, num_classes=5,
                          conv_filters=128)
        n = 64
        net = build(cfg, Rng(140))
        x = Rng(141).uniform((n, 187, 1)) * 2 - 1
        labels = np.arange(n) % 5

        def step():
            probs, trace = forward(net, x, mode="train", rng=Rng(142))
            cell_bytes = sum(a.nbytes for a in cell_cache_arrays(trace))
            _, dlogits = optim.cce_loss(probs, labels)
            backward(net, trace, dlogits)
            return cell_bytes

        step()
        tracemalloc.start()
        try:
            cell_bytes = step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cell_bytes + n * cfg.recurrent_timesteps * cfg.conv_filters * 8


def relu_then_pool_stream_forward(sp, cfg, x, windows, mode, rng):
    """Stream forward in the textbook order conv1d -> ReLU -> maxpool over
    the whole batch, the cell given one GEMM over its whole input, and the
    ReLU's own strict positive mask kept for the backward; the forward's
    windows go unread."""
    y, conv_cache = layers.conv1d_forward(x, sp.conv)
    y, act_cache = np.maximum(y, 0.0), y > 0
    y, pool_cache = layers.maxpool1d_forward(y, cfg.pool_size)
    y, drop_cache = layers.dropout_forward(y, cfg.dropout_stream, mode, rng)
    run = recurrent.gru_forward if sp.kind == "gru" else recurrent.lstm_forward
    h, cell_cache = run(recurrent.project(y, *recurrent.scaled_input(sp.cell)), sp.cell, mode=mode)
    return h, (conv_cache, act_cache, pool_cache, drop_cache, y, cell_cache)


def relu_then_pool_stream_backward(sp, cfg, cache, d_out):
    """The textbook-order backward over the whole batch, from the whole
    cell input its forward kept."""
    conv_cache, act_cache, pool_cache, drop_cache, y, cell_cache = cache
    run = recurrent.gru_backward if sp.kind == "gru" else recurrent.lstm_backward
    da, cell_grads = run(cell_cache, d_out)
    d, dW = recurrent.project_backward(y, da, sp.cell)
    d = layers.dropout_backward(drop_cache, d)
    d = layers.maxpool1d_backward(pool_cache, d) * act_cache
    conv = layers.DenseParams(layers.conv1d_backward(conv_cache[0], d), d.sum(axis=(0, 1)))
    return StreamParams(sp.kind, conv, recurrent.CellParams(W=dW, **cell_grads))


class TestStreamOrder:
    """The general path, on one channel too, equals the textbook order bit
    for bit but for the kernel gradient, which it sums over slot-major
    window slots, not over time-major steps with zeros; the pooled path
    sums it in a third order (``TestPooledFrontEnd``)."""

    @staticmethod
    def assert_matches_relu_then_pool(monkeypatch, net, x):
        monkeypatch.setattr(model_mod, "_pools_first", lambda cfg: False)
        labels = np.array([0, 1, 1, 0, 1])

        def step():
            probs, trace = forward(net, x, mode="train", rng=Rng(83))
            _, dlogits = optim.cce_loss(probs, labels)
            return probs, backward(net, trace, dlogits), forward(net, x, mode="eval")[0]

        probs, grads, eval_probs = step()
        monkeypatch.setattr(model_mod, "_stream_forward", relu_then_pool_stream_forward)
        monkeypatch.setattr(model_mod, "_stream_backward", relu_then_pool_stream_backward)
        ref_probs, ref_grads, ref_eval = step()
        assert probs.tobytes() == ref_probs.tobytes()
        assert eval_probs.tobytes() == ref_eval.tobytes()
        assert grads.keys() == ref_grads.keys()
        for name, g in grads.items():
            if name.endswith("conv.W"):
                scale = np.max(np.abs(ref_grads[name]))
                assert np.max(np.abs(g - ref_grads[name])) <= 1e-13 * scale, name
            else:
                assert g.tobytes() == ref_grads[name].tobytes(), name

    @staticmethod
    def instance(channels, pool):
        cfg = radar_config(input_channels=channels, conv_filters=6, pool_size=pool,
                           dense_sizes=(8,))
        net = build(cfg, Rng(80).derive("init"))
        for name, arr in net.parameters().items():
            if name.endswith(".b"):
                arr += Rng(81).derive(name).uniform(arr.shape) - 0.5
        return net, Rng(82).uniform((5, 17, channels)) * 2 - 1

    # "-relu" ends each id as it did when the activation was a setting
    @pytest.mark.parametrize("channels", [1, 2, 3], ids=lambda channels: f"{channels}-relu")
    @pytest.mark.parametrize("pool", [1, 2, 3])
    def test_pool_then_relu_matches_relu_then_pool_bitwise(self, monkeypatch, channels, pool):
        self.assert_matches_relu_then_pool(monkeypatch, *self.instance(channels, pool))

    @pytest.mark.parametrize("channels", [1, 2, 3])
    @pytest.mark.parametrize("pool", [1, 2, 3])
    def test_tied_windows_match_relu_then_pool_bitwise(self, monkeypatch, channels, pool):
        """Windows of equal steps, of +-0.0 and of a step that ties a later
        one, and a bias of -0.0: the first slot holding a window's max wins,
        and the bias folded into the product adds as the textbook's does."""
        net, x = self.instance(channels, pool)
        for sp in net.streams:
            sp.conv.b[:2] = (-0.0, 0.0)
        x[0, :3 * pool] = x[0, 0]  # windows of exact ties
        x[1, :2 * pool] = 0.0
        x[1, :2 * pool:2] = -0.0  # +-0.0 steps, in every channel
        x[2, pool - 1] = x[2, 0]  # a window's first step ties its last
        x[3] = x[3, 5]  # a whole row of one step
        x[4, :, 0] = -0.0
        self.assert_matches_relu_then_pool(monkeypatch, net, x)

    def test_eval_forward_keeps_no_cell_cache(self):
        net = build(radar_config(), Rng(84))
        x = Rng(85).uniform((3, 17, 2))
        _, eval_trace = forward(net, x, mode="eval")
        _, train_trace = forward(net, x, mode="train", rng=Rng(0))
        assert all(cache[1] is None for cache in eval_trace.stream_caches)
        assert all(cache[1] is not None for cache in train_trace.stream_caches)


# The gradients that the stream backward sums block by block; a change of
# blocking moves their last bits, and no other gradient's.
BLOCK_SUMMED = ("conv.W", "conv.b", "cell.W")


def assert_same_gradients(grads, want):
    """Every gradient bitwise equal to ``want``'s, except those summed over
    blocks, which must agree to 1e-13 of their largest entry."""
    assert grads.keys() == want.keys()
    for name, g in grads.items():
        if name.endswith(BLOCK_SUMMED):
            scale = np.max(np.abs(want[name]))
            assert np.max(np.abs(g - want[name])) <= 1e-13 * scale, name
        else:
            assert g.tobytes() == want[name].tobytes(), name


def took_pooled_path(cache) -> bool:
    """Whether a stream's cache holds the pooled path's terms: its window
    extremes [rows, n, T_out], not the general path's window slots."""
    return cache[2][0].ndim == 3


class TestBlockedFrontEnd:
    # one channel takes the pooled path, three the general path
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("pool", [2, 3])
    def test_block_size_changes_no_bit(self, monkeypatch, channels, pool):
        cfg = radar_config(input_channels=channels, conv_filters=6, pool_size=pool,
                           dense_sizes=(8,))
        net = build(cfg, Rng(90).derive("init"))
        for name, arr in net.parameters().items():
            if name.endswith(".b"):
                arr += Rng(91).derive(name).uniform(arr.shape) - 0.5
        x = Rng(92).uniform((7, 17, channels)) * 2 - 1
        labels = np.array([0, 1, 1, 0, 1, 0, 0])
        width = cfg.recurrent_timesteps if channels == 1 else 17
        row_bytes = width * cfg.conv_filters * 8
        runs = []
        # 1-row blocks; 3-row blocks (3, 3, 1); one block for the whole batch
        for block_bytes, blocks in ((1, 7), (3 * row_bytes + row_bytes // 2, 3), (1 << 40, 1)):
            monkeypatch.setattr(model_mod, "_BLOCK_BYTES", block_bytes)
            rng = Rng(93)
            probs, trace = forward(net, x, mode="train", rng=rng)
            assert [len(cache[0]) for cache in trace.stream_caches] == [blocks, blocks]
            _, dlogits = optim.cce_loss(probs, labels)
            grads = backward(net, trace, dlogits)
            eval_probs, _ = forward(net, x, mode="eval")
            runs.append((probs, grads, rng._counter, eval_probs))
        probs, grads, counter, eval_probs = runs[0]
        # one bit per stream-dropout element at rate 0.5, then 32 per
        # head-dropout element at 0.3, all from one stream of 64-bit words
        assert counter == -(-7 * (2 * cfg.recurrent_timesteps * cfg.conv_filters + 8 * 32) // 64)
        for other_probs, other_grads, other_counter, other_eval in runs[1:]:
            assert other_probs.tobytes() == probs.tobytes()
            assert other_eval.tobytes() == eval_probs.tobytes()
            assert other_counter == counter
            assert_same_gradients(other_grads, grads)

    # "-relu" ends each id as it did when the activation was a setting
    @pytest.mark.parametrize("pooled", [True, False], ids=lambda pooled: f"{pooled}-relu")
    def test_train_trace_keeps_only_the_stream_keep_masks(self, monkeypatch, pooled):
        """A train trace's only mask arrays are the stream dropout keep
        masks, one per block as packed bits, which the backward needs to
        re-form the block's cell input: no bool array at all, so no
        max-pool winner mask, no ReLU mask, and none in the head's caches,
        though the head applies dropout too.  Nor does a stream cache hold
        the input x: the backward reads only the forward's windows."""
        make = heartbeat_config if pooled else radar_config
        cfg = make(conv_filters=6, dense_sizes=(8, 4))
        net = build(cfg, Rng(94))
        x = Rng(95).uniform((7, 17, cfg.input_channels)) * 2 - 1
        monkeypatch.setattr(model_mod, "_block_bounds",
                            lambda n, width, cfg: [(0, 3), (3, 6), (6, 7)])
        _, trace = forward(net, x, mode="train", rng=Rng(96))
        assert [took_pooled_path(cache) for cache in trace.stream_caches] == [pooled, pooled]
        T_out, F = cfg.recurrent_timesteps, cfg.conv_filters
        keep_masks = []
        for cache in trace.stream_caches:
            assert [(start, stop, keep.dtype, keep.shape) for start, stop, keep, _ in cache[0]] == [
                (start, stop, np.dtype(np.uint8), (-(-(stop - start) * T_out * F // 8),))
                for start, stop in [(0, 3), (3, 6), (6, 7)]]
            keep_masks += [keep for _, _, keep, _ in cache[0]]
        arrays = list(arrays_in([trace.stream_caches, trace.head_caches]))
        assert not [a for a in arrays if a.dtype == bool]
        assert [id(a) for a in arrays if a.dtype == np.uint8] == [id(keep) for keep in keep_masks]
        assert not [a for a in arrays_in(trace.stream_caches) if np.shares_memory(a, x)]


def heartbeat_config(**overrides) -> ModelConfig:
    """One input channel: the pooled front-end."""
    base = dict(input_timesteps=17, input_channels=1, num_classes=3, conv_filters=6,
                dense_sizes=(8,))
    base.update(overrides)
    return ModelConfig(**base)


class TestBlockProjection:
    """Each front-end block is projected into the cells' input as soon as it
    is formed, so an eval forward holds no [n, T_out, F] cell input."""

    @pytest.mark.parametrize("pooled", [True, False])
    def test_eval_peak_below_one_cell_input(self, monkeypatch, pooled):
        cfg = ModelConfig(input_timesteps=187, input_channels=1, num_classes=5)  # mitbih
        if not pooled:
            monkeypatch.setattr(model_mod, "_pools_first", lambda cfg: False)
        net = build(cfg, Rng(120))
        x = Rng(121).uniform((64, 187, 1)) * 2 - 1
        forward(net, x, mode="eval")
        tracemalloc.start()
        try:
            forward(net, x, mode="eval")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * cfg.recurrent_timesteps * cfg.conv_filters * 8

    @pytest.mark.parametrize("pooled", [True, False])
    def test_one_step_trailing_sample_joins_the_block_before(self, monkeypatch, pooled):
        """With one recurrent step per sample, a one-sample block would make
        a one-row projection, whose sums (gemv) differ from gemm's."""
        if pooled:
            cfg = heartbeat_config(input_timesteps=3, conv_filters=16, dropout_stream=0.5)
        else:
            cfg = radar_config(input_timesteps=3, conv_filters=16, dropout_stream=0.5,
                               dense_sizes=(8,))
        assert cfg.recurrent_timesteps == 1
        net = build(cfg, Rng(122).derive("init"))
        x = Rng(123).uniform((7, cfg.input_timesteps, cfg.input_channels)) * 2 - 1
        labels = np.arange(7) % cfg.num_classes
        width = 1 if pooled else cfg.input_timesteps
        runs = []
        # 3-row blocks would leave one row last (3, 3, 1); then one block
        for block_bytes, bounds in ((3 * width * cfg.conv_filters * 8, [(0, 3), (3, 7)]),
                                    (1 << 40, [(0, 7)])):
            monkeypatch.setattr(model_mod, "_BLOCK_BYTES", block_bytes)
            probs, trace = forward(net, x, mode="train", rng=Rng(124))
            for cache in trace.stream_caches:
                assert [(start, stop) for start, stop, *_ in cache[0]] == bounds
            _, dlogits = optim.cce_loss(probs, labels)
            grads = backward(net, trace, dlogits)
            eval_probs, _ = forward(net, x, mode="eval")
            runs.append((probs, grads, eval_probs))
        (probs, grads, eval_probs), (one_probs, one_grads, one_eval) = runs
        assert probs.tobytes() == one_probs.tobytes()
        assert eval_probs.tobytes() == one_eval.tobytes()
        assert_same_gradients(grads, one_grads)

    @pytest.mark.parametrize("pooled", [True, False])
    @pytest.mark.parametrize("streams", [("gru",), ("lstm",), ("gru", "lstm")])
    def test_eval_matches_the_textbook_order(self, monkeypatch, pooled, streams):
        """Eval probs from 3-row blocks equal conv1d -> ReLU -> maxpool over
        the whole batch with one projection GEMM per cell."""
        make = heartbeat_config if pooled else radar_config
        cfg = make(conv_filters=6, dense_sizes=(8,), streams=streams)
        net = build(cfg, Rng(125).derive("init"))
        for name, arr in net.parameters().items():
            if name.endswith(".b"):
                arr += Rng(126).derive(name).uniform(arr.shape) - 0.5
        x = Rng(127).uniform((7, cfg.input_timesteps, cfg.input_channels)) * 2 - 1
        width = cfg.recurrent_timesteps if pooled else cfg.input_timesteps
        monkeypatch.setattr(model_mod, "_BLOCK_BYTES", 3 * width * cfg.conv_filters * 8)
        probs, trace = forward(net, x, mode="eval")
        assert [len(cache[0]) for cache in trace.stream_caches] == [3] * len(streams)
        monkeypatch.setattr(model_mod, "_stream_forward", relu_then_pool_stream_forward)
        ref_probs, _ = forward(net, x, mode="eval")
        assert probs.tobytes() == ref_probs.tobytes()


class TestPooledFrontEnd:
    """The pooled path against the general path, which runs when the branch
    test is patched to say no."""

    @staticmethod
    def awkward_instance(cfg):
        """A model with kernel entries of +0.0 and -0.0 and a bias of -0.0,
        and inputs holding signed zeros and windows of tied values."""
        net = build(cfg, Rng(110).derive("init"))
        for name, arr in net.parameters().items():
            if name.endswith(".b"):
                arr += Rng(111).derive(name).uniform(arr.shape) - 0.5
        for sp in net.streams:
            sp.conv.W[0, :2] = (0.0, -0.0)
            sp.conv.b[:3] = (-0.25, 0.25, -0.0)  # filter 0 is dead under ReLU
        pool = cfg.pool_size
        x = Rng(112).uniform((7, cfg.input_timesteps, 1)) * 2 - 1
        x[0, :pool] = x[0, 0]  # one window of exact ties
        x[1, :pool] = 0.0
        x[1, 0] = -0.0
        x[2, pool:2 * pool] = -0.0
        x[3] = x[3, 5]  # a whole row of one value
        x[4, 2 * pool:3 * pool] = x[4, 2 * pool:3 * pool].max()
        return net, x

    @staticmethod
    def step(net, x, monkeypatch):
        rng = Rng(113)
        blocks = []  # every block of cell input the train forward projects, in order
        project = recurrent.project
        monkeypatch.setattr(recurrent, "project", lambda y, Ws, bs, out: blocks.append(y.copy())
                            or project(y, Ws, bs, out=out))
        probs, trace = forward(net, x, mode="train", rng=rng)
        monkeypatch.setattr(recurrent, "project", project)
        pooled = [(took_pooled_path(cache), len(cache[0])) for cache in trace.stream_caches]
        cell_ins = [np.concatenate(blocks[:3]), np.concatenate(blocks[3:])]
        labels = np.arange(x.shape[0]) % net.config.num_classes
        _, dlogits = optim.cce_loss(probs, labels)
        grads = backward(net, trace, dlogits)
        eval_probs, _ = forward(net, x, mode="eval")
        return pooled, probs, cell_ins, grads, rng._counter, eval_probs

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @pytest.mark.parametrize("pool", [1, 2, 3])
    def test_matches_the_general_path(self, monkeypatch, dropout, pool):
        cfg = heartbeat_config(dropout_stream=dropout, pool_size=pool)
        assert pool == 1 or cfg.input_timesteps % pool  # a remainder step is dropped
        net, x = self.awkward_instance(cfg)
        # 3-row blocks on both paths: 7 rows run as 3, 3 and 1, so that both
        # sum their gradients over the same blocks
        monkeypatch.setattr(model_mod, "_block_bounds",
                            lambda n, width, cfg: [(0, 3), (3, 6), (6, 7)])
        pooled, probs, cell_ins, grads, counter, eval_probs = self.step(net, x, monkeypatch)
        monkeypatch.setattr(model_mod, "_pools_first", lambda cfg: False)
        ref_pooled, ref_probs, ref_cell_ins, ref_grads, ref_counter, ref_eval = self.step(
            net, x, monkeypatch)
        # (pooled path taken, blocks) per stream
        assert pooled == [(True, 3), (True, 3)]
        assert [taken for taken, _ in ref_pooled] == [False, False]
        assert probs.tobytes() == ref_probs.tobytes()
        assert eval_probs.tobytes() == ref_eval.tobytes()
        assert counter == ref_counter
        for got, want in zip(cell_ins, ref_cell_ins):
            assert got.tobytes() == want.tobytes()
        assert grads.keys() == ref_grads.keys()
        for name, g in grads.items():
            if name.endswith("conv.W"):
                # summed over [n, T_out] windows, not over [pool, n, T_out] slots
                scale = np.max(np.abs(ref_grads[name]))
                assert np.max(np.abs(g - ref_grads[name])) <= 1e-13 * scale, name
            else:
                assert g.tobytes() == ref_grads[name].tobytes(), name

    @pytest.mark.parametrize("pool", [1, 2, 3])
    def test_window_extremes_match_the_reductions_bitwise(self, pool):
        """The pairwise max and min equal ``max(axis)`` and ``min(axis)``
        over the windows bit for bit, signed zeros in ties included, and the
        third row, which only a train forward forms, is each window's first
        step."""
        cfg = heartbeat_config(pool_size=pool)
        assert pool == 1 or cfg.input_timesteps % pool  # a remainder step is dropped
        x = self.awkward_instance(cfg)[1]
        # windows of zeros, -0.0 first then +0.0 first: the ufuncs return
        # their second operand on a tie, so the order decides the sign
        x[5, :2 * pool] = 0.0
        x[5, :pool:2] = x[5, pool + 1:2 * pool:2] = -0.0
        x[6, -1] = 9.0  # in the dropped remainder, so no window's max
        T_out = cfg.recurrent_timesteps
        windows = x[:, :T_out * pool, 0].reshape(-1, T_out, pool)
        want = np.stack((windows.max(axis=2), windows.min(axis=2), windows[..., 0]))
        assert model_mod._window_extremes(cfg, x, "train").tobytes() == want.tobytes()
        assert model_mod._window_extremes(cfg, x, "eval").tobytes() == want[:2].tobytes()

    def test_streams_share_one_extremes_array(self):
        """One train forward takes the window extremes once: both stream
        caches hold the same array."""
        cfg = heartbeat_config()
        net, x = self.awkward_instance(cfg)
        _, trace = forward(net, x, mode="train", rng=Rng(114))
        gru, lstm = (cache[2][0] for cache in trace.stream_caches)
        assert gru is lstm


class TestGeneralFrontEnd:
    """The general path's window slots and pool winners, against a loop over
    the steps and ``layers.maxpool1d_*``."""

    @pytest.mark.parametrize("pool", [1, 2, 3])
    @pytest.mark.parametrize("timesteps", [12, 13])  # 13 leaves a remainder but at pool 1
    def test_window_slots_hold_each_windows_steps_bitwise(self, pool, timesteps):
        cfg = radar_config(input_timesteps=timesteps, input_channels=3, pool_size=pool)
        x = Rng(150).uniform((4, timesteps, 3)) * 2 - 1
        x[0, 1], x[1, 2, 1], x[2, -1] = -0.0, np.nan, 9.0
        T_out = cfg.recurrent_timesteps
        want = np.empty((pool, 4, T_out, 4))
        for j in range(pool):
            for t in range(T_out):
                want[j, :, t, :3] = x[:, t * pool + j]
                want[j, :, t, 3] = 1.0
        assert model_mod._window_slots(cfg, x).tobytes() == want.tobytes()

    def test_streams_share_one_slots_array(self):
        """One forward forms the window slots once: both stream caches hold
        the same array."""
        net = build(radar_config(), Rng(151))
        _, trace = forward(net, Rng(152).uniform((5, 17, 2)), mode="train", rng=Rng(153))
        gru, lstm = (cache[2][0] for cache in trace.stream_caches)
        assert gru is lstm and gru.shape == (2, 5, 8, 3)

    @pytest.mark.parametrize("pool", [1, 2, 3])
    def test_winners_are_maxpool1d_winners_bitwise(self, pool):
        """g's bits reach maxpool1d's winner of each window, the first slot
        holding the max, ties and signed zeros included; a window holding
        NaN routes no gradient, and every other slot holds +0.0."""
        rows, T, F = 3, 13, 4
        T_out = T // pool
        conv_out = np.round(Rng(154).uniform((rows, T, F)) * 4 - 2)  # many ties
        conv_out[0, :pool, :2] = (0.0, -0.0)
        conv_out[1, pool:2 * pool, 1] = np.nan  # a window of NaN
        conv_out[2, 2 * pool - 1, 2] = np.nan  # a window whose last step is NaN
        g = Rng(155).uniform((rows, T_out, F)) - 0.5
        g[0, 0, 3] = -0.0
        products = np.stack([conv_out[:, j:T_out * pool:pool].reshape(-1, F)
                             for j in range(pool)])
        routed = model_mod._route_to_winners(products, g)
        assert routed is products  # written over the slot products
        want = layers.maxpool1d_backward(layers.maxpool1d_forward(conv_out, pool)[1], g)
        # the textbook gradient's steps in slot-major order: slot j of window
        # t is step t * pool + j, and the remainder steps are dropped
        want = want[:, :T_out * pool].reshape(rows, T_out, pool, F).transpose(2, 0, 1, 3)
        assert routed.tobytes() == np.ascontiguousarray(want).tobytes()
        windows = routed.reshape(pool, rows, T_out, F)
        assert not windows[:, 1, 1, 1].view(np.uint64).any()
        assert not windows[:, 2, 1, 2].view(np.uint64).any()


def arrays_in(obj):
    """Every ndarray in nested tuples and lists."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from arrays_in(item)


class TestRepeatedCalls:
    """A model carries nothing from one call to the next: a used model's
    train steps and eval forwards equal a fresh model's, bit for bit."""

    # one channel takes the pooled path, three the general path
    @pytest.mark.parametrize("timesteps,channels", [(17, 1), (23, 3)])
    def test_used_model_matches_a_fresh_model_bitwise(self, tmp_path, timesteps, channels):
        cfg = radar_config(input_timesteps=timesteps, input_channels=channels, conv_filters=6,
                           dense_sizes=(8,))

        def fresh():
            return build(cfg, Rng(95).derive("init"))

        def inputs(n):
            return Rng(96).derive(str(n)).uniform((n, timesteps, channels)) * 2 - 1

        def train_step(net, n):
            probs, trace = forward(net, inputs(n), mode="train", rng=Rng(97))
            _, dlogits = optim.cce_loss(probs, np.arange(n) % 2)
            return [probs, *backward(net, trace, dlogits).values()]

        def eval_forward(net, n):
            return [forward(net, inputs(n), mode="eval")[0]]

        net = fresh()
        # a full batch, the last partial one, a large eval forward, then a
        # larger batch and a small eval forward
        for op, n in ((train_step, 7), (train_step, 3), (eval_forward, 40),
                      (train_step, 9), (eval_forward, 11)):
            want = [a.tobytes() for a in op(fresh(), n)]
            assert [a.tobytes() for a in op(net, n)] == want, (op.__name__, n)
            assert [a.tobytes() for a in op(net, n)] == want, (op.__name__, n)
        assert net.parameters().keys() == fresh().parameters().keys()
        save_checkpoint(tmp_path / "used.tackpt", net)
        save_checkpoint(tmp_path / "fresh.tackpt", fresh())
        assert (tmp_path / "used.tackpt").read_bytes() == (tmp_path / "fresh.tackpt").read_bytes()


def miniature_checkpoint_bytes(tmp_path) -> bytes:
    path = tmp_path / "mini.tackpt"
    scaler = ScalerParams(mean=Rng(45).uniform((5, 2)), std=Rng(46).uniform((5, 2)) + 0.5)
    save_checkpoint(path, build(gradcheck.miniature_config(), Rng(44)),
                    extras={"class_names": ["a", "b", "c"]}, scaler=scaler)
    return path.read_bytes()


def stored_shapes(header) -> dict:
    """name -> shape of each tensor a checkpoint with ``header`` stores, in
    order: its config's parameters, then the scaler's mean and std."""
    cfg = ModelConfig(**header["config"])
    shapes = {name: arr.shape for name, arr in build(cfg, Rng(0)).parameters().items()}
    if header["scaler"]:
        shapes["scaler.mean"] = shapes["scaler.std"] = (cfg.input_timesteps, cfg.input_channels)
    return shapes


def split_checkpoint(blob: bytes):
    """(header dict, [tensor arrays]) of a well-formed checkpoint."""
    hlen = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16:16 + hlen])
    flat = np.frombuffer(blob[16 + hlen:], dtype="<f8")
    arrays, offset = [], 0
    for shape in stored_shapes(header).values():
        size = math.prod(shape)
        arrays.append(flat[offset:offset + size].reshape(shape))
        offset += size
    return header, arrays


def join_checkpoint(header_bytes: bytes, arrays) -> bytes:
    return (b"TACKPT01" + len(header_bytes).to_bytes(8, "little") + header_bytes
            + b"".join(np.asarray(a, dtype="<f8").tobytes() for a in arrays))


def _edit_tensor(name, edit):
    """A corruption that replaces the stored tensor ``name`` with the
    arrays ``edit`` makes of it."""
    def corrupt(header, arrays):
        idx = list(stored_shapes(header)).index(name)
        arrays = [*arrays[:idx], *edit(arrays[idx]), *arrays[idx + 1:]]
        return join_checkpoint(json.dumps(header).encode(), arrays)
    return corrupt


# Each edits the parsed header in place; the file is then re-encoded whole.
HEADER_EDITS = {
    "version": lambda h: h.update(version=4),
    "no_version": lambda h: h.pop("version"),
    "config_unknown_key": lambda h: h["config"].update(bogus=1),
    "config_bad_value": lambda h: h["config"].update(pool_size=0),
    "config_bad_type": lambda h: h["config"].update(dense_sizes="x"),
    # a field of version 3's config, whose model is the default's
    "config_removed_field": lambda h: h["config"].update(return_sequences=False),
    # a field of version 4's config, at the default it always held
    "config_removed_kernel": lambda h: h["config"].update(conv_kernel=1),
    "config_rate_is_bool": lambda h: h["config"].update(dropout_stream=False),
    "config_missing": lambda h: h.pop("config"),
    "extras_not_object": lambda h: h.update(extras=[1]),
    # rejected by the length check before a 10**12-filter model is allocated
    "config_huge_sizes": lambda h: h["config"].update(conv_filters=10 ** 12),
    # numpy cannot index the model's [d, 10**30] conv weights
    "config_sizes_past_numpy": lambda h: h["config"].update(conv_filters=10 ** 30),
    # a mapping once passed as a list of its keys
    "config_streams_object": lambda h: h["config"].update(streams={"gru": 1, "lstm": 2}),
    # once took the default, which is also the miniature's size
    "config_field_missing": lambda h: h["config"].pop("pool_size"),
    # the stored scaler is [5, 2]; no parameter's shape reads input_timesteps
    "config_timesteps_beside_the_scaler": lambda h: h["config"].update(input_timesteps=6),
    "scaler_missing": lambda h: h.pop("scaler"),
    "scaler_false_beside_its_values": lambda h: h.update(scaler=False),
}

# Each replaces one field of a header's config in the property test below.
BAD_HEADER_VALUES = [None, -1, 0, 1.5, True, 2 ** 40, "x", [], {}, "0" * 70, math.nan,
                     [1.5], ["x"]]

# Each maps (header, arrays) of a good checkpoint to the bytes of a bad one.
RAW_CORRUPTIONS = {
    "length_past_end": lambda h, a: (b"TACKPT01" + (10 ** 9).to_bytes(8, "little")
                                     + json.dumps(h).encode()),
    "not_utf8": lambda h, a: join_checkpoint(json.dumps(h).encode()[:-1] + b"\xff", a),
    "not_json": lambda h, a: join_checkpoint(json.dumps(h).encode()[1:] + b" ", a),
    "not_an_object": lambda h, a: join_checkpoint(json.dumps([h]).encode(), a),
    # the output bias's first value where the model has three
    "tensor_shrunk_to_one": _edit_tensor("head.out.b", lambda t: [t[:1]]),
    "tensor_missing": _edit_tensor("gru.cell.U", lambda t: []),
    # two values past the scaler's std, which no tensor holds
    "tensor_not_a_parameter": _edit_tensor("scaler.std", lambda t: [t, np.zeros(2)]),
    "length_short_of_tensors": lambda h, a: join_checkpoint(json.dumps(h).encode(), a[:-1]),
}


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        cfg = radar_config(dense_sizes=(12, 6))
        net = build(cfg, Rng(40))
        x = Rng(41).uniform((5, 17, 2)) * 2 - 1
        before, _ = forward(net, x, mode="eval")
        path = tmp_path / "model.tackpt"
        scaler = ScalerParams(mean=Rng(42).uniform((17, 2)), std=Rng(43).uniform((17, 2)))
        save_checkpoint(path, net, extras={"class_names": ["a", "b"]}, scaler=scaler)
        loaded, extras, loaded_scaler = load_checkpoint(path)
        after, _ = forward(loaded, x, mode="eval")
        npt.assert_array_equal(before, after)
        assert extras == {"class_names": ["a", "b"]}
        assert loaded_scaler.mean.tobytes() == scaler.mean.tobytes()
        assert loaded_scaler.std.tobytes() == scaler.std.tobytes()
        for name, arr in net.parameters().items():
            npt.assert_array_equal(arr, loaded.parameters()[name])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.tackpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_truncated_at_every_offset_rejected(self, tmp_path):
        blob = miniature_checkpoint_bytes(tmp_path)
        path = tmp_path / "cut.tackpt"
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(DataError, match="cut.tackpt"):
                load_checkpoint(path)
        path.write_bytes(blob + b"\x00" * 8)
        with pytest.raises(DataError, match="bytes"):
            load_checkpoint(path)
        path.write_bytes(blob)
        load_checkpoint(path)

    @pytest.mark.parametrize("case", sorted(HEADER_EDITS) + sorted(RAW_CORRUPTIONS))
    def test_corrupt_header_rejected(self, tmp_path, case):
        header, arrays = split_checkpoint(miniature_checkpoint_bytes(tmp_path))
        if case in HEADER_EDITS:
            HEADER_EDITS[case](header)
            blob = join_checkpoint(json.dumps(header).encode(), arrays)
        else:
            blob = RAW_CORRUPTIONS[case](header, arrays)
        path = tmp_path / "bad.tackpt"
        path.write_bytes(blob)
        with pytest.raises(DataError, match="bad.tackpt"):
            load_checkpoint(path)

    def test_every_config_field_holding_any_bad_value_loads_or_raises_data_error(
            self, tmp_path):
        """Whatever one field of the header's config holds, ``load_checkpoint``
        returns a model whose config holds that very value, or raises a
        DataError naming the file; no other exception escapes."""
        header, arrays = split_checkpoint(miniature_checkpoint_bytes(tmp_path))
        path = tmp_path / "field.tackpt"
        for f in fields(ModelConfig):
            for value in BAD_HEADER_VALUES:
                edited = copy.deepcopy(header)
                edited["config"][f.name] = value
                path.write_bytes(join_checkpoint(json.dumps(edited).encode(), arrays))
                try:
                    net, _, _ = load_checkpoint(path)
                except DataError as exc:
                    assert "field.tackpt" in str(exc), (f.name, value)
                    continue
                held = getattr(net.config, f.name)
                want = tuple(value) if isinstance(value, list) else value
                assert held == want and type(held) is type(want), (f.name, value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("tensor", ["gru.conv.W", "scaler.mean", "scaler.std"])
    def test_non_finite_tensor_rejected(self, tmp_path, tensor, value):
        header, arrays = split_checkpoint(miniature_checkpoint_bytes(tmp_path))
        idx = list(stored_shapes(header)).index(tensor)
        arrays[idx] = arrays[idx].copy()
        arrays[idx].flat[-1] = value
        path = tmp_path / "bad.tackpt"
        path.write_bytes(join_checkpoint(json.dumps(header).encode(), arrays))
        with pytest.raises(DataError, match=f"bad.tackpt: tensor '{tensor}' holds a NaN"):
            load_checkpoint(path)

    def test_shape_check_allocates_nothing(self, tmp_path):
        """A header whose config sets 10**6 filters, which makes the LSTM's
        input weight [10**6, 40] (320 MB), is refused by the length check,
        whose shapes come from a model that holds no memory, without
        allocating that model."""
        path = tmp_path / "wide.tackpt"
        save_checkpoint(path, build(radar_config(), Rng(46)))
        header, arrays = split_checkpoint(path.read_bytes())
        header["config"]["conv_filters"] = 10 ** 6
        path.write_bytes(join_checkpoint(json.dumps(header).encode(), arrays))
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="wide.tackpt"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_load_draws_no_random_init(self, tmp_path, monkeypatch):
        net = build(radar_config(), Rng(47))
        path = tmp_path / "m.tackpt"
        save_checkpoint(path, net)

        def no_draws(*args, **kwargs):
            raise AssertionError("load_checkpoint drew a random init")

        for module, name in ((model_mod, "init_he_uniform"), (model_mod, "init_glorot_uniform"),
                             (recurrent, "init_glorot_uniform"), (recurrent, "init_orthogonal")):
            monkeypatch.setattr(module, name, no_draws)
        loaded, _, _ = load_checkpoint(path)
        for name, arr in net.parameters().items():
            assert loaded.parameters()[name].tobytes() == arr.tobytes()

    def test_config_survives(self, tmp_path):
        cfg = radar_config(conv_filters=32, pool_size=3, streams=("lstm",))
        net = build(cfg, Rng(43))
        path = tmp_path / "m.tackpt"
        save_checkpoint(path, net)
        loaded, _, scaler = load_checkpoint(path)
        assert loaded.config == cfg
        assert scaler is None
