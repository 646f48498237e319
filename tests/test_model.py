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
from temporal_augmenter.data import DataError, Dataset
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
        total += cfg.conv_kernel * cfg.input_channels * cfg.conv_filters + cfg.conv_filters
        u = cfg.gru_units if kind == "gru" else cfg.lstm_units
        gates = 3 if kind == "gru" else 4
        total += gates * (cfg.conv_filters * u + u * u + u)
    t_rec = (cfg.input_timesteps - cfg.conv_kernel + 1) // cfg.pool_size
    width = 0
    for kind in cfg.streams:
        u = cfg.gru_units if kind == "gru" else cfg.lstm_units
        width += u * t_rec if cfg.return_sequences else u
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
            # pooling larger than the conv output leaves no timesteps
            ModelConfig(input_timesteps=3, input_channels=1, num_classes=2, pool_size=8)

    @pytest.mark.parametrize("key,value", [
        ("return_sequences", "no"), ("return_sequences", 0.5), ("return_sequences", 1),
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
        stored = {"gru.conv.K": gru.conv.K, "gru.conv.b": gru.conv.b,
                  "gru.cell.W": gru.cell.W, "gru.cell.U": gru.cell.U, "gru.cell.b": gru.cell.b,
                  "lstm.conv.K": lstm.conv.K, "lstm.conv.b": lstm.conv.b,
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
                conv_kernel=1 + int(rng.uniform(()) * 3),
                lstm_units=2 + int(rng.uniform(()) * 6),
                gru_units=2 + int(rng.uniform(()) * 6),
                dense_sizes=(4 + int(rng.uniform(()) * 8), 3),
                return_sequences=bool(rng.uniform(()) < 0.5),
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
            if not name.endswith("conv.K"):
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

    def test_return_sequences_width(self):
        cfg = radar_config(return_sequences=True)
        net = build(cfg, Rng(14))
        t_rec = cfg.recurrent_timesteps
        assert net.head[0].W.shape[0] == 20 * t_rec
        probs, _ = forward(net, Rng(15).uniform((3, 17, 2)), mode="eval")
        assert probs.shape == (3, 2)


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
        {}, {"return_sequences": True, "conv_kernel": 3}, {"streams": ("lstm",), "dense_sizes": ()},
        {"streams": ("lstm", "gru"), "lstm_units": 1, "gru_units": 2, "dense_sizes": (7,)},
    ])
    def test_gradients_come_in_parameters_order(self, overrides):
        net = build(radar_config(**overrides), Rng(15))
        probs, trace = forward(net, Rng(14).uniform((3, 17, 2)), mode="train", rng=Rng(0))
        grads = backward(net, trace, probs - probs.mean(axis=1, keepdims=True))
        assert ([(name, g.shape) for name, g in grads.items()]
                == [(name, p.shape) for name, p in net.parameters().items()])

    def test_lstm_grads_zero_when_head_ignores_lstm_slice(self):
        # zero head weights on the LSTM slice: no gradient may reach that stream
        cfg = radar_config(dropout_stream=0.0, dropout_head=0.0)
        net = build(cfg, Rng(20))
        net.head[0].W[cfg.stream_width("gru"):, :] = 0.0
        x = Rng(21).uniform((4, 17, 2)) * 2 - 1
        probs, trace = forward(net, x, mode="train", rng=Rng(0))
        onehot = np.zeros_like(probs)
        onehot[:, 0] = 1.0
        _, dlogits = optim.cce_loss(probs, onehot)
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
        onehot = np.zeros_like(probs)
        onehot[:, 1] = 1.0
        _, dlogits = optim.cce_loss(probs, onehot)
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
        onehot = np.zeros((8, 2))
        onehot[np.arange(8), labels] = 1.0

        def train_steps(cut_slice: bool):
            net = build(cfg, Rng(32).derive("init"))
            params = net.parameters()
            opt = optim.Adam(optim.TrainConfig(lr=1e-3, epsilon=1e-7))
            original = model_mod._stream_backward

            def cutting(sp, cfg_, cache, d_out):
                if sp.kind == "lstm":
                    d_out = np.zeros_like(d_out)
                return original(sp, cfg_, cache, d_out)

            if cut_slice:
                monkeypatch.setattr(model_mod, "_stream_backward", cutting)
            for _ in range(3):
                probs, trace = forward(net, x, mode="train", rng=Rng(0))
                _, dlogits = optim.cce_loss(probs, onehot)
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
    return [a for cache in trace.stream_caches for a in cache[2] if isinstance(a, np.ndarray)]


class TestTraceRelease:
    """A backward empties its trace, so no step's caches outlive it."""

    def test_backward_frees_stream_and_head_caches(self):
        net = build(radar_config(), Rng(24))
        probs, trace = forward(net, Rng(25).uniform((5, 17, 2)), mode="train", rng=Rng(26))
        refs = [weakref.ref(a) for a in cell_cache_arrays(trace)]
        refs.append(weakref.ref(trace.stream_caches[1][1][0][2]))  # a block's keep mask
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
        onehot = np.eye(5)[np.arange(n) % 5]

        def step():
            probs, trace = forward(net, x, mode="train", rng=Rng(142))
            cell_bytes = sum(a.nbytes for a in cell_cache_arrays(trace))
            _, dlogits = optim.cce_loss(probs, onehot)
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


def relu_then_pool_stream_forward(sp, cfg, x, mode, rng):
    """Stream forward in the textbook order conv1d -> ReLU -> maxpool over
    the whole batch, the cell given one GEMM over its whole input, and the
    ReLU's own strict positive mask kept for the backward."""
    y, conv_cache = layers.conv1d_forward(x, sp.conv)
    act_cache = None
    if cfg.conv_activation == "relu":
        y, act_cache = np.maximum(y, 0.0), y > 0
    y, pool_cache = layers.maxpool1d_forward(y, cfg.pool_size)
    y, drop_cache = layers.dropout_forward(y, cfg.dropout_stream, mode, rng)
    run = recurrent.gru_forward if sp.kind == "gru" else recurrent.lstm_forward
    hs, cell_cache = run(recurrent.project(y, sp.cell), sp.cell, mode=mode)
    out = hs.reshape(hs.shape[0], -1) if cfg.return_sequences else hs[:, -1]
    return out, (conv_cache, act_cache, pool_cache, drop_cache, y, cell_cache, hs.shape)


def relu_then_pool_stream_backward(sp, cfg, cache, d_out):
    """The textbook-order backward over the whole batch, from the whole
    cell input its forward kept."""
    conv_cache, act_cache, pool_cache, drop_cache, y, cell_cache, hs_shape = cache
    d_hs = np.zeros(hs_shape)
    if cfg.return_sequences:
        d_hs[...] = d_out.reshape(hs_shape)
    else:
        d_hs[:, -1] = d_out
    run = recurrent.gru_backward if sp.kind == "gru" else recurrent.lstm_backward
    da, cell_grads = run(cell_cache, d_hs)
    d, dW = recurrent.project_backward(y, da, sp.cell)
    d = layers.dropout_backward(drop_cache, d)
    d = layers.maxpool1d_backward(pool_cache, d)
    if cfg.conv_activation == "relu":
        d = d * act_cache
    return StreamParams(sp.kind, layers.Conv1DParams(*layers.conv1d_backward(conv_cache, d)),
                        recurrent.CellParams(W=dW, **cell_grads))


class TestStreamOrder:
    @pytest.mark.parametrize("activation", ["relu", "identity"])
    @pytest.mark.parametrize("kernel", [1, 2])
    @pytest.mark.parametrize("pool", [2, 3])
    def test_pool_then_relu_matches_relu_then_pool_bitwise(self, monkeypatch, activation,
                                                           kernel, pool):
        cfg = radar_config(conv_filters=6, conv_kernel=kernel, pool_size=pool,
                           conv_activation=activation, dense_sizes=(8,))
        net = build(cfg, Rng(80).derive("init"))
        for name, arr in net.parameters().items():
            if name.endswith(".b"):
                arr += Rng(81).derive(name).uniform(arr.shape) - 0.5
        x = Rng(82).uniform((5, 17, 2)) * 2 - 1
        onehot = np.eye(2)[[0, 1, 1, 0, 1]]

        def step():
            probs, trace = forward(net, x, mode="train", rng=Rng(83))
            _, dlogits = optim.cce_loss(probs, onehot)
            return probs, backward(net, trace, dlogits)

        probs, grads = step()
        monkeypatch.setattr(model_mod, "_stream_forward", relu_then_pool_stream_forward)
        monkeypatch.setattr(model_mod, "_stream_backward", relu_then_pool_stream_backward)
        ref_probs, ref_grads = step()
        assert probs.tobytes() == ref_probs.tobytes()
        assert grads.keys() == ref_grads.keys()
        for name, g in grads.items():
            assert g.tobytes() == ref_grads[name].tobytes(), name

    def test_eval_forward_keeps_no_cell_cache(self):
        net = build(radar_config(), Rng(84))
        x = Rng(85).uniform((3, 17, 2))
        _, eval_trace = forward(net, x, mode="eval")
        _, train_trace = forward(net, x, mode="train", rng=Rng(0))
        assert all(cache[2] is None for cache in eval_trace.stream_caches)
        assert all(cache[2] is not None for cache in train_trace.stream_caches)


# The gradients that the stream backward sums block by block; a change of
# blocking moves their last bits, and no other gradient's.
BLOCK_SUMMED = ("conv.K", "conv.b", "cell.W")


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


class TestBlockedFrontEnd:
    @pytest.mark.parametrize("activation", ["relu", "identity"])
    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("pool", [2, 3])
    @pytest.mark.parametrize("return_sequences", [False, True])
    def test_block_size_changes_no_bit(self, monkeypatch, activation, kernel, pool,
                                       return_sequences):
        cfg = radar_config(conv_filters=6, conv_kernel=kernel, pool_size=pool,
                           conv_activation=activation, dense_sizes=(8,),
                           return_sequences=return_sequences)
        net = build(cfg, Rng(90).derive("init"))
        for name, arr in net.parameters().items():
            if name.endswith(".b"):
                arr += Rng(91).derive(name).uniform(arr.shape) - 0.5
        x = Rng(92).uniform((7, 17, 2)) * 2 - 1
        onehot = np.eye(2)[[0, 1, 1, 0, 1, 0, 0]]
        row_bytes = (17 - kernel + 1) * cfg.conv_filters * 8
        runs = []
        # 1-row blocks; 3-row blocks (3, 3, 1); one block for the whole batch
        for block_bytes, blocks in ((1, 7), (3 * row_bytes + row_bytes // 2, 3), (1 << 40, 1)):
            monkeypatch.setattr(model_mod, "_BLOCK_BYTES", block_bytes)
            rng = Rng(93)
            probs, trace = forward(net, x, mode="train", rng=rng)
            assert [len(cache[1]) for cache in trace.stream_caches] == [blocks, blocks]
            _, dlogits = optim.cce_loss(probs, onehot)
            grads = backward(net, trace, dlogits)
            eval_probs, _ = forward(net, x, mode="eval")
            runs.append((probs, grads, rng._counter, eval_probs))
        probs, grads, counter, eval_probs = runs[0]
        # one 32-bit half per stream-dropout element, then one per
        # head-dropout element, two halves to a word
        assert counter == (7 * (2 * cfg.recurrent_timesteps * cfg.conv_filters + 8) + 1) // 2
        for other_probs, other_grads, other_counter, other_eval in runs[1:]:
            assert other_probs.tobytes() == probs.tobytes()
            assert other_eval.tobytes() == eval_probs.tobytes()
            assert other_counter == counter
            assert_same_gradients(other_grads, grads)

    @pytest.mark.parametrize("activation", ["relu", "identity"])
    @pytest.mark.parametrize("pooled", [True, False])
    def test_train_trace_keeps_only_the_stream_keep_masks(self, monkeypatch, pooled,
                                                          activation):
        """A train trace's only bool arrays are the stream dropout keep
        masks, one per block, which the backward needs to re-form the
        block's cell input: no max-pool winner mask, no ReLU mask, and none
        in the head's caches, though the head applies dropout too."""
        make = heartbeat_config if pooled else radar_config
        cfg = make(conv_filters=6, conv_kernel=1 if pooled else 3, conv_activation=activation,
                   dense_sizes=(8, 4))
        net = build(cfg, Rng(94))
        x = Rng(95).uniform((7, 17, cfg.input_channels)) * 2 - 1
        monkeypatch.setattr(model_mod, "_block_bounds",
                            lambda n, width, cfg: [(0, 3), (3, 6), (6, 7)])
        _, trace = forward(net, x, mode="train", rng=Rng(96))
        assert [cache[3] is not None for cache in trace.stream_caches] == [pooled, pooled]
        T_out, F = cfg.recurrent_timesteps, cfg.conv_filters
        keep_masks = []
        for cache in trace.stream_caches:
            assert [(start, stop, keep.dtype, keep.shape) for start, stop, keep, _ in cache[1]] == [
                (start, stop, np.dtype(bool), (stop - start, T_out, F))
                for start, stop in [(0, 3), (3, 6), (6, 7)]]
            keep_masks += [keep for _, _, keep, _ in cache[1]]
        bools = [a for a in arrays_in([trace.stream_caches, trace.head_caches]) if a.dtype == bool]
        assert [id(a) for a in bools] == [id(keep) for keep in keep_masks]


def heartbeat_config(**overrides) -> ModelConfig:
    """One input channel and a one-step kernel: the pooled front-end."""
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
            cfg = radar_config(input_timesteps=4, conv_kernel=2, conv_filters=16,
                               dropout_stream=0.5, dense_sizes=(8,))
        assert cfg.recurrent_timesteps == 1
        net = build(cfg, Rng(122).derive("init"))
        x = Rng(123).uniform((7, cfg.input_timesteps, cfg.input_channels)) * 2 - 1
        onehot = np.eye(cfg.num_classes)[np.arange(7) % cfg.num_classes]
        width = 1 if pooled else cfg.input_timesteps - cfg.conv_kernel + 1
        runs = []
        # 3-row blocks would leave one row last (3, 3, 1); then one block
        for block_bytes, bounds in ((3 * width * cfg.conv_filters * 8, [(0, 3), (3, 7)]),
                                    (1 << 40, [(0, 7)])):
            monkeypatch.setattr(model_mod, "_BLOCK_BYTES", block_bytes)
            probs, trace = forward(net, x, mode="train", rng=Rng(124))
            for cache in trace.stream_caches:
                assert [(start, stop) for start, stop, *_ in cache[1]] == bounds
            _, dlogits = optim.cce_loss(probs, onehot)
            grads = backward(net, trace, dlogits)
            eval_probs, _ = forward(net, x, mode="eval")
            runs.append((probs, grads, eval_probs))
        (probs, grads, eval_probs), (one_probs, one_grads, one_eval) = runs
        assert probs.tobytes() == one_probs.tobytes()
        assert eval_probs.tobytes() == one_eval.tobytes()
        assert_same_gradients(grads, one_grads)

    @pytest.mark.parametrize("pooled", [True, False])
    @pytest.mark.parametrize("return_sequences", [False, True])
    @pytest.mark.parametrize("streams", [("gru",), ("lstm",), ("gru", "lstm")])
    def test_eval_matches_the_textbook_order(self, monkeypatch, pooled, return_sequences,
                                             streams):
        """Eval probs from 3-row blocks equal conv1d -> ReLU -> maxpool over
        the whole batch with one projection GEMM per cell."""
        make = heartbeat_config if pooled else radar_config
        cfg = make(conv_filters=6, dense_sizes=(8,), return_sequences=return_sequences,
                   streams=streams)
        net = build(cfg, Rng(125).derive("init"))
        for name, arr in net.parameters().items():
            if name.endswith(".b"):
                arr += Rng(126).derive(name).uniform(arr.shape) - 0.5
        x = Rng(127).uniform((7, cfg.input_timesteps, cfg.input_channels)) * 2 - 1
        width = cfg.recurrent_timesteps if pooled else cfg.input_timesteps
        monkeypatch.setattr(model_mod, "_BLOCK_BYTES", 3 * width * cfg.conv_filters * 8)
        probs, trace = forward(net, x, mode="eval")
        assert [len(cache[1]) for cache in trace.stream_caches] == [3] * len(streams)
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
            sp.conv.K[0, 0, :2] = (0.0, -0.0)
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
        monkeypatch.setattr(recurrent, "project",
                            lambda y, p, out: blocks.append(y.copy()) or project(y, p, out=out))
        probs, trace = forward(net, x, mode="train", rng=rng)
        monkeypatch.setattr(recurrent, "project", project)
        pooled = [(cache[3] is not None, len(cache[1])) for cache in trace.stream_caches]
        cell_ins = [np.concatenate(blocks[:3]), np.concatenate(blocks[3:])]
        labels = np.arange(x.shape[0]) % net.config.num_classes
        _, dlogits = optim.cce_loss(probs, np.eye(net.config.num_classes)[labels])
        grads = backward(net, trace, dlogits)
        eval_probs, _ = forward(net, x, mode="eval")
        return pooled, probs, cell_ins, grads, rng._counter, eval_probs

    @pytest.mark.parametrize("activation", ["relu", "identity"])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @pytest.mark.parametrize("pool", [1, 2, 3])
    @pytest.mark.parametrize("return_sequences", [False, True])
    def test_matches_the_general_path(self, monkeypatch, activation, dropout, pool,
                                      return_sequences):
        cfg = heartbeat_config(conv_activation=activation, dropout_stream=dropout,
                               pool_size=pool, return_sequences=return_sequences)
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
            if name.endswith("conv.K"):
                # summed over [n, T_out], not over [n, T_conv] with zeros
                scale = np.max(np.abs(ref_grads[name]))
                assert np.max(np.abs(g - ref_grads[name])) <= 1e-13 * scale, name
            else:
                assert g.tobytes() == ref_grads[name].tobytes(), name


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

    @pytest.mark.parametrize("timesteps,kernel", [(17, 1), (23, 3)])
    def test_used_model_matches_a_fresh_model_bitwise(self, tmp_path, timesteps, kernel):
        cfg = radar_config(input_timesteps=timesteps, conv_filters=6, conv_kernel=kernel,
                           dense_sizes=(8,))

        def fresh():
            return build(cfg, Rng(95).derive("init"))

        def inputs(n):
            return Rng(96).derive(str(n)).uniform((n, timesteps, 2)) * 2 - 1

        def train_step(net, n):
            probs, trace = forward(net, inputs(n), mode="train", rng=Rng(97))
            _, dlogits = optim.cce_loss(probs, np.eye(2)[np.arange(n) % 2])
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
    save_checkpoint(path, build(gradcheck.miniature_config(), Rng(44)),
                    extras={"class_names": ["a", "b", "c"]},
                    extra_tensors={"scaler_mean": Rng(45).uniform((5, 2))})
    return path.read_bytes()


def split_checkpoint(blob: bytes):
    """(header dict, [tensor arrays]) of a well-formed checkpoint."""
    hlen = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16:16 + hlen])
    flat = np.frombuffer(blob[16 + hlen:], dtype="<f8")
    arrays, offset = [], 0
    for entry in header["tensors"]:
        size = int(np.prod(entry["shape"]))
        arrays.append(flat[offset:offset + size].reshape(entry["shape"]))
        offset += size
    return header, arrays


def join_checkpoint(header_bytes: bytes, arrays) -> bytes:
    return (b"TACKPT01" + len(header_bytes).to_bytes(8, "little") + header_bytes
            + b"".join(np.asarray(a, dtype="<f8").tobytes() for a in arrays))


def _entry(header, name):
    return next(e for e in header["tensors"] if e["name"] == name)


def _shrink_bias(header, arrays):
    # a [1] tensor where the model has [3] must not broadcast into it
    _entry(header, "head.out.b")["shape"] = [1]
    idx = [e["name"] for e in header["tensors"]].index("head.out.b")
    arrays[idx] = arrays[idx][:1]
    return join_checkpoint(json.dumps(header).encode(), arrays)


# Each edits the parsed header in place; the file is then re-encoded whole.
HEADER_EDITS = {
    "version": lambda h: h.update(version=2),
    "no_version": lambda h: h.pop("version"),
    "config_unknown_key": lambda h: h["config"].update(bogus=1),
    "config_bad_value": lambda h: h["config"].update(pool_size=0),
    "config_bad_type": lambda h: h["config"].update(dense_sizes="x"),
    "config_bool_not_bool": lambda h: h["config"].update(return_sequences="no"),
    "config_rate_is_bool": lambda h: h["config"].update(dropout_stream=False),
    "config_missing": lambda h: h.pop("config"),
    "extras_not_object": lambda h: h.update(extras=[1]),
    "tensor_missing": lambda h: _entry(h, "gru.cell.U").update(name="gru.cell.U_x"),
    "tensor_entry_no_shape": lambda h: _entry(h, "head.out.b").pop("shape"),
    "tensor_negative_dim": lambda h: _entry(h, "extra.scaler_mean").update(shape=[-5, -2]),
    # each once passed as the bias's 3 through int()
    "tensor_float_dim": lambda h: _entry(h, "head.out.b").update(shape=[3.9]),
    "tensor_text_dim": lambda h: _entry(h, "head.out.b").update(shape=["3"]),
    "tensor_wrong_shape": lambda h: _entry(h, "gru.conv.K")["shape"].reverse(),
    # rejected by the shape check, before a 10**12-filter model is allocated
    "config_huge_sizes": lambda h: h["config"].update(conv_filters=10 ** 12),
    # a mapping once passed as a list of its keys
    "config_streams_object": lambda h: h["config"].update(streams={"gru": 1, "lstm": 2}),
    # once took the default, which is also the miniature's size
    "config_field_missing": lambda h: h["config"].pop("pool_size"),
}

# Each replaces one field of a header's config in the property test below.
BAD_HEADER_VALUES = [None, -1, 0, 1.5, True, 2 ** 40, "x", [], {}, "0" * 70, math.nan,
                     [1.5], ["x"]]

def _named_twice(header, arrays):
    # a second copy of the first tensor ahead of it, once read past unchecked
    header["tensors"].insert(0, dict(header["tensors"][0]))
    return join_checkpoint(json.dumps(header).encode(), [arrays[0], *arrays])


def _unknown_tensor(header, arrays):
    # neither a parameter nor extra.*, once dropped without a word
    header["tensors"].append({"name": "bogus", "shape": [2]})
    return join_checkpoint(json.dumps(header).encode(), [*arrays, np.zeros(2)])


# Each maps (header, arrays) of a good checkpoint to the bytes of a bad one.
RAW_CORRUPTIONS = {
    "length_past_end": lambda h, a: (b"TACKPT01" + (10 ** 9).to_bytes(8, "little")
                                     + json.dumps(h).encode()),
    "not_utf8": lambda h, a: join_checkpoint(json.dumps(h).encode()[:-1] + b"\xff", a),
    "not_json": lambda h, a: join_checkpoint(json.dumps(h).encode()[1:] + b" ", a),
    "not_an_object": lambda h, a: join_checkpoint(json.dumps([h]).encode(), a),
    "tensor_shrunk_to_one": _shrink_bias,
    "tensor_named_twice": _named_twice,
    "tensor_not_a_parameter": _unknown_tensor,
    "length_short_of_tensors": lambda h, a: join_checkpoint(json.dumps(h).encode(), a[:-1]),
}


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        cfg = radar_config(dense_sizes=(12, 6))
        net = build(cfg, Rng(40))
        x = Rng(41).uniform((5, 17, 2)) * 2 - 1
        before, _ = forward(net, x, mode="eval")
        path = tmp_path / "model.tackpt"
        save_checkpoint(path, net, extras={"class_names": ["a", "b"]},
                        extra_tensors={"scaler_mean": Rng(42).uniform((17, 2))})
        loaded, extras, extra_tensors = load_checkpoint(path)
        after, _ = forward(loaded, x, mode="eval")
        npt.assert_array_equal(before, after)
        assert extras == {"class_names": ["a", "b"]}
        npt.assert_array_equal(extra_tensors["scaler_mean"], Rng(42).uniform((17, 2)))
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
    @pytest.mark.parametrize("tensor", ["gru.conv.K", "extra.scaler_mean"])
    def test_non_finite_tensor_rejected(self, tmp_path, tensor, value):
        header, arrays = split_checkpoint(miniature_checkpoint_bytes(tmp_path))
        idx = [e["name"] for e in header["tensors"]].index(tensor)
        arrays[idx] = arrays[idx].copy()
        arrays[idx].flat[-1] = value
        path = tmp_path / "bad.tackpt"
        path.write_bytes(join_checkpoint(json.dumps(header).encode(), arrays))
        with pytest.raises(DataError, match=f"bad.tackpt: tensor '{tensor}' holds a NaN"):
            load_checkpoint(path)

    def test_shape_check_allocates_nothing(self, tmp_path):
        """A header whose config sets 10**6 filters, which makes the LSTM's
        input weight [10**6, 40] (320 MB), is refused by the shape check
        without allocating that model."""
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
        cfg = radar_config(conv_filters=32, return_sequences=True, streams=("lstm",))
        net = build(cfg, Rng(43))
        path = tmp_path / "m.tackpt"
        save_checkpoint(path, net)
        loaded, _, _ = load_checkpoint(path)
        assert loaded.config == cfg
