import copy
import json

import numpy as np
import numpy.testing as npt
import pytest

from temporal_augmenter import gradcheck, layers, model as model_mod, optim, recurrent
from temporal_augmenter.data import DataError
from temporal_augmenter.model import (
    ModelConfig,
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
        onehot = np.zeros_like(probs)
        onehot[:, 1] = 1.0
        _, dlogits = optim.cce_loss(probs, onehot)
        backward(net, trace, dlogits)

        dense_cache = trace.head_caches[0][0]
        # recompute the concat gradient independently from the head caches
        da = dlogits
        da, _, _ = layers.dense_backward(trace.head_caches[-1][0], da)
        for idx in range(len(net.head) - 2, -1, -1):
            dcache, rcache, dropc = trace.head_caches[idx]
            if dropc is not None:
                da = layers.dropout_backward(dropc, da)
            da = layers.relu_backward(rcache, da)
            da, _, _ = layers.dense_backward(dcache, da)
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
            opt = optim.Adam(lr=1e-3, epsilon=1e-7)
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


def relu_then_pool_stream_forward(sp, cfg, x, mode, rng):
    """Stream forward in the textbook order conv1d -> ReLU -> maxpool."""
    y, conv_cache = layers.conv1d_forward(x, sp.conv)
    act_cache = None
    if cfg.conv_activation == "relu":
        y, act_cache = layers.relu_forward(y)
    y, pool_cache = layers.maxpool1d_forward(y, cfg.pool_size)
    y, drop_cache = layers.dropout_forward(y, cfg.dropout_stream, mode, rng)
    run = recurrent.gru_forward if sp.kind == "gru" else recurrent.lstm_forward
    hs, cell_cache = run(y, sp.cell)
    out = hs.reshape(hs.shape[0], -1) if cfg.return_sequences else hs[:, -1]
    return out, (conv_cache, act_cache, pool_cache, drop_cache, cell_cache, hs.shape)


def relu_then_pool_stream_backward(sp, cfg, cache, d_out):
    conv_cache, act_cache, pool_cache, drop_cache, cell_cache, hs_shape = cache
    d_hs = np.zeros(hs_shape)
    if cfg.return_sequences:
        d_hs[...] = d_out.reshape(hs_shape)
    else:
        d_hs[:, -1] = d_out
    run = recurrent.gru_backward if sp.kind == "gru" else recurrent.lstm_backward
    d, cell_grads = run(cell_cache, d_hs)
    d = layers.dropout_backward(drop_cache, d)
    d = layers.maxpool1d_backward(pool_cache, d)
    if cfg.conv_activation == "relu":
        d = layers.relu_backward(act_cache, d)
    dK, db = layers.conv1d_backward(conv_cache, d)
    grads = {f"{sp.kind}.conv.K": dK, f"{sp.kind}.conv.b": db}
    grads.update({f"{sp.kind}.cell.{k}": g for k, g in cell_grads.items()})
    return grads


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
            if name.endswith(".b") or ".cell.b_" in name:
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
            if name.endswith(".b") or ".cell.b_" in name:
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
        # one draw per stream-dropout element, then one per head-dropout element
        assert counter == 7 * (2 * cfg.recurrent_timesteps * cfg.conv_filters + 8)
        for other_probs, other_grads, other_counter, other_eval in runs[1:]:
            assert other_probs.tobytes() == probs.tobytes()
            assert other_eval.tobytes() == eval_probs.tobytes()
            assert other_counter == counter
            assert other_grads.keys() == grads.keys()
            for name, g in grads.items():
                assert other_grads[name].tobytes() == g.tobytes(), name


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
    "config_missing": lambda h: h.pop("config"),
    "extras_not_object": lambda h: h.update(extras=[1]),
    "tensor_missing": lambda h: _entry(h, "gru.cell.U_r").update(name="gru.cell.U_x"),
    "tensor_entry_no_shape": lambda h: _entry(h, "head.out.b").pop("shape"),
    "tensor_negative_dim": lambda h: _entry(h, "extra.scaler_mean").update(shape=[-5, -2]),
    "tensor_wrong_shape": lambda h: _entry(h, "gru.conv.K")["shape"].reverse(),
}

# Each maps (header, arrays) of a good checkpoint to the bytes of a bad one.
RAW_CORRUPTIONS = {
    "length_past_end": lambda h, a: (b"TACKPT01" + (10 ** 9).to_bytes(8, "little")
                                     + json.dumps(h).encode()),
    "not_utf8": lambda h, a: join_checkpoint(json.dumps(h).encode()[:-1] + b"\xff", a),
    "not_json": lambda h, a: join_checkpoint(json.dumps(h).encode()[1:] + b" ", a),
    "not_an_object": lambda h, a: join_checkpoint(json.dumps([h]).encode(), a),
    "tensor_shrunk_to_one": _shrink_bias,
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

    def test_config_survives(self, tmp_path):
        cfg = radar_config(conv_filters=32, return_sequences=True, streams=("lstm",))
        net = build(cfg, Rng(43))
        path = tmp_path / "m.tackpt"
        save_checkpoint(path, net)
        loaded, _, _ = load_checkpoint(path)
        assert loaded.config == cfg
