import math

import numpy as np
import numpy.testing as npt
import pytest

from temporal_augmenter import model as model_mod
from temporal_augmenter.data import Dataset
from temporal_augmenter.model import ModelConfig, build
from temporal_augmenter.optim import (
    Adam,
    EpochStats,
    RMSProp,
    TrainConfig,
    TrainingDivergenceError,
    TrainLog,
    cce_loss,
    evaluate,
    fit,
)
from temporal_augmenter.tensor_core import Rng, softmax


class TestCCELoss:
    def test_perfect_prediction(self):
        y = np.eye(4)
        loss, _ = cce_loss(y.copy(), y)
        assert abs(loss) < 1e-10

    def test_uniform_probs_seven_classes(self):
        probs = np.full((3, 7), 1.0 / 7.0)
        onehot = np.zeros((3, 7))
        onehot[:, 2] = 1.0
        loss, _ = cce_loss(probs, onehot)
        assert abs(loss - math.log(7)) < 1e-12
        assert abs(loss - 1.94591) < 1e-5

    def test_fused_gradient_matches_fd_on_logits(self):
        rng = Rng(71)
        logits = rng.uniform((4, 5)) * 4 - 2
        onehot = np.zeros((4, 5))
        onehot[np.arange(4), (rng.uniform((4,)) * 5).astype(int)] = 1.0
        _, dlogits = cce_loss(softmax(logits), onehot)
        h = 1e-6
        for idx in np.ndindex(logits.shape):
            orig = logits[idx]
            logits[idx] = orig + h
            lp, _ = cce_loss(softmax(logits), onehot)
            logits[idx] = orig - h
            lm, _ = cce_loss(softmax(logits), onehot)
            logits[idx] = orig
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(dlogits[idx]), 1e-8)
            assert abs(fd - dlogits[idx]) / denom < 1e-6

    def test_non_onehot_rejected(self):
        probs = np.full((2, 2), 0.5)
        with pytest.raises(ValueError):
            cce_loss(probs, np.array([[0.5, 0.5], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            cce_loss(probs, np.array([[1.0, 1.0], [1.0, 0.0]]))


class TestRMSProp:
    def test_zero_gradient_leaves_param(self):
        opt = RMSProp(TrainConfig(lr=1e-3, rho=0.9, epsilon=1e-7))
        p = {"w": np.array([1.5])}
        opt.step(p, {"w": np.array([1.0])})
        s_before = opt.s["w"].copy()
        w_before = p["w"].copy()
        opt.step(p, {"w": np.array([0.0])})
        npt.assert_array_equal(p["w"], w_before)
        npt.assert_allclose(opt.s["w"], s_before * 0.9, rtol=1e-15)

    def test_first_step_magnitude(self):
        opt = RMSProp(TrainConfig(lr=1e-3, rho=0.9, epsilon=1e-7))
        p = {"w": np.array([0.0])}
        opt.step(p, {"w": np.array([1.0])})
        expected = -1e-3 / (math.sqrt(0.1) + 1e-7)
        npt.assert_allclose(p["w"], [expected], rtol=1e-12)
        assert abs(expected - (-3.1623e-3)) < 1e-7

    def test_update_opposes_gradient(self):
        rng = Rng(72)
        opt = RMSProp(TrainConfig(lr=1e-2))
        p = {"w": np.zeros(64)}
        g = rng.uniform((64,)) * 4 - 2
        g[np.abs(g) < 1e-3] = 1.0
        opt.step(p, {"w": g})
        assert np.all(np.sign(p["w"]) == -np.sign(g))

    def test_momentum_accumulates(self):
        opt = RMSProp(TrainConfig(lr=1e-3, momentum=0.9))
        p = {"w": np.array([0.0])}
        opt.step(p, {"w": np.array([1.0])})
        first = p["w"].copy()
        opt.step(p, {"w": np.array([1.0])})
        # second step moves farther than a plain step thanks to velocity
        assert p["w"][0] < 2 * first[0]


class TestAdam:
    def test_first_step_is_signed_lr(self):
        opt = Adam(TrainConfig(lr=1e-3, epsilon=1e-7))
        p = {"w": np.array([5.0])}
        opt.step(p, {"w": np.array([2.0])})
        delta = p["w"][0] - 5.0
        npt.assert_allclose(delta, -1e-3 * 2.0 / (2.0 + 1e-7), rtol=1e-12)
        assert abs(delta + 1e-3) < 1e-6

    def test_zero_gradient_fixed_point(self):
        opt = Adam(TrainConfig(lr=1e-3))
        p = {"w": np.array([3.0])}
        for _ in range(5):
            opt.step(p, {"w": np.array([0.0])})
        npt.assert_array_equal(p["w"], [3.0])

    def test_quadratic_descent_monotone(self):
        # L(w) = w^2 / 2, gradient w; three steps must reduce the loss each time
        opt = Adam(TrainConfig(lr=0.1))
        p = {"w": np.array([2.0])}
        losses = [p["w"][0] ** 2 / 2]
        for _ in range(3):
            opt.step(p, {"w": p["w"].copy()})
            losses.append(p["w"][0] ** 2 / 2)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_state_slot_per_parameter(self):
        opt = Adam(TrainConfig())
        params = {"a": np.zeros((2, 3)), "b": np.zeros(4)}
        grads = {"a": np.ones((2, 3)), "b": np.ones(4)}
        opt.step(params, grads)
        assert set(opt.m) == set(params)
        for name in params:
            assert opt.m[name].shape == params[name].shape
            assert opt.v[name].shape == params[name].shape
            assert np.all(opt.v[name] >= 0)


def tiny_dataset(n=24, T=8, d=1, k=2, seed=80):
    rng = Rng(seed)
    x = rng.uniform((n, T, d)) * 2 - 1
    y = (rng.uniform((n,)) * k).astype(np.int64)
    # make labels learnable: shift class-1 sequences upward
    x[y == 1] += 1.0
    return Dataset(features=x, labels=y, class_names=[str(i) for i in range(k)])


def tiny_model(T=8, d=1, k=2, seed=81):
    cfg = ModelConfig(input_timesteps=T, input_channels=d, num_classes=k,
                      conv_filters=4, conv_kernel=1, pool_size=2,
                      dropout_stream=0.0, dropout_head=0.0,
                      lstm_units=3, gru_units=3, dense_sizes=(6,))
    return build(cfg, Rng(seed))


class TestFit:
    def test_zero_epochs_rejected(self):
        ds = tiny_dataset()
        with pytest.raises(ValueError):
            fit(tiny_model(), ds, ds, TrainConfig(epochs=0), Rng(0))

    @pytest.mark.parametrize("key,value", [("batch_size", 8.0), ("epochs", True),
                                           ("shuffle", 1), ("lr", "0.1"), ("clip_norm", False),
                                           ("optimizer", "sgd"), ("beta2", math.nan)])
    def test_settings_checked_by_type_and_rule(self, key, value):
        ds = tiny_dataset()
        with pytest.raises(ValueError, match=f"^{key} must be"):
            fit(tiny_model(), ds, ds, TrainConfig(**{"epochs": 1, key: value}), Rng(0))

    def test_optimizer_takes_its_settings_by_name(self):
        """The optimizer holds the config it is made from and reads its
        settings there by name."""
        cfg = TrainConfig(optimizer="rmsprop", lr=0.5, rho=0.7, momentum=0.2, epsilon=1e-3)
        opt = cfg.make_optimizer()
        assert type(opt) is RMSProp and opt.cfg is cfg
        cfg = TrainConfig(lr=0.5, beta1=0.7, beta2=0.8, epsilon=1e-3)
        opt = cfg.make_optimizer()
        assert type(opt) is Adam and opt.cfg is cfg

    def test_one_epoch_one_log_entry(self):
        ds = tiny_dataset()
        _, log = fit(tiny_model(), ds, ds, TrainConfig(epochs=1, batch_size=8), Rng(1))
        assert len(log.epochs) == 1
        assert log.epochs[0].epoch == 1

    def test_same_seed_identical_log_and_params(self):
        ds = tiny_dataset()
        cfg = TrainConfig(epochs=3, batch_size=8)
        m1, log1 = fit(tiny_model(), ds, ds, cfg, rng=Rng(5))
        m2, log2 = fit(tiny_model(), ds, ds, cfg, rng=Rng(5))
        assert log1.epochs == log2.epochs
        for name, p in m1.parameters().items():
            npt.assert_array_equal(p, m2.parameters()[name])

    def test_empty_dataset_rejected(self):
        ds = tiny_dataset()
        empty = Dataset(features=ds.features[:0], labels=ds.labels[:0],
                        class_names=ds.class_names)
        with pytest.raises(ValueError):
            fit(tiny_model(), empty, ds, TrainConfig(epochs=1), Rng(0))

    def test_label_out_of_range_rejected(self):
        ds = tiny_dataset(k=2)
        ds = Dataset(features=np.concatenate([ds.features] * 2),
                     labels=np.concatenate([ds.labels, ds.labels + 2]),
                     class_names=["0", "1", "2", "3"])
        with pytest.raises(ValueError, match="label out of range"):
            fit(tiny_model(k=2), ds, ds, TrainConfig(epochs=1), Rng(0))

    def test_validation_label_out_of_range_rejected(self):
        ds = tiny_dataset(k=2)
        wide = Dataset(features=ds.features, labels=ds.labels + 2,
                       class_names=["0", "1", "2", "3"])
        with pytest.raises(ValueError, match="validation label out of range"):
            fit(tiny_model(k=2), ds, wide, TrainConfig(epochs=1), Rng(0))
        negative = tiny_dataset(k=2)
        negative.labels[0] = -1  # would select the last one-hot column
        with pytest.raises(ValueError, match="validation label out of range"):
            fit(tiny_model(k=2), ds, negative, TrainConfig(epochs=1), Rng(0))

    def test_nan_loss_raises_divergence_with_location(self):
        ds = tiny_dataset()
        net = tiny_model()
        net.head[-1].W[0, 0] = np.nan
        with pytest.raises(TrainingDivergenceError) as err:
            fit(net, ds, ds, TrainConfig(epochs=1, batch_size=8), Rng(0))
        assert err.value.epoch == 1
        assert err.value.batch == 0
        assert "epoch 1" in str(err.value) and "batch 0" in str(err.value)

    def test_non_finite_validation_loss_raises_divergence(self):
        ds = tiny_dataset()
        with pytest.raises(TrainingDivergenceError) as err, \
                np.errstate(over="ignore", invalid="ignore"):
            # one finite batch, whose step at lr 1e308 leaves no finite output
            fit(tiny_model(), ds, ds, TrainConfig(epochs=1, batch_size=24, lr=1e308), Rng(0))
        assert (err.value.epoch, err.value.batch) == (1, None)
        assert str(err.value) == "non-finite validation loss at epoch 1"

    def test_validation_never_enters_gradient_path(self, monkeypatch):
        train = tiny_dataset(seed=90)
        val = tiny_dataset(seed=91)
        val.features[...] = 777.0  # sentinel value, absent from train data
        seen_modes = []

        original = model_mod.forward

        def spy(model, x, mode="eval", rng=None):
            seen_modes.append((mode, bool(np.any(x == 777.0))))
            return original(model, x, mode=mode, rng=rng)

        monkeypatch.setattr(model_mod, "forward", spy)
        fit(tiny_model(), train, val, TrainConfig(epochs=2, batch_size=8), Rng(3))
        assert any(mode == "train" for mode, _ in seen_modes)
        assert any(has_val for mode, has_val in seen_modes if mode == "eval")
        for mode, has_val in seen_modes:
            if mode == "train":
                assert not has_val

    def test_last_partial_batch_processed(self, monkeypatch):
        ds = tiny_dataset(n=10)
        sizes = []
        original = model_mod.forward

        def spy(model, x, mode="eval", rng=None):
            if mode == "train":
                sizes.append(x.shape[0])
            return original(model, x, mode=mode, rng=rng)

        monkeypatch.setattr(model_mod, "forward", spy)
        fit(tiny_model(), ds, ds, TrainConfig(epochs=1, batch_size=4), Rng(2))
        assert sizes == [4, 4, 2]

    def test_no_shuffle_keeps_order(self, monkeypatch):
        ds = tiny_dataset(n=12)
        batches = []
        original = model_mod.forward

        def spy(model, x, mode="eval", rng=None):
            if mode == "train":
                batches.append(x.copy())
            return original(model, x, mode=mode, rng=rng)

        monkeypatch.setattr(model_mod, "forward", spy)
        fit(tiny_model(), ds, ds, TrainConfig(epochs=1, batch_size=6, shuffle=False), Rng(0))
        npt.assert_array_equal(np.concatenate(batches), ds.features)

    def test_learns_separable_task(self):
        ds = tiny_dataset(n=64, seed=92)
        net = tiny_model(seed=93)
        _, log = fit(net, ds, ds, TrainConfig(epochs=30, batch_size=16, lr=5e-3), Rng(4))
        assert log.epochs[-1].train_acc > 0.9

    def test_gradient_clipping_bounds_update(self):
        ds = tiny_dataset()
        cfg_free = TrainConfig(epochs=1, batch_size=24, lr=1.0)
        cfg_clip = TrainConfig(epochs=1, batch_size=24, lr=1.0, clip_norm=1e-6)
        m_free, _ = fit(tiny_model(), ds, ds, cfg_free, rng=Rng(6))
        m_clip, _ = fit(tiny_model(), ds, ds, cfg_clip, rng=Rng(6))
        ref = tiny_model().parameters()
        moved_clip = sum(float(np.abs(p - ref[n]).sum()) for n, p in m_clip.parameters().items())
        moved_free = sum(float(np.abs(p - ref[n]).sum()) for n, p in m_free.parameters().items())
        assert moved_clip < moved_free


class TestTrainLog:
    def test_csv_round_trip(self, tmp_path):
        log = TrainLog()
        log.append(EpochStats(1, 0.5, 0.75, 0.6, 0.7))
        log.append(EpochStats(2, 0.25, 0.875, 0.5, 0.8))
        path = tmp_path / "log.csv"
        log.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert TrainLog.from_csv(path).epochs == log.epochs

    def test_evaluate_matches_manual(self):
        ds = tiny_dataset(n=16, seed=94)
        net = tiny_model(seed=95)
        loss, acc = evaluate(net, ds.features, ds.labels)
        assert 0.0 <= acc <= 1.0 and np.isfinite(loss)
