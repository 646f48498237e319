"""Categorical cross-entropy, RMSProp and Adam, and the epoch training loop.

``TrainConfig`` holds every training setting once: an optimizer is made
from it and reads its rates from it.  ``fit`` takes the ``Rng`` that
shuffles each epoch and draws the dropout masks; the caller seeds it."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, fields

import numpy as np

from . import model as model_mod
from .data import DataError, one_hot, read_file, utf8_text
from .settings import FINITE_POSITIVE, POSITIVE, RATE, check, one_of, setting
from .tensor_core import Rng, ShapeError, Tensor


class TrainingDivergenceError(RuntimeError):
    """Raised when a minibatch loss, or an epoch's validation loss (``batch``
    None), stops being finite."""

    def __init__(self, epoch: int, batch: int | None):
        super().__init__(f"non-finite validation loss at epoch {epoch}" if batch is None
                         else f"non-finite training loss at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


def cce_loss(probs: Tensor, onehot: Tensor):
    """Mean categorical cross-entropy over softmax probabilities.

    Returns (loss, dL/dlogits) where the gradient is the fused
    softmax-plus-cross-entropy form (probs - onehot) / n.
    """
    if probs.shape != onehot.shape:
        raise ShapeError(f"probs {probs.shape} and targets {onehot.shape} disagree")
    is01 = (onehot == 0.0) | (onehot == 1.0)
    if not is01.all() or not np.allclose(onehot.sum(axis=1), 1.0):
        raise ValueError("targets must be one-hot rows")
    n = probs.shape[0]
    p = np.clip(probs, 1e-12, None)
    loss = float(-np.sum(onehot * np.log(p)) / n)
    dlogits = (probs - onehot) / n
    return loss, dlogits


@dataclass
class RMSProp:
    """RMSProp: s <- rho*s + (1-rho)*g^2; p <- p - lr*g/(sqrt(s)+eps).

    With momentum > 0 a velocity buffer accumulates the scaled step
    (v <- momentum*v + lr*g/(sqrt(s)+eps)); the default momentum of 0
    reduces to the plain update.  ``lr``, ``rho``, ``momentum`` and
    ``epsilon`` are read from ``cfg``.
    """

    cfg: TrainConfig
    s: dict = field(default_factory=dict, init=False)  # per-parameter state
    v: dict = field(default_factory=dict, init=False)

    def step(self, params: dict, grads: dict) -> None:
        cfg = self.cfg
        for name, p in params.items():
            g = grads[name]
            if g.shape != p.shape:
                raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape} for {name}")
            if name not in self.s:
                self.s[name] = np.zeros_like(p)
            s = self.s[name]
            s *= cfg.rho
            s += (1.0 - cfg.rho) * g * g
            update = cfg.lr * g / (np.sqrt(s) + cfg.epsilon)
            if cfg.momentum > 0.0:
                if name not in self.v:
                    self.v[name] = np.zeros_like(p)
                v = self.v[name]
                v *= cfg.momentum
                v += update
                update = v
            p -= update


@dataclass
class Adam:
    """Adam with bias correction; epsilon sits outside the square root.
    ``lr``, ``beta1``, ``beta2`` and ``epsilon`` are read from ``cfg``."""

    cfg: TrainConfig
    m: dict = field(default_factory=dict, init=False)  # per-parameter state
    v: dict = field(default_factory=dict, init=False)
    t: int = field(default=0, init=False)

    def step(self, params: dict, grads: dict) -> None:
        cfg = self.cfg
        self.t += 1
        b1t = 1.0 - cfg.beta1 ** self.t
        b2t = 1.0 - cfg.beta2 ** self.t
        for name, p in params.items():
            g = grads[name]
            if g.shape != p.shape:
                raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape} for {name}")
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            m, v = self.m[name], self.v[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g * g
            p -= cfg.lr * (m / b1t) / (np.sqrt(v / b2t) + cfg.epsilon)


@dataclass
class TrainConfig:
    """Training settings (see ``settings``); ``fit`` checks them, and the
    optimizer it makes reads its own."""
    optimizer: str = setting("adam", one_of("adam", "rmsprop"))
    lr: float = setting(1e-3, FINITE_POSITIVE)
    epsilon: float = setting(1e-7, FINITE_POSITIVE)
    rho: float = setting(0.9, RATE)
    momentum: float = setting(0.0, RATE)
    beta1: float = setting(0.9, RATE)
    beta2: float = setting(0.999, RATE)
    batch_size: int = setting(32, POSITIVE)
    epochs: int = setting(1, POSITIVE)
    shuffle: bool = setting(True)
    clip_norm: float | None = setting(None, FINITE_POSITIVE)

    def make_optimizer(self):
        """The optimizer this config names, reading this config."""
        return (Adam if self.optimizer == "adam" else RMSProp)(self)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float


@dataclass
class TrainLog:
    epochs: list = field(default_factory=list)

    COLUMNS = tuple(f.name for f in fields(EpochStats))

    def append(self, stats: EpochStats) -> None:
        self.epochs.append(stats)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.COLUMNS)
            for e in self.epochs:
                writer.writerow([e.epoch, *(repr(float(getattr(e, c))) for c in self.COLUMNS[1:])])

    @staticmethod
    def from_csv(path) -> "TrainLog":
        """Read a log ``to_csv`` wrote; a row without a number in each column
        is a DataError naming the file and the row's 0-based line index, and
        a file that is not UTF-8 text one naming the file."""
        log = TrainLog()
        text = utf8_text(read_file(path, "training log"), path)
        reader = csv.DictReader(io.StringIO(text, newline=""))
        for row in reader:
            where = f"{path}: row {reader.line_num - 1}"
            if None in row or None in row.values() or set(TrainLog.COLUMNS) - set(row):
                raise DataError(f"{where}: expected one value in each of the columns "
                                f"{', '.join(TrainLog.COLUMNS)}")
            try:
                log.append(EpochStats(int(row["epoch"]),
                                      *(float(row[c]) for c in TrainLog.COLUMNS[1:])))
            except ValueError as exc:
                raise DataError(f"{where}: {exc}") from None
        return log


def predict_probs(model, x: Tensor, batch_size: int = 256) -> Tensor:
    """Eval-mode class probabilities, computed in batches."""
    chunks = []
    for start in range(0, x.shape[0], batch_size):
        probs, _ = model_mod.forward(model, x[start:start + batch_size], mode="eval")
        chunks.append(probs)
    return np.concatenate(chunks, axis=0)


def evaluate(model, x: Tensor, labels: np.ndarray, batch_size: int = 256):
    """Eval-mode (loss, accuracy) over a dataset."""
    probs = predict_probs(model, x, batch_size)
    loss, _ = cce_loss(probs, one_hot(labels, probs.shape[1]))
    acc = float(np.mean(probs.argmax(axis=1) == labels))
    return float(loss), acc


def _clip_global_norm(grads: dict, max_norm: float) -> None:
    # the sum runs in the key order of ``grads``, so that order is part of the bits
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale


def fit(model, train_set, val_set, cfg: TrainConfig, rng: Rng):
    """Train in place; returns (model, TrainLog).

    Per epoch: a shuffle drawn from ``rng``, minibatch forward/backward (the
    last partial batch is processed, not dropped; dropout draws from
    ``rng`` too), one optimizer step per batch.  Logged train loss/accuracy
    are the running minibatch averages for the epoch; validation metrics
    come from a full eval-mode pass, which never touches the gradient path.
    A non-finite minibatch or validation loss raises
    TrainingDivergenceError.
    """
    check(cfg)
    x_train, y_train = train_set.features, train_set.labels
    x_val, y_val = val_set.features, val_set.labels
    if x_train.shape[0] == 0 or x_val.shape[0] == 0:
        raise ValueError("datasets must be non-empty")
    k = model.config.num_classes
    for split, y in (("training", y_train), ("validation", y_val)):
        if y.max() >= k or y.min() < 0:
            raise ValueError(f"{split} label out of range for {k} classes")
    params = model.parameters()
    optimizer = cfg.make_optimizer()
    n = x_train.shape[0]
    onehot_all = one_hot(y_train, k)
    log = TrainLog()
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n) if cfg.shuffle else np.arange(n)
        loss_sum = 0.0
        hit_sum = 0
        for batch_idx, start in enumerate(range(0, n, cfg.batch_size)):
            sel = order[start:start + cfg.batch_size]
            xb = x_train[sel]
            yb = onehot_all[sel]
            probs, trace = model_mod.forward(model, xb, mode="train", rng=rng)
            loss, dlogits = cce_loss(probs, yb)
            if not np.isfinite(loss):
                raise TrainingDivergenceError(epoch, batch_idx)
            grads = model_mod.backward(model, trace, dlogits)
            if cfg.clip_norm is not None:
                _clip_global_norm(grads, cfg.clip_norm)
            optimizer.step(params, grads)
            loss_sum += loss * sel.shape[0]
            hit_sum += int(np.sum(probs.argmax(axis=1) == y_train[sel]))
        val_loss, val_acc = evaluate(model, x_val, y_val, batch_size=max(cfg.batch_size, 256))
        if not np.isfinite(val_loss):
            raise TrainingDivergenceError(epoch, None)
        log.append(EpochStats(epoch=epoch,
                              train_loss=loss_sum / n,
                              train_acc=hit_sum / n,
                              val_loss=val_loss,
                              val_acc=val_acc))
    return model, log
