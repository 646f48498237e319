"""Spans around the engine's public functions, recorded from outside the engine.

`Tracer.install` replaces each function in `SPAN_TARGETS` at the place its
caller looks the name up (a module attribute, or a method on a class) with a
wrapper that records one span per call; `Tracer.restore` puts every original
back.  Nothing under `src/` is edited.

A span is `[id, name, start, end, parent id, self seconds]`.  Its self time is
its duration minus the time covered by its children, which are the spans that
start and end while it is open.  Spans and counters stay in memory; the caller
writes them out.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

PACKAGE = "temporal_augmenter"

# (span name, module the caller reads the name from, attribute path there).
# `model.forward` is split by mode into `model.forward.train` and
# `model.forward.eval`; both optimizers' `step` methods share one span.
SPAN_TARGETS = (
    ("data.load_csv_signals", "cli", "load_csv_signals"),
    ("data.load_wav_dir", "cli", "load_wav_dir"),
    ("data.split", "cli", "split"),
    ("data.fit_scaler", "cli", "fit_scaler"),
    ("data.apply_scaler", "cli", "apply_scaler"),
    ("layers.conv1d_forward", "layers", "conv1d_forward"),
    ("layers.conv1d_backward", "layers", "conv1d_backward"),
    ("layers.relu_forward", "layers", "relu_forward"),
    ("layers.relu_backward", "layers", "relu_backward"),
    ("layers.maxpool1d_forward", "layers", "maxpool1d_forward"),
    ("layers.maxpool1d_backward", "layers", "maxpool1d_backward"),
    ("layers.dropout_forward", "layers", "dropout_forward"),
    ("layers.dropout_backward", "layers", "dropout_backward"),
    ("layers.dense_forward", "layers", "dense_forward"),
    ("layers.dense_backward", "layers", "dense_backward"),
    ("recurrent.gru_forward", "recurrent", "gru_forward"),
    ("recurrent.gru_backward", "recurrent", "gru_backward"),
    ("recurrent.lstm_forward", "recurrent", "lstm_forward"),
    ("recurrent.lstm_backward", "recurrent", "lstm_backward"),
    ("model.forward", "model", "forward"),
    ("model.backward", "model", "backward"),
    ("model.build", "model", "build"),
    ("model.save_checkpoint", "model", "save_checkpoint"),
    ("model.load_checkpoint", "model", "load_checkpoint"),
    ("tensor_core.softmax", "model", "softmax"),
    ("optim.cce_loss", "optim", "cce_loss"),
    ("optim.step", "optim", "Adam.step"),
    ("optim.step", "optim", "RMSProp.step"),
    ("optim.fit", "optim", "fit"),
    ("optim.evaluate", "optim", "evaluate"),
    ("optim.predict_probs", "optim", "predict_probs"),
    ("tensor_core.Rng.uniform", "tensor_core", "Rng.uniform"),
    ("metrics.classification_report", "metrics", "classification_report"),
    ("metrics.auc_ovr", "metrics", "auc_ovr"),
    ("metrics.format_report", "metrics", "format_report"),
)

# The counter on `Rng.next_uint64`: words drawn, not a span.
DRAWS_TARGET = ("tensor_core", "Rng.next_uint64")

# Every span name a traced run reports (model.forward split by mode).
SPAN_NAMES = tuple(dict.fromkeys(
    n for name, _, _ in SPAN_TARGETS
    for n in ((f"{name}.train", f"{name}.eval") if name == "model.forward" else (name,))))

LAYER_SPANS = tuple(n for n in SPAN_NAMES if n.startswith("layers."))
CACHE_SPANS = ("recurrent.gru_forward", "recurrent.lstm_forward")
TOTAL_SPANS = ("model.forward.train", "model.forward.eval", "model.backward")
LOAD_SPANS = ("data.load_csv_signals", "data.load_wav_dir")
# Spans that never run inside `optim.fit`; the others are reported per train step.
PER_RUN_SPANS = tuple(n for n in SPAN_NAMES if n.startswith(("data.", "metrics."))) + (
    "model.build", "model.save_checkpoint", "model.load_checkpoint")


def resolve(module: str, path: str):
    """Return (owner object, attribute name) for `module`, `path` in the package."""
    owner = importlib.import_module(f"{PACKAGE}.{module}")
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def array_bytes(obj) -> int:
    """nbytes of every ndarray in `obj`, looking inside tuples and lists."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(array_bytes(item) for item in obj)
    return 0


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = {}
        self._open = []  # [span id, time covered by children] per open span
        self._next_id = 0
        self._saved = []  # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def wrap(self, name, fn, on_result=None):
        """Return `fn` wrapped in a span; `name` may be a callable of the call's arguments."""
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._open[-1][0] if tracer._open else -1
            tracer._open.append([span_id, 0.0])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                _, covered = tracer._open.pop()
                duration = end - start
                if tracer._open:
                    tracer._open[-1][1] += duration
                tracer.spans.append([span_id, span_name, start, end, parent, duration - covered])
            if on_result is not None:
                on_result(span_name, args, result)
            return result

        return traced

    def count(self, key, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key, value) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    # -- per-span extras -------------------------------------------------

    def _layer_bytes(self, name, args, result):
        out = result[0] if name.endswith("_forward") else result
        self.count(f"{name}.bytes", array_bytes(args) + array_bytes(out))

    def _cache_bytes(self, name, args, result):
        self.peak(f"{name}.cache_bytes", array_bytes(result[1]))

    def _rows(self, name, args, result):
        self.count("data.rows", result.n)

    def _extra(self, name):
        if name in LAYER_SPANS:
            return self._layer_bytes
        if name in CACHE_SPANS:
            return self._cache_bytes
        if name in LOAD_SPANS:
            return self._rows
        return None

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for name, module, path in SPAN_TARGETS:
            owner, attr = resolve(module, path)
            span_name = _forward_name if name == "model.forward" else name
            self._patch(owner, attr, self.wrap(span_name, getattr(owner, attr), self._extra(name)))
        owner, attr = resolve(*DRAWS_TARGET)
        self._patch(owner, attr, self._draw_counter(getattr(owner, attr)))

    def _draw_counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(rng, n):
            tracer.count("tensor_core.Rng.draws", int(n))
            return fn(rng, n)

        return counted

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _forward_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "eval")
    return f"model.forward.{mode}"


def summarize(spans) -> dict:
    """Per span name: calls, self seconds and inclusive seconds."""
    out = {}
    for _, name, start, end, _, self_s in spans:
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["total_s"] += end - start
    return out
