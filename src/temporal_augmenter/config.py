"""Run configuration: task presets, flat key=value config files, overrides.

A config file is plain text, one ``key = value`` per line, ``#`` comments.
``task`` selects a preset that pins the data schema and the reference
hyperparameters (split ratios, batch size, epochs, optimizer); every other
key overrides the preset.  Relative ``data`` paths resolve against
$TEMPORAL_AUGMENTER_DATA when it is set.

``format_config`` renders a resolved config as text that
``parse_config_text`` reads back to the same config.  The text omits the
schema, which the task implies, and the ``data`` and ``out`` paths, so it
does not depend on where the data or the run lives.

Recognized keys:
  task, data, out, seed, standardize, target_len, label_col,
  split_train, split_val, split_test, stratified,
  optimizer, lr, epsilon, rho, momentum, beta1, beta2, batch_size, epochs,
  shuffle, clip_norm,
  conv_filters, conv_kernel, conv_activation, pool_size, dropout_stream,
  dropout_head, lstm_units, gru_units, dense_sizes, return_sequences, streams
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .data import SplitSpec
from .model import ModelConfig
from .optim import TrainConfig


class ConfigError(Exception):
    """Raised for unparseable or inconsistent run configuration."""


TASKS = ("tess", "mitbih", "ionosphere", "custom")

# Reference per-task settings: split ratios, batching, optimizer.
PRESETS = {
    "tess": {
        "schema": "wav",
        "split": (0.7, 0.1, 0.2),
        "stratified": False,
        "train": {"optimizer": "rmsprop", "lr": 1e-3, "momentum": 0.0,
                  "epsilon": 1e-7, "batch_size": 32, "epochs": 20},
    },
    "mitbih": {
        "schema": "mitbih",
        "split": (0.6, 0.2, 0.2),
        "stratified": True,
        "train": {"optimizer": "adam", "lr": 1e-3, "epsilon": 1e-7,
                  "batch_size": 128, "epochs": 50},
    },
    "ionosphere": {
        "schema": "ionosphere",
        "split": (0.6, 0.2, 0.2),
        "stratified": False,
        "train": {"optimizer": "adam", "lr": 1e-3, "epsilon": 1e-7,
                  "batch_size": 128, "epochs": 100},
    },
    "custom": {
        "schema": "generic",
        "split": (0.6, 0.2, 0.2),
        "stratified": False,
        "train": {"optimizer": "adam", "lr": 1e-3, "epsilon": 1e-7,
                  "batch_size": 32, "epochs": 10},
    },
}

_MODEL_KEYS = ("conv_filters", "conv_kernel", "conv_activation", "pool_size",
               "dropout_stream", "dropout_head", "lstm_units", "gru_units",
               "dense_sizes", "return_sequences", "streams")
_TRAIN_KEYS = ("optimizer", "lr", "epsilon", "rho", "momentum", "beta1", "beta2",
               "batch_size", "epochs", "shuffle", "clip_norm")


@dataclass
class RunConfig:
    task: str
    data: str | None = None
    out: str | None = None
    seed: int = 0
    standardize: bool = True
    target_len: int = 1024
    label_col: str | None = None
    schema: str = "generic"
    split: SplitSpec = field(default_factory=SplitSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    model_overrides: dict = field(default_factory=dict)

    def resolved_data_path(self) -> str:
        if self.data is None:
            raise ConfigError("no data path configured")
        root = os.environ.get("TEMPORAL_AUGMENTER_DATA")
        if root and not os.path.isabs(self.data):
            return os.path.join(root, self.data)
        return self.data


def preset_run_config(task: str, seed: int = 0) -> RunConfig:
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}; expected one of {TASKS}")
    preset = PRESETS[task]
    cfg = RunConfig(task=task, seed=seed, schema=preset["schema"])
    cfg.split = SplitSpec(ratios=preset["split"], seed=seed, stratified=preset["stratified"])
    cfg.train = TrainConfig(seed=seed, **preset["train"])
    return cfg


def _parse_bool(value: str, key: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def _parse_scalar(value: str, kind, key: str):
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}") from None


_KEY_TYPES = {
    "seed": int, "target_len": int, "batch_size": int, "epochs": int,
    "conv_filters": int, "conv_kernel": int, "pool_size": int,
    "lstm_units": int, "gru_units": int,
    "lr": float, "epsilon": float, "rho": float, "momentum": float,
    "beta1": float, "beta2": float, "clip_norm": float,
    "split_train": float, "split_val": float, "split_test": float,
    "dropout_stream": float, "dropout_head": float,
    "standardize": bool, "stratified": bool, "shuffle": bool, "return_sequences": bool,
    "task": str, "data": str, "out": str, "label_col": str,
    "optimizer": str, "conv_activation": str,
    "dense_sizes": "int_list", "streams": "str_list",
}


def _parse_value(key: str, value: str):
    kind = _KEY_TYPES[key]
    if kind == "int_list":
        return tuple(_parse_scalar(v.strip(), int, key) for v in value.split(",") if v.strip())
    if kind == "str_list":
        return tuple(v.strip() for v in value.split(",") if v.strip())
    if kind is bool:
        return _parse_bool(value, key)
    return _parse_scalar(value, kind, key)


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse config text; an error names ``source`` and, for a bad value,
    its line.  A model key's value must pass ``ModelConfig``'s rule for
    that field here, before any data is read."""
    pairs, linenos = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_TYPES:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            pairs[key] = _parse_value(key, value)
            if key in _MODEL_KEYS:
                ModelConfig.check_field(key, pairs[key])
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"{source}:{lineno}: {exc}") from None
        linenos[key] = lineno

    task = pairs.pop("task", None)
    if task is None:
        raise ConfigError(f"{source}: missing required key 'task'")
    if task not in TASKS:
        raise ConfigError(f"{source}: unknown task {task!r}; expected one of {TASKS}")
    cfg = preset_run_config(task, seed=pairs.pop("seed", 0))
    if "label_col" in pairs and cfg.schema != "generic":
        raise ConfigError(f"{source}:{linenos['label_col']}: label_col applies only to the "
                          f"generic schema (task 'custom'), not to task {task!r}")
    cfg.split.ratios = tuple(pairs.pop(key, ratio) for key, ratio in
                             zip(("split_train", "split_val", "split_test"), cfg.split.ratios))
    cfg.split.stratified = pairs.pop("stratified", cfg.split.stratified)
    for key, value in pairs.items():
        if key in _TRAIN_KEYS:
            setattr(cfg.train, key, value)
        elif key in _MODEL_KEYS:
            cfg.model_overrides[key] = value
        else:
            setattr(cfg, key, value)

    try:
        cfg.split.validate()
        cfg.train.validate()
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    if cfg.target_len < 1:
        raise ConfigError(f"{source}: target_len must be at least 1, got {cfg.target_len}")
    if cfg.task == "custom" and cfg.schema == "generic" and not cfg.label_col:
        raise ConfigError(f"{source}: custom task with generic schema requires label_col")
    return cfg


def load_config(path) -> RunConfig:
    if not os.path.isfile(path):
        state = "is not a regular file" if os.path.exists(path) else "not found"
        raise ConfigError(f"config file {state}: {path}")
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    return parse_config_text(text, source=str(path))


def _render(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)  # a float's str is its shortest round-tripping repr


def format_config(cfg: RunConfig) -> str:
    """Stable textual rendering of a resolved run configuration, without
    its schema and paths; ``parse_config_text`` reads it back."""
    items = [("task", cfg.task), ("seed", cfg.seed), ("standardize", cfg.standardize),
             ("split_train", cfg.split.ratios[0]), ("split_val", cfg.split.ratios[1]),
             ("split_test", cfg.split.ratios[2]), ("stratified", cfg.split.stratified),
             ("target_len", cfg.target_len), ("label_col", cfg.label_col)]
    items += [(key, getattr(cfg.train, key)) for key in _TRAIN_KEYS]
    items += sorted(cfg.model_overrides.items())
    return "".join(f"{key} = {_render(value)}\n" for key, value in items if value is not None)
