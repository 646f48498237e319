"""Run configuration: task presets, flat key=value config files, overrides.

A config file is plain text, one ``key = value`` per line, ``#`` comments.
``task`` selects a preset: the data schema, and the keys whose reference
values (split ratios, batch size, epochs, optimizer) differ from the
defaults, which it sets as a config line would; every other key overrides
the preset.  Relative ``data`` paths resolve against
$TEMPORAL_AUGMENTER_DATA when it is set.

Each key is a setting of ``RunConfig`` or of a section it holds
(``SplitSpec``, ``TrainConfig``, and ``ModelConfig`` as overrides), and the
field that holds it describes it (see ``settings``); no two fields share a
key.  The parser checks each value on its own line.

``format_config`` renders a resolved config as text that
``parse_config_text`` reads back to the same config, without the schema,
which the task implies, or the ``data`` and ``out`` paths."""

from __future__ import annotations

import os
from dataclasses import MISSING, dataclass, field, fields

from .data import DataError, SplitSpec, read_file, utf8_text
from .model import ModelConfig
from .optim import TrainConfig
from .settings import POSITIVE, check_value, item_type, one_of, section, setting


class ConfigError(Exception):
    """Raised for unparseable or inconsistent run configuration."""


# Each task's data schema, and the config keys whose reference values (split
# ratios, batching, optimizer, epochs) differ from the defaults.
PRESETS = {
    "tess": ("wav", {"split_train": 0.7, "split_val": 0.1, "optimizer": "rmsprop",
                     "epochs": 20}),
    "mitbih": ("mitbih", {"stratified": True, "batch_size": 128, "epochs": 50}),
    "ionosphere": ("ionosphere", {"batch_size": 128, "epochs": 100}),
    "custom": ("generic", {"epochs": 10}),
}
TASKS = tuple(PRESETS)


@dataclass
class RunConfig:
    task: str = setting(MISSING, one_of(*TASKS))
    data: str | None = setting(None, path=True)
    out: str | None = setting(None, path=True)
    seed: int = setting(0)  # the one seed: split, initialisation and training derive from it
    standardize: bool = setting(True)
    split: SplitSpec = section(SplitSpec, default_factory=SplitSpec)
    target_len: int = setting(1024, POSITIVE)
    label_col: str | None = setting(None)
    schema: str = "generic"
    train: TrainConfig = section(TrainConfig, default_factory=TrainConfig)
    model_overrides: dict = section(ModelConfig, default_factory=dict)
    # what the settings were read from, named by an error that only the data's shape reveals
    source: str = field(default="<config>", compare=False)

    def resolved_data_path(self) -> str:
        if self.data is None:
            raise ConfigError("no data path configured")
        root = os.environ.get("TEMPORAL_AUGMENTER_DATA")
        if root and not os.path.isabs(self.data):
            return os.path.join(root, self.data)
        return self.data

    def _held(self, section: str | None) -> dict:
        """The overrides, or the fields, that hold ``section``'s settings."""
        owner = self if section is None else getattr(self, section)
        return owner if isinstance(owner, dict) else vars(owner)

    def set(self, key: str, value) -> None:
        """Set config key ``key`` to ``value``, which its rules passed, in
        the field that holds it."""
        section, f, index = _KEYS[key]
        held = self._held(section)
        held[f.name] = value if index is None else tuple(
            value if i == index else item for i, item in enumerate(held[f.name]))


def _add_keys(cls, section=None, by_name=False) -> None:
    """Add to ``_KEYS`` each config key of ``cls``'s settings in field order,
    the order ``format_config`` renders them in; a dict of overrides renders,
    so adds, its keys by name.  A key that two fields claim is a TypeError."""
    for f in sorted(fields(cls), key=lambda f: f.name) if by_name else fields(cls):
        if "section" in f.metadata:
            _add_keys(f.metadata["section"], f.name, f.type == "dict")
        elif "rules" in f.metadata:
            keys = f.metadata["keys"]
            for index, key in enumerate((f.name,) if keys is None else keys):
                if key in _KEYS:
                    raise TypeError(f"config key {key!r} is held by two fields")
                _KEYS[key] = (section, f, None if keys is None else index)


# config key -> the (section, field, item index or None) it sets; section
# None is RunConfig's own fields
_KEYS = {}
_add_keys(RunConfig)


def preset_run_config(task: str) -> RunConfig:
    """The defaults, with ``task``'s schema and its preset keys set."""
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}; expected one of {TASKS}")
    schema, overrides = PRESETS[task]
    cfg = RunConfig(task=task, schema=schema)
    for key, value in overrides.items():
        cfg.set(key, value)
    return cfg


_BOOLS = {**dict.fromkeys(("true", "yes", "1", "on"), True),
          **dict.fromkeys(("false", "no", "0", "off"), False)}

# item type -> (its parser, what the text must be)
_PARSERS = {"int": (int, "int"), "float": (float, "float"),
            "bool": (lambda text: _BOOLS[text.lower()], "a boolean"), "str": (str, "str")}


def _parse_value(key: str, text: str):
    """The value the text of ``key`` gives, checked against the rules of the
    field it sets; a key for one item of a field is checked for its type."""
    _, f, index = _KEYS[key]
    item, many = item_type(f)
    parse, expected = _PARSERS[item]
    try:
        value = (tuple(parse(v.strip()) for v in text.split(",") if v.strip())
                 if many and index is None else parse(text))
    except (KeyError, ValueError):
        raise ConfigError(f"{key}: expected {expected}, got {text!r}") from None
    return value if index is not None else check_value(f, value)


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse config text; an error names ``source`` and, for a bad value,
    its line.  Each value must pass its field's rules there, before any
    data is read."""
    pairs, linenos = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            pairs[key] = _parse_value(key, value)
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"{source}:{lineno}: {exc}") from None
        linenos[key] = lineno

    if "task" not in pairs:
        raise ConfigError(f"{source}: missing required key 'task'")
    cfg = preset_run_config(pairs["task"])
    cfg.source = source
    if "label_col" in pairs and cfg.schema != "generic":
        raise ConfigError(f"{source}:{linenos['label_col']}: label_col applies only to the "
                          f"generic schema (task 'custom'), not to task {cfg.task!r}")
    for key, value in pairs.items():
        cfg.set(key, value)
    try:
        cfg.split.validate()
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    if cfg.schema == "generic" and not cfg.label_col:
        raise ConfigError(f"{source}: custom task with generic schema requires label_col")
    return cfg


def load_config(path) -> RunConfig:
    """The config file at ``path``, read as the data readers read a file,
    but an error in it is a ConfigError."""
    try:
        text = utf8_text(read_file(path, "config file"), path)
    except DataError as exc:
        raise ConfigError(str(exc)) from None
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
    lines = []
    for key, (section, f, index) in _KEYS.items():
        value = cfg._held(section).get(f.name)
        if value is not None and not f.metadata["path"]:
            lines.append(f"{key} = {_render(value if index is None else value[index])}\n")
    return "".join(lines)
