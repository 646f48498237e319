"""Run configuration: task presets, flat key=value config files, overrides.

A config file is plain text, one ``key = value`` per line, ``#`` comments.
``task`` selects a preset: the data schema, and the keys whose reference
values (split ratios, batch size, epochs, optimizer, WAV clip length) differ
from the defaults, which it sets as a config line would; every other key
overrides the preset.  ``label_col`` and ``target_len`` are each read by one
schema alone, and given with it and no other.  Relative ``data`` paths
resolve against $TEMPORAL_AUGMENTER_DATA when it is set.

Each key is the name of one setting of ``RunConfig`` or of a section it
holds (``SplitSpec``, ``TrainConfig``, and ``ModelConfig`` as overrides),
and that field describes it (see ``settings``); no two fields share a key.
The parser checks each value against its field's rules on its own line.

``format_config`` renders a resolved config as text that
``parse_config_text`` reads back to the same config, without the ``data``
and ``out`` paths.  The schema is no setting: the task decides it."""

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
# ratios, clip length, batching, optimizer, epochs) differ from the defaults.
PRESETS = {
    "tess": ("wav", {"split_train": 0.7, "split_val": 0.1, "target_len": 1024,
                     "optimizer": "rmsprop", "epochs": 20}),
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
    target_len: int | None = setting(None, POSITIVE)
    label_col: str | None = setting(None)
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

    @property
    def schema(self) -> str:
        return PRESETS[self.task][0]

    def validate(self, lines: dict | None = None) -> None:
        """Check every setting, those of its sections and model overrides
        too, then the rules between settings: label_col is given with the
        generic schema and target_len with the wav schema, each only there,
        and the split ratios sum to 1.  An error is a ConfigError naming
        ``source`` and, where ``lines`` (config key -> line) holds the key
        it is about, its line."""
        def fail(message, key=None):
            where = f"{self.source}:{lines[key]}" if key in (lines or {}) else self.source
            raise ConfigError(f"{where}: {message}")

        for key, (section, f) in _KEYS.items():
            held = self._held(section)
            if f.name in held:
                try:
                    held[f.name] = check_value(f, held[f.name])
                except ValueError as exc:
                    fail(exc, key)
        for key, schema, task in _SCHEMA_KEYS:
            if getattr(self, key) is not None and self.schema != schema:
                fail(f"{key} applies only to the {schema} schema (task {task!r}), not to task "
                     f"{self.task!r}", key)
        try:
            self.split.validate()
        except ValueError as exc:
            fail(exc)
        for key, schema, task in _SCHEMA_KEYS:
            if self.schema == schema and not getattr(self, key):
                fail(f"{task} task with {schema} schema requires {key}")

    def _held(self, section: str | None) -> dict:
        """The overrides, or the fields, that hold ``section``'s settings."""
        owner = self if section is None else getattr(self, section)
        return owner if isinstance(owner, dict) else vars(owner)

    def set(self, key: str, value) -> None:
        """Set config key ``key`` to ``value``, which its rules passed, in
        the field that holds it."""
        section, f = _KEYS[key]
        self._held(section)[f.name] = value


def _add_keys(cls, section=None, by_name=False) -> None:
    """Add to ``_KEYS`` each config key of ``cls``'s settings in field order,
    the order ``format_config`` renders them in; a dict of overrides renders,
    so adds, its keys by name.  A key that two fields claim is a TypeError."""
    for f in sorted(fields(cls), key=lambda f: f.name) if by_name else fields(cls):
        if "section" in f.metadata:
            _add_keys(f.metadata["section"], f.name, f.type == "dict")
        elif "rules" in f.metadata and not (by_name and f.default is MISSING):
            # an override with no default is given by the data, so no key sets it
            if f.name in _KEYS:
                raise TypeError(f"config key {f.name!r} is held by two fields")
            _KEYS[f.name] = (section, f)


# config key -> the (section, field) it sets; section None is RunConfig's own fields
_KEYS = {}
_add_keys(RunConfig)
# (key, the one schema that reads it, the task of that schema)
_SCHEMA_KEYS = (("label_col", "generic", "custom"), ("target_len", "wav", "tess"))


def preset_run_config(task: str) -> RunConfig:
    """The defaults, with ``task`` and its preset keys set."""
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}; expected one of {TASKS}")
    cfg = RunConfig(task=task)
    for key, value in PRESETS[task][1].items():
        cfg.set(key, value)
    return cfg


_BOOLS = {**dict.fromkeys(("true", "yes", "1", "on"), True),
          **dict.fromkeys(("false", "no", "0", "off"), False)}

# item type -> (its parser, what the text must be)
_PARSERS = {"int": (int, "int"), "float": (float, "float"),
            "bool": (lambda text: _BOOLS[text.lower()], "a boolean"), "str": (str, "str")}


def _parse_value(key: str, text: str):
    """The value the text of ``key`` gives, checked against the rules of the
    field it sets."""
    _, f = _KEYS[key]
    item, many = item_type(f)
    parse, expected = _PARSERS[item]
    try:
        value = (tuple(parse(v.strip()) for v in text.split(",") if v.strip())
                 if many else parse(text))
    except (KeyError, ValueError):
        raise ConfigError(f"{key}: expected {expected}, got {text!r}") from None
    return check_value(f, value)


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
    for key, value in pairs.items():
        cfg.set(key, value)
    cfg.validate(linenos)
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
    its paths; ``parse_config_text`` reads it back."""
    lines = []
    for key, (section, f) in _KEYS.items():
        value = cfg._held(section).get(f.name)
        if value is not None and not f.metadata["path"]:
            lines.append(f"{key} = {_render(value)}\n")
    return "".join(lines)
