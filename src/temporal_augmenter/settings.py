"""Every setting is described once, by the dataclass field that holds it.

The field gives its name (its config key), its type (the annotation: ``int``,
``float``, ``bool``, ``str`` or a tuple of one, ``| None`` where the default
is None) and its default; ``setting`` adds its rules.  ``check`` validates a
config object against them, whoever filled it.  An int refuses a bool or a
float, even an integral one; a float takes an int but no bool; a tuple takes
a list or a tuple of its items, never a string or a mapping."""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, field, fields

# item type -> (class of its values, what one value must be, what several must be)
_TYPES = {"int": (numbers.Integral, "an integer", "integers"),
          "float": (numbers.Real, "a number", "numbers"),
          "bool": (bool, "true or false", "booleans"), "str": (str, "a string", "strings")}

# A rule is (test, what a value that fails it must be); NaN fails each
# comparison, so it fails every numeric rule.
POSITIVE = (lambda v: v > 0, "must be positive")
FINITE_POSITIVE = (lambda v: 0 < v < math.inf, "must be finite and > 0")
RATE = (lambda v: 0 <= v < 1, "must be in [0, 1)")


def one_of(*choices) -> tuple:
    return (lambda v: v in choices, f"must be one of {choices}")


def setting(default=MISSING, *rules, path=False):
    """A field holding a setting that must pass ``rules``, set in a config
    file under the field's name; ``format_config`` leaves a ``path`` out."""
    return field(default=default, metadata={"rules": rules, "path": path})


def section(cls, **kwargs):
    """A field holding a ``cls``, or a dict overriding its settings."""
    return field(metadata={"section": cls}, **kwargs)


def item_type(f) -> tuple:
    """(item type, whether it is a tuple of them) of setting field ``f``."""
    base = f.type.removesuffix(" | None")
    item = base.removeprefix("tuple[").removesuffix(", ...]")
    return item, item != base


def check_value(f, value):
    """``value`` as setting field ``f`` stores it; ValueError naming ``f`` if
    it is of another type or breaks a rule."""
    if value is None and f.default is None:
        return None
    item, many = item_type(f)
    cls, one, several = _TYPES[item]

    def test(v):  # bool is an Integral, but no int or float setting takes one
        return isinstance(v, cls) and (cls is bool or not isinstance(v, bool))

    if many:
        if not isinstance(value, (list, tuple)) or not all(test(v) for v in value):
            raise ValueError(f"{f.name} must be a list of {several}, got {value!r}")
        value = tuple(value)
    elif not test(value):
        raise ValueError(f"{f.name} must be {one}, got {value!r}")
    for rule, must in f.metadata["rules"]:
        if not rule(value):
            raise ValueError(f"{f.name} {must}, got {value!r}")
    return value


def check(obj) -> None:
    """Check every setting of dataclass ``obj``; a list becomes a tuple."""
    for f in fields(obj):
        if "rules" in f.metadata:
            setattr(obj, f.name, check_value(f, getattr(obj, f.name)))
