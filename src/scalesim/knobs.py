"""Scenario knobs: dataclass fields that a scenario file may set.

A knob is declared once, on the field that holds it: the annotation is its
type, the field default is its default (a knob without one is required), and
the metadata holds its allowed range. The scenario parser reads the types and
defaults; check_knobs, called by each declaring class, checks the values.
"""

from __future__ import annotations

import functools
import math
import typing
from dataclasses import MISSING, Field, dataclass, field, fields

from .errors import ConfigError


@dataclass(frozen=True)
class Range:
    """Allowed values: inclusive (ge, le) or exclusive (gt, lt) bounds, or a
    tuple of choices. An unset bound is open."""

    ge: object = None
    gt: object = None
    le: object = None
    lt: object = None
    choices: tuple | None = None

    def problem(self, value) -> str | None:
        """Why `value` is not allowed, or None when it is. None itself is
        always allowed: it is the value of an optional knob left unset."""
        if value is None:
            return None
        if self.choices is not None:
            return None if value in self.choices else f"{value!r} is not {self}"
        if ((self.ge is not None and not value >= self.ge)
                or (self.gt is not None and not value > self.gt)
                or (self.le is not None and not value <= self.le)
                or (self.lt is not None and not value < self.lt)):
            return f"{value} is out of range: must be {self}"
        return None

    def __str__(self) -> str:
        if self.choices is not None:
            return "one of " + ", ".join(self.choices)
        bounds = ((">=", self.ge), (">", self.gt), ("<=", self.le), ("<", self.lt))
        return " and ".join(f"{op} {b}" for op, b in bounds if b is not None) or "any"


def knob(default=MISSING, **allowed) -> Field:
    """A dataclass field declared as a knob with the given Range keywords."""
    return field(default=default, metadata={"range": Range(**allowed)})


@functools.cache
def declared(cls: type) -> dict[str, tuple[type, object, Range]]:
    """Field name -> (value type, default or MISSING, range) for every knob of
    `cls`, in field order. An optional knob's type is its non-None type."""
    hints = typing.get_type_hints(cls)
    out = {}
    for f in fields(cls):
        if "range" in f.metadata:
            hint = hints[f.name]
            args = [a for a in typing.get_args(hint) if a is not type(None)]
            out[f.name] = (args[0] if args else hint, f.default, f.metadata["range"])
    return out


def check_knobs(obj, prefix: str) -> None:
    """Raise ConfigError, keyed `prefix` + field name, for the first knob of
    `obj` that is a non-finite float or out of its range."""
    for name, (_, _, allowed) in declared(type(obj)).items():
        value = getattr(obj, name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(prefix + name, f"{str(value)!r} is not a finite number")
        problem = allowed.problem(value)
        if problem is not None:
            raise ConfigError(prefix + name, problem)
