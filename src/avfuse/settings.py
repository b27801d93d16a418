"""Each config setting's type and valid range, declared once beside its default:
:func:`setting` declares a config dataclass field, :func:`problem` holds one
value to its declaration and :func:`check` every field of a config object."""

from __future__ import annotations

import json
import math
import operator
from dataclasses import MISSING, Field, field, fields
from numbers import Integral, Real

from .errors import ConfigError

# A float setting also takes an int, a bool is no number, a float is finite,
# and a str holds no NUL, which no path can.
_KINDS = {
    bool: lambda v: isinstance(v, bool),
    int: lambda v: isinstance(v, Integral) and not isinstance(v, bool),
    float: lambda v: isinstance(v, Real) and not isinstance(v, bool) and math.isfinite(v),
    str: lambda v: isinstance(v, str) and "\0" not in v,
}
_OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}


def setting(default=MISSING, within=None, *, kind=None, optional=False):
    """A config field with ``default``, whose values are of ``kind`` (the
    default's type unless given), ``within`` a range such as ``">= 1"`` or
    ``">= 0 and < 1"`` or a tuple of the choices, and None if ``optional``."""
    return field(default=default, metadata={
        "kind": kind or type(default), "within": within, "optional": optional})


def _within(value, within) -> bool:
    if isinstance(within, tuple):
        return value in within
    return all(_OPS[op](value, float(bound))
               for op, bound in (end.split() for end in within.split(" and ")))


def problem(f: Field, value, name: str) -> str | None:
    """Why ``value`` cannot be field ``f``'s, naming the setting ``name``, or
    None if it can."""
    if value is None and f.metadata["optional"]:
        return None
    kind, within = f.metadata["kind"], f.metadata["within"]
    if not _KINDS[kind](value):
        rule = kind.__name__
    elif within is None or _within(value, within):
        return None
    else:
        rule = f"one of {', '.join(within)}" if isinstance(within, tuple) else within
    return f"{name} must be {rule}, got {json.dumps(value, default=repr)}"


def check(config) -> None:
    """Raise a :class:`ConfigError` naming every field of the config object
    ``config`` whose value is not of its declared kind and range."""
    found = [p for f in fields(config) if (p := problem(f, getattr(config, f.name), f.name))]
    if found:
        raise ConfigError(found)
