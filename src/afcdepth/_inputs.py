"""How every input file is read: ``key = value`` files, JSON objects,
numeric text tables, and typed values taken out of them.  Every fault
raises ConfigError naming the file or entry (exit status 2 in the CLI).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigError

_REQUIRED = object()
_KIND_NAMES = {float: "a number", int: "an integer", bool: "true or false",
               str: "a string", list: "a JSON list", dict: "a JSON object"}


def read_key_values(path, keys, text_keys=()) -> dict:
    """Values of a ``key = value`` file, floats except for ``text_keys``.

    '#' starts a comment and blank lines are skipped; a later line overrides
    an earlier one.  A line without '=', a key outside ``keys`` or a
    non-numeric value raises ConfigError naming ``path:lineno``.
    """
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key not in text_keys:
            try:
                val = float(val)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: non-numeric value for {key!r}") from None
        values[key] = val
    return values


def read_json(path) -> dict:
    """The JSON object in ``path``."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def read_table(path, columns, **loadtxt_kwargs) -> np.ndarray:
    """The rows of the text table ``path``, read by ``np.loadtxt``, which
    must be ``columns`` (a tuple of column names) wide."""
    try:
        data = np.loadtxt(path, ndmin=2, **loadtxt_kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if data.shape[1] != len(columns):
        raise ConfigError(f"{path}: need {len(columns)} columns ({', '.join(columns)}), "
                          f"found {data.shape[1]}")
    return data


def typed(value, kind, what):
    """``value`` as ``kind`` (float, int, bool, str, list or dict); an int
    passes as a float and an integral float as an int, nothing else converts."""
    if not isinstance(value, bool):
        if kind is float and isinstance(value, (int, float)):
            return float(value)
        if kind is int and isinstance(value, float) and value.is_integer():
            return int(value)
    if isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    raise ConfigError(f"{what} must be {_KIND_NAMES[kind]}, got {json.dumps(value)}")


def field(entry, key, kind, what, default=_REQUIRED):
    """``entry[key]`` checked by ``typed``, or ``default`` if the key is absent."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{what} must be a JSON object")
    if key not in entry:
        if default is _REQUIRED:
            raise ConfigError(f"{what} missing key {key!r}")
        return default
    return typed(entry[key], kind, f"{what} {key!r}")
