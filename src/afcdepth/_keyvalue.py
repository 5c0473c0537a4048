"""The ``key = value`` file format of the channel and material configs."""

from __future__ import annotations

from pathlib import Path

from .errors import ConfigError


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
