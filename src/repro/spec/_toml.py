"""TOML loading for experiment spec files.

CPython >= 3.11 ships :mod:`tomllib`; on 3.10 the same parser is the
``tomli`` package (a marker dependency in ``pyproject.toml``).
"""

from __future__ import annotations

try:  # pragma: no cover - trivially version-dependent
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - exercised on 3.10 CI
    import tomli as tomllib

__all__ = ["load_toml_text", "TomlError"]


class TomlError(ValueError):
    """Malformed TOML."""


def load_toml_text(text: str) -> dict:
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise TomlError(str(exc)) from None
