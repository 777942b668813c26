"""Run configuration files: human-readable key = value documents.

One key per line, ``#`` starts a comment, unknown or duplicate keys are
rejected with the offending line number.  A RunConfig is an
ExperimentConfig, so the simulator takes it as it is and a bad source
value fails when it is built; it adds the scan selection (families,
separations, mode) and optional output paths.  Its fields are the keys:
a value is read by its field's type, families and l_values as comma
lists, and every scan rule is checked as the RunConfig is built, so no
RunConfig breaks one.  The CLI reads a flag's text with the same reader,
parse_value.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, Optional, Tuple, get_type_hints

from .stream import ExperimentConfig
from .templates import (FAMILIES, Template, _check_length,
                        certifiable_lengths, check_each_once, check_family,
                        check_scan, make_template)


class ConfigError(Exception):
    """Malformed or invalid run configuration."""


_SCALARS: Dict[type, str] = {int: "an integer", float: "a number"}


def parse_scalar(key: str, kind: object, text: str) -> object:
    """Read one value of ``kind`` for ``key``: a family name for FAMILIES,
    a number for int or float, otherwise text."""
    if kind is FAMILIES:
        try:
            return check_family(text)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    if kind not in _SCALARS:
        return text
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{key}: expected {_SCALARS[kind]}, "
                          f"got {text!r}") from None


def parse_list(key: str, text: str, kind: object) -> tuple:
    """Read a comma list of ``kind`` items; blank items are skipped."""
    return tuple(parse_scalar(key, kind, part.strip())
                 for part in text.split(",") if part.strip())


# the comma-list keys and the type of one item; every other key is one
# value of its field's type
_LIST_ITEMS: Dict[str, object] = {"families": FAMILIES, "l_values": int}


@dataclass(frozen=True)
class RunConfig(ExperimentConfig):
    n_photons: int = 1_000_000
    families: Tuple[str, ...] = FAMILIES
    l_max: int = 11
    l_values: Optional[Tuple[int, ...]] = None
    mode: str = "all"
    threads: int = 1
    record_path: Optional[str] = None
    estimates_path: Optional[str] = None

    def __post_init__(self) -> None:
        """Check the source rules (ValueError), then the scan rules
        (ConfigError, on the first broken one)."""
        super().__post_init__()
        for name in self.families:  # the families reader's name check
            parse_scalar("families", FAMILIES, name)
        try:
            for l in self.separations():
                _check_length(l)
            if not self.families:
                raise ValueError("families must name at least one template family")
            if not self.separations():
                raise ValueError("no valid separations selected")
            check_scan(self.mode, self.threads)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def separations(self) -> Tuple[int, ...]:
        if self.l_values is not None:
            return self.l_values
        return tuple(certifiable_lengths(self.l_max))

    def templates(self) -> Tuple[Template, ...]:
        """The selected templates; raises ConfigError if one repeats."""
        templates = tuple(make_template(family, l)
                          for family in self.families
                          for l in self.separations())
        try:
            check_each_once(templates)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return templates


_FIELD_TYPES = get_type_hints(RunConfig)


def parse_value(key: str, text: str) -> object:
    """Read the value of field ``key`` from its config-file text."""
    if key in _LIST_ITEMS:
        return parse_list(key, text, _LIST_ITEMS[key])
    return parse_scalar(key, _FIELD_TYPES[key], text)


def parse_config(text: str) -> RunConfig:
    values: Dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = parse_value(key, value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return override(RunConfig(), **values)


def read_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def format_config(cfg: RunConfig) -> str:
    """Render cfg as a config file; rejects text that would not read back."""
    lines = []
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if f.name in _LIST_ITEMS:
            value = ",".join(str(v) for v in value)
        text = str(value)
        if "#" in text or text != text.strip() or len(text.splitlines()) > 1:
            raise ConfigError(f"{f.name} = {text!r} cannot be written to a config file")
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


def override(cfg: RunConfig, **updates) -> RunConfig:
    """Apply non-None keyword overrides; the result is checked as it is built."""
    changes = {k: v for k, v in updates.items() if v is not None}
    try:
        return replace(cfg, **changes)
    except ValueError as exc:  # a source rule, raised by ExperimentConfig
        raise ConfigError(str(exc)) from None
