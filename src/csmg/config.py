"""Run configuration files: human-readable key = value documents.

One key per line, ``#`` starts a comment, unknown or duplicate keys are
rejected with the offending line number.  A RunConfig bundles the source
parameters with the scan selection (families, separations, mode) and
optional output paths, and converts to the simulator's ExperimentConfig.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable, Dict, Optional, Tuple

from .stream import ExperimentConfig
from .templates import Template, TemplateFamily, certifiable_lengths, make_template


class ConfigError(Exception):
    """Malformed or invalid run configuration."""


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None


def _parse_families(text: str) -> Tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    if not names:
        raise ConfigError("families must name at least one template family")
    for name in names:
        try:
            TemplateFamily(name)
        except ValueError:
            raise ConfigError(f"unknown template family {name!r}") from None
    return names


def _parse_l_values(text: str) -> Tuple[int, ...]:
    return tuple(_parse_int(part.strip())
                 for part in text.split(",") if part.strip())


def _parse_str(text: str) -> str:
    return text


_PARSERS: Dict[str, Callable[[str], object]] = {
    "n_photons": _parse_int,
    "seed": _parse_int,
    "p_d": _parse_float,
    "q_x": _parse_float,
    "q_y": _parse_float,
    "q_z": _parse_float,
    "p_sigma": _parse_float,
    "p_zz": _parse_float,
    "burn_in": _parse_int,
    "tau_em": _parse_float,
    "families": _parse_families,
    "l_max": _parse_int,
    "l_values": _parse_l_values,
    "mode": _parse_str,
    "stride": _parse_int,
    "threads": _parse_int,
    "record_path": _parse_str,
    "estimates_path": _parse_str,
}


@dataclass(frozen=True)
class RunConfig:
    n_photons: int = 1_000_000
    seed: int = 0
    p_d: float = 1.0
    q_x: float = 1.0 / 3.0
    q_y: float = 1.0 / 3.0
    q_z: float = 1.0 / 3.0
    p_sigma: float = 0.0
    p_zz: float = 0.0
    burn_in: int = 100
    tau_em: float = 1e-9
    families: Tuple[str, ...] = ("Gamma1", "Gamma2")
    l_max: int = 11
    l_values: Optional[Tuple[int, ...]] = None
    mode: str = "all"
    stride: int = 1
    threads: int = 1
    record_path: Optional[str] = None
    estimates_path: Optional[str] = None

    def validate(self) -> "RunConfig":
        try:
            self.experiment()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.mode not in ("all", "greedy"):
            raise ConfigError(f"mode must be 'all' or 'greedy', got {self.mode!r}")
        if self.stride < 1:
            raise ConfigError("stride must be >= 1")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        for l in self.separations():
            if l < 2 or l % 3 != 2:
                raise ConfigError(
                    f"separation {l} is not supported (need l >= 2, l = 2 mod 3)")
        if not self.separations():
            raise ConfigError("no valid separations selected")
        return self

    def experiment(self) -> ExperimentConfig:
        return ExperimentConfig(
            n_photons=self.n_photons, seed=self.seed, p_d=self.p_d,
            q_x=self.q_x, q_y=self.q_y, q_z=self.q_z,
            p_sigma=self.p_sigma, p_zz=self.p_zz,
            burn_in=self.burn_in, tau_em=self.tau_em)

    def separations(self) -> Tuple[int, ...]:
        if self.l_values is not None:
            return self.l_values
        return tuple(certifiable_lengths(self.l_max))

    def templates(self) -> Tuple[Template, ...]:
        return tuple(make_template(family, l)
                     for family in self.families
                     for l in self.separations())


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
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS[key](value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from None
    return RunConfig(**values).validate()


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
        if f.name == "families":
            value = ",".join(value)
        elif f.name == "l_values":
            value = ",".join(str(v) for v in value)
        text = str(value)
        if "#" in text or text != text.strip() or len(text.splitlines()) > 1:
            raise ConfigError(f"{f.name} = {text!r} cannot be written to a config file")
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


def write_config(path: str, cfg: RunConfig) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_config(cfg))


def override(cfg: RunConfig, **updates) -> RunConfig:
    """Apply non-None keyword overrides and re-validate."""
    changes = {k: v for k, v in updates.items() if v is not None}
    return replace(cfg, **changes).validate()
