"""Flat key=value run configuration with documented defaults."""

from __future__ import annotations

from dataclasses import dataclass, fields

from .data import AugmentSpec
from .errors import ConfigError
from .optim import TrainConfig

# every recognized key with its default; unknown keys are rejected
DEFAULTS: dict[str, str] = {
    "variant": "sa-re-dae",  # sa-re-dae | re-dae | max-only | avg-only
    "widths": "16,32",  # per-encoder channel widths
    **{f.name: str(f.default).lower() for spec in (TrainConfig, AugmentSpec) for f in fields(spec)},
}


def _parse(key: str, value: str, kind: type):
    """`value` as the type of `key`'s default."""
    if kind is bool:
        if value.lower() in ("true", "1", "yes"):
            return True
        if value.lower() in ("false", "0", "no"):
            return False
    else:
        try:
            return kind(value)
        except ValueError:
            pass
    raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}")


@dataclass
class RunConfig:
    values: dict[str, str]

    @staticmethod
    def from_file(path: str | None) -> "RunConfig":
        values = dict(DEFAULTS)
        if path is not None:
            with open(path) as f:
                for lineno, line in enumerate(f, 1):
                    line = line.split("#", 1)[0].strip()
                    if not line:
                        continue
                    if "=" not in line:
                        raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                    key, value = (t.strip() for t in line.split("=", 1))
                    if key not in DEFAULTS:
                        raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                    values[key] = value
        return RunConfig(values)

    def _build(self, spec):
        return spec(**{f.name: _parse(f.name, self.values[f.name], type(f.default))
                       for f in fields(spec)})

    def train_config(self) -> TrainConfig:
        return self._build(TrainConfig)

    def augment_spec(self) -> AugmentSpec:
        return self._build(AugmentSpec)

    @property
    def variant(self) -> str:
        return self.values["variant"]

    @property
    def widths(self) -> tuple[int, ...]:
        try:
            return tuple(int(t) for t in self.values["widths"].split(","))
        except ValueError:
            raise ConfigError(f"widths must be comma-separated ints, got "
                              f"{self.values['widths']!r}") from None
