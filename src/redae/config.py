"""Flat key=value run configuration with documented defaults."""

from __future__ import annotations

from dataclasses import dataclass

from .data import AugmentSpec
from .errors import ConfigError
from .optim import TrainConfig

# every recognized key with its default; unknown keys are rejected
DEFAULTS: dict[str, str] = {
    "variant": "sa-re-dae",  # sa-re-dae | re-dae | max-only | avg-only
    "widths": "16,32",  # per-encoder channel widths
    "learning_rate": "0.0001",
    "momentum": "0.9",
    "batch_size": "2",
    "epochs": "30",
    "seed": "0",
    "shuffle": "true",
    "log_every": "50",
    "val_fraction": "0.1",
    "rotation_deg": "10",
    "scale_min": "0.5",
    "scale_max": "1.0",
    "flip_horizontal": "true",
    "flip_vertical": "true",
}


def _parse_bool(key: str, value: str) -> bool:
    if value.lower() in ("true", "1", "yes"):
        return True
    if value.lower() in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


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

    def train_config(self) -> TrainConfig:
        v = self.values
        try:
            return TrainConfig(learning_rate=float(v["learning_rate"]),
                               momentum=float(v["momentum"]),
                               batch_size=int(v["batch_size"]),
                               epochs=int(v["epochs"]),
                               seed=int(v["seed"]),
                               shuffle=_parse_bool("shuffle", v["shuffle"]),
                               log_every=int(v["log_every"]),
                               val_fraction=float(v["val_fraction"]))
        except ValueError as e:
            raise ConfigError(f"invalid training value: {e}") from None

    def augment_spec(self) -> AugmentSpec:
        v = self.values
        try:
            return AugmentSpec(rotation_deg=float(v["rotation_deg"]),
                               scale_min=float(v["scale_min"]),
                               scale_max=float(v["scale_max"]),
                               flip_horizontal=_parse_bool("flip_horizontal", v["flip_horizontal"]),
                               flip_vertical=_parse_bool("flip_vertical", v["flip_vertical"]))
        except ValueError as e:
            raise ConfigError(f"invalid augmentation value: {e}") from None

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
