"""Training configuration and the key=value config-file loader."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class TrainConfig:
    """Checked when made: each field of its type, a float field finite and
    every value in its range; a ValueError names the first field at fault."""
    lr: float = 0.0005
    batch_size: int = 64
    epochs: int = 6
    clip_norm: float = 5.0
    anneal_factor: float = 0.2
    anneal_after_epoch: int = 5
    freeze_embedding_epochs: int = 2
    dropout_bilstm: float = 0.5
    dropout_linear: float = 0.7
    hidden_size: int = 200
    num_layers: int = 2
    seed: int = 0
    sentence_dim: int = 2304
    embedding_dim: int = 100
    # the projection before max-pooling is purely linear by default; this
    # flag switches in a tanh for comparison runs
    projection_tanh: bool = False

    def __post_init__(self):
        check_types(self)
        for name, kind in _FIELD_TYPES.items():
            if kind == "float" and not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        for name in ("epochs", "batch_size", "hidden_size", "num_layers", "embedding_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("dropout_bilstm", "dropout_linear"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        if self.clip_norm <= 0:
            raise ValueError(f"clip_norm must be positive, got {self.clip_norm}")
        if not 0.0 < self.anneal_factor <= 1.0:
            raise ValueError(f"anneal_factor must be in (0, 1], got {self.anneal_factor}")
        for name in ("anneal_after_epoch", "freeze_embedding_epochs", "seed", "sentence_dim"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    def replace(self, **kwargs) -> "TrainConfig":
        return dataclasses.replace(self, **kwargs)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data) -> "TrainConfig":
        """The inverse of ``to_dict``; absent keys keep their defaults, and an
        unknown key or a value that ``TrainConfig`` rejects is a ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"config must be a mapping, got {type(data).__name__}")
        unknown = sorted(set(data) - set(_FIELD_TYPES))
        if unknown:
            raise ValueError(f"unknown config keys {unknown}")
        return cls(**data)


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(TrainConfig)}

_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool}


def has_type(value, kind: str) -> bool:
    """Whether ``value`` may hold a field of type ``kind`` (a key of ``_TYPES``): a
    bool is no number, an int counts as a float, and a numpy integer is no int."""
    return isinstance(value, _TYPES[kind]) and isinstance(value, bool) == (kind == "bool")


def check_types(obj) -> None:
    """Raise a ValueError naming the first field of the dataclass ``obj``
    whose value may not hold its declared type (see :func:`has_type`)."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if not has_type(value, f.type):
            raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")


def _parse_value(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    if kind == "bool":
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ValueError(raw)
    if kind == "int":
        return int(raw)
    return float(raw)


def load_config(path) -> TrainConfig:
    """Read a key=value config file; unspecified keys keep their defaults, and
    a line whose value ``TrainConfig`` rejects names that line."""
    from .dataio import line_error, read_lines  # dataio imports this module

    config = TrainConfig()
    for lineno, line in read_lines(path):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise line_error(path, lineno, f"expected 'key = value', got {line.strip()!r}")
        key, _, raw = body.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _FIELD_TYPES:
            raise line_error(path, lineno, f"unknown config key {key!r}")
        try:
            value = _parse_value(key, raw)
        except ValueError:
            raise line_error(path, lineno, f"cannot parse value {raw!r} "
                             f"for key {key!r}") from None
        try:
            config = config.replace(**{key: value})
        except ValueError as err:
            raise line_error(path, lineno, str(err)) from None
    return config
