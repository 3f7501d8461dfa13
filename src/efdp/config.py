"""Run configuration: a flat dataclass loadable from key=value text files."""

import math
import typing
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError, parse_file

# model dimensions, each a positive integer
DIMS = ("word_dim", "pos_dim", "vprime_dim", "sent_hidden", "sent_layers", "char_dim",
        "char_hidden", "char_layers", "tree_hidden", "label_dim", "mlp_hidden")


@dataclass
class Config:
    # paths
    train: Optional[str] = None
    test: Optional[str] = None
    pretrained: Optional[str] = None
    model: Optional[str] = None
    # feature flags
    use_char: bool = False
    use_pretrained: bool = False
    word_dropout: bool = False
    dropout_alpha: float = 0.25
    explore: bool = True  # follow the model's own choice past the margin
    # dimensions
    word_dim: int = 100
    pos_dim: int = 25
    vprime_dim: int = 150
    sent_hidden: int = 125
    sent_layers: int = 2
    char_dim: int = 100
    char_hidden: int = 100
    char_layers: int = 2
    tree_hidden: int = 100
    label_dim: int = 25
    mlp_hidden: int = 100
    # optimizer
    lr: float = 1e-3
    # training protocol
    seed: int = 1
    epochs: int = 15
    error_batch: int = 50  # update once accumulated errors exceed this
    test_size: Optional[int] = None  # hold out the last N sentences of train

    def validate(self) -> None:
        for name in DIMS:
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.error_batch < 1:
            raise ConfigError(f"error_batch must be >= 1, got {self.error_batch}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.test_size is not None and self.test_size < 0:
            raise ConfigError(f"test_size must be >= 0, got {self.test_size}")
        for name in ("lr", "dropout_alpha"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:  # also false for nan
                raise ConfigError(f"{name} must be finite and positive, got {value}")


_HINTS = typing.get_type_hints(Config)


def _coerce(name: str, raw: str):
    hint = _HINTS[name]
    if typing.get_origin(hint) is typing.Union:  # Optional[...]
        if raw.lower() in ("", "none"):
            return None
        hint = next(a for a in typing.get_args(hint) if a is not type(None))
    if hint is bool:
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{name}: expected true/false, got {raw!r}")
    if hint is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{name}: expected an integer, got {raw!r}") from None
    if hint is float:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{name}: expected a number, got {raw!r}") from None
    return raw


def parse_config(text: str) -> Config:
    """Parse `key = value` lines; `#` starts a comment, blank lines are skipped."""
    cfg = Config()
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _HINTS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        setattr(cfg, key, _coerce(key, value))
    return cfg


def load_config(path: str) -> Config:
    return parse_file(path, parse_config, ConfigError)
