"""Shared error types with CLI exit-code semantics, and the finiteness check of config objects."""

import math
from dataclasses import fields


class ConfigError(Exception):
    """Invalid configuration (CLI exit code 2)."""


class InputError(Exception):
    """Fatal problem with input data (CLI exit code 1)."""


def require_finite(config) -> None:
    """Raise ConfigError if any float field of the dataclass ``config`` is NaN or infinite."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")
