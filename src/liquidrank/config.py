"""Engine and consensus configuration and their flat key=value file format.

Config files are plain text, one ``key = value`` per line, ``#`` comments
and blank lines allowed.  Keys mirror the field names of the config
dataclasses; map-valued fields use dotted keys (``aspect_weight.speed``,
``agency_reputation.a01``).  Unknown keys are errors.  Both file kinds go
through one parser, and a config is checked once, when it is built.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from pathlib import Path
from types import MappingProxyType

from .errors import ConfigError
from .model import decode_input, text_lines


def check_reputation(name: str, value: float) -> None:
    """Reject a reputation that is not a finite number in [0, 1]."""
    if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
        raise ConfigError(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of the reputation computation.

    ``aspect_weights`` assigns relative importance to rating aspects;
    aspects not listed (including the absent aspect) fall back to
    ``default_aspect_weight``.  ``blend_stake`` and ``blend_transaction``
    weight the two differential kinds against each other; they may not both
    be zero, and their sum must be finite.  ``rater_weight_floor`` is the
    minimum effective reputation a rater exerts regardless of its stored
    value.
    """

    default_reputation: float = 0.5
    aspect_weights: Mapping[str, float] = field(default_factory=dict)
    default_aspect_weight: float = 1.0
    blend_stake: float = 1.0
    blend_transaction: float = 1.0
    use_log_financial: bool = False
    use_log_differential: bool = False
    decay_recent: float = 1.0
    decay_past: float = 1.0
    rater_weight_floor: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "aspect_weights", MappingProxyType(dict(self.aspect_weights)))
        check_reputation("default_reputation", self.default_reputation)
        for name in ("blend_stake", "blend_transaction", "decay_recent",
                     "decay_past", "rater_weight_floor", "default_aspect_weight"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ConfigError(f"{name} must be a finite number, got {v!r}")
        if self.blend_stake < 0.0 or self.blend_transaction < 0.0:
            raise ConfigError("blend weights must be non-negative")
        if self.blend_stake + self.blend_transaction <= 0.0:
            raise ConfigError("blend_stake and blend_transaction must not both be zero")
        if not math.isfinite(self.blend_stake + self.blend_transaction):
            raise ConfigError("blend_stake + blend_transaction must be finite")
        if self.decay_recent <= 0.0 or self.decay_past <= 0.0:
            raise ConfigError("decay coefficients must be positive")
        if self.rater_weight_floor < 0.0:
            raise ConfigError("rater_weight_floor must be non-negative")
        if self.default_aspect_weight <= 0.0:
            raise ConfigError("default_aspect_weight must be positive")
        for aspect, weight in self.aspect_weights.items():
            if not (math.isfinite(weight) and weight > 0.0):
                raise ConfigError(f"aspect weight for {aspect!r} must be positive, got {weight}")


@dataclass(frozen=True)
class ConsensusConfig:
    """Protocol thresholds.

    Without reputation weighting ``min_identical`` (the acceptance quorum)
    and ``max_nonidentical`` (the receipt cap) are whole counts; with
    ``por_weighted`` they are thresholds on sums of the sender reputations
    from ``agency_reputations`` (unknown senders weigh 1.0).  The node
    tests the cap only while every digest is below ``min_identical``, so
    today it never resolves a cycle.  ``timeout`` is measured in ticks
    since a node's first receipt of the cycle.
    """

    min_identical: float = 2
    max_nonidentical: float = 4
    timeout: int = 10
    por_weighted: bool = False
    agency_reputations: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        reputations = MappingProxyType(dict(self.agency_reputations))
        object.__setattr__(self, "agency_reputations", reputations)
        for name in ("min_identical", "max_nonidentical"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ConfigError(f"{name} must be a finite number, got {v!r}")
            if not self.por_weighted and v != int(v):
                raise ConfigError(f"{name} must be an integer without reputation weighting")
        if self.por_weighted:
            if not self.min_identical > 0:
                raise ConfigError("min_identical weight threshold must be positive")
            if not self.max_nonidentical > 0:
                raise ConfigError("max_nonidentical weight threshold must be positive")
        else:
            if self.min_identical < 2:
                raise ConfigError("min_identical must be at least 2")
            if self.max_nonidentical < 1:
                raise ConfigError("max_nonidentical must be at least 1")
        if self.timeout < 1:
            raise ConfigError("timeout must be at least 1 tick")
        for agency, rep in self.agency_reputations.items():
            check_reputation(f"agency reputation for {agency!r}", rep)


def parse_key_values(text: str) -> dict[str, str]:
    """Split flat config text into a key -> raw string map."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raw = raw.removesuffix("\n")
            raise ConfigError(f"expected 'key = value', got {raw!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", lineno)
        if key in out:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        out[key] = value
    return out


_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}

# Field annotation (a string under ``from __future__ import annotations``)
# -> converter of the raw value, and what the error says was expected.
_SCALARS = {
    "float": (float, "a number"),
    "int": (int, "an integer"),
    "bool": (lambda raw: _BOOLS[raw.lower()], "a boolean"),
}


def _convert(key: str, raw: str, annotation: str):
    convert, expected = _SCALARS[annotation]
    try:
        return convert(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{key}: expected {expected}, got {raw!r}") from None


def _load_config(cls, path: str | Path, kind: str, maps: dict[str, tuple[str, str]]):
    """Build a ``cls`` from a flat key=value file; building it runs its checks.

    ``maps`` sends a dotted key prefix to the float map field it fills and
    to the name of what follows the dot, for the error on a bare prefix.
    """
    scalars = {f.name: f.type for f in fields(cls) if f.type in _SCALARS}
    values: dict = {}
    text = decode_input(Path(path).read_bytes(), ConfigError)
    for key, raw in parse_key_values(text).items():
        prefix, dot, entry = key.partition(".")
        if dot and prefix in maps:
            map_field, entry_noun = maps[prefix]
            if not entry:
                raise ConfigError(f"{prefix}. key is missing the {entry_noun}")
            values.setdefault(map_field, {})[entry] = _convert(key, raw, "float")
        elif key in scalars:
            values[key] = _convert(key, raw, scalars[key])
        else:
            raise ConfigError(f"unknown {kind} config key {key!r}")
    return cls(**values)


def load_engine_config(path: str | Path) -> EngineConfig:
    """Build a validated :class:`EngineConfig` from a key=value file."""
    return _load_config(EngineConfig, path, "engine",
                        {"aspect_weight": ("aspect_weights", "aspect name")})


def load_consensus_config(path: str | Path) -> ConsensusConfig:
    """Build a validated :class:`ConsensusConfig` from a key=value file."""
    return _load_config(ConsensusConfig, path, "consensus",
                        {"agency_reputation": ("agency_reputations", "agency id")})
