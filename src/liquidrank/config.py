"""Engine and consensus configuration and their flat key=value file format.

Config files are plain text, one ``key = value`` per line, ``#`` comments
and blank lines allowed.  Keys mirror the field names of the config
dataclasses; map-valued fields use dotted keys (``aspect_weight.speed``,
``agency_reputation.a01``).  Unknown keys are errors.  Both file kinds go
through one parser, and each loaded config is validated once, on load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError
from .model import decode_input


def check_reputation(name: str, value: float) -> None:
    """Reject a reputation that is not a finite number in [0, 1]."""
    if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
        raise ConfigError(f"{name} must lie in [0, 1], got {value!r}")


@dataclass
class EngineConfig:
    """Knobs of the reputation computation.

    ``aspect_weights`` assigns relative importance to rating aspects;
    aspects not listed (including the absent aspect) fall back to
    ``default_aspect_weight``.  ``blend_stake`` and ``blend_transaction``
    weight the two differential kinds against each other and may not both
    be zero.  ``rater_weight_floor`` is the minimum effective reputation a
    rater exerts regardless of its stored value.
    """

    default_reputation: float = 0.5
    aspect_weights: dict[str, float] = field(default_factory=dict)
    default_aspect_weight: float = 1.0
    blend_stake: float = 1.0
    blend_transaction: float = 1.0
    use_log_financial: bool = False
    use_log_differential: bool = False
    decay_recent: float = 1.0
    decay_past: float = 1.0
    rater_weight_floor: float = 0.0

    def validate(self) -> None:
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
        if self.decay_recent <= 0.0 or self.decay_past <= 0.0:
            raise ConfigError("decay coefficients must be positive")
        if self.rater_weight_floor < 0.0:
            raise ConfigError("rater_weight_floor must be non-negative")
        if self.default_aspect_weight <= 0.0:
            raise ConfigError("default_aspect_weight must be positive")
        for aspect, weight in self.aspect_weights.items():
            if not (math.isfinite(weight) and weight > 0.0):
                raise ConfigError(f"aspect weight for {aspect!r} must be positive, got {weight}")


@dataclass
class ConsensusConfig:
    """Protocol thresholds.

    Without reputation weighting ``min_identical`` (the acceptance quorum)
    and ``max_nonidentical`` (the receipt cap) are whole counts; with
    ``por_weighted`` they are thresholds on sums of the sender reputations
    from ``agency_reputations`` (unknown senders weigh 1.0).  The node
    tests the cap only while every digest is below ``min_identical``, so
    today it never resolves a cycle (ROADMAP item 8).  ``timeout`` is
    measured in ticks since a node's first receipt of the cycle.
    """

    min_identical: float = 2
    max_nonidentical: float = 4
    timeout: int = 10
    por_weighted: bool = False
    agency_reputations: dict[str, float] = field(default_factory=dict)

    def validate(self) -> None:
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
    # Lines end at "\n" only, as in logs and snapshots: a key may hold any
    # other character str.splitlines() breaks on.
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
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


def _config_from_text(cfg, text: str, kind: str, maps: dict[str, tuple[str, str]]):
    """Fill ``cfg`` from flat key=value text, then validate it.

    ``maps`` sends a dotted key prefix to the float map field it fills and
    to the name of what follows the dot, for the error on a bare prefix.
    """
    scalars = {f.name: f.type for f in fields(cfg) if f.type in _SCALARS}
    for key, raw in parse_key_values(text).items():
        prefix, dot, entry = key.partition(".")
        if dot and prefix in maps:
            map_field, entry_noun = maps[prefix]
            if not entry:
                raise ConfigError(f"{prefix}. key is missing the {entry_noun}")
            getattr(cfg, map_field)[entry] = _convert(key, raw, "float")
        elif key in scalars:
            setattr(cfg, key, _convert(key, raw, scalars[key]))
        else:
            raise ConfigError(f"unknown {kind} config key {key!r}")
    cfg.validate()
    return cfg


def engine_config_from_text(text: str) -> EngineConfig:
    """Build a validated :class:`EngineConfig` from flat key=value text."""
    return _config_from_text(
        EngineConfig(), text, "engine", {"aspect_weight": ("aspect_weights", "aspect name")},
    )


def load_engine_config(path: str | Path) -> EngineConfig:
    return engine_config_from_text(decode_input(Path(path).read_bytes(), ConfigError))


def load_consensus_config(path: str | Path) -> ConsensusConfig:
    """Build a validated :class:`ConsensusConfig` from a key=value file."""
    return _config_from_text(
        ConsensusConfig(), decode_input(Path(path).read_bytes(), ConfigError), "consensus",
        {"agency_reputation": ("agency_reputations", "agency id")},
    )
