"""A config runs its checks when it is built and cannot change afterwards."""

from __future__ import annotations

from dataclasses import FrozenInstanceError, replace

import pytest

from liquidrank.config import ConsensusConfig, EngineConfig
from liquidrank.errors import ConfigError


@pytest.mark.parametrize("cfg, field, map_field", [
    (EngineConfig(aspect_weights={"speed": 2.0}), "decay_past", "aspect_weights"),
    (ConsensusConfig(agency_reputations={"a00": 0.5}), "timeout", "agency_reputations"),
])
def test_built_config_cannot_change(cfg, field, map_field):
    with pytest.raises(FrozenInstanceError):
        setattr(cfg, field, 0)
    with pytest.raises(TypeError):
        getattr(cfg, map_field)["x"] = 0.0
    assert cfg == replace(cfg)


def test_config_does_not_share_the_map_it_was_built_from():
    weights = {"speed": 2.0}
    cfg = EngineConfig(aspect_weights=weights)
    weights["speed"] = -1.0
    weights["size"] = 0.0
    assert dict(cfg.aspect_weights) == {"speed": 2.0}


def test_replace_runs_the_checks_again():
    cfg = ConsensusConfig(min_identical=3, agency_reputations={"a00": 0.5})
    with pytest.raises(ConfigError, match="timeout must be at least 1 tick"):
        replace(cfg, timeout=0)
    with pytest.raises(ConfigError, match="must lie in"):
        replace(cfg, agency_reputations={"a00": 2.0})
    with pytest.raises(ConfigError, match="blend weights must be non-negative"):
        replace(EngineConfig(), blend_stake=-1.0)
    assert replace(cfg, timeout=4).agency_reputations == {"a00": 0.5}

