"""Rating-based reputation engine with windowed recomputation.

The package computes participant reputations incrementally from a log of
rated interactions, persists the resulting states as canonical snapshots,
simulates how independent agencies agree on those snapshots, and scores
computed reputations against labeled references.
"""

from .config import (
    ConsensusConfig,
    EngineConfig,
    engine_config_from_text,
    load_engine_config,
)
from .consensus import (
    AgencyDecision,
    AgencyNode,
    Alert,
    NetworkModel,
    Outcome,
    SimulationResult,
    StateDigest,
    mining_reward,
    run_simulation,
)
from .engine import (
    blend,
    differential_staked,
    differential_transactional,
    faceted_differentials,
    log_differential,
    normalize_financial,
    normalize_window,
    run_pipeline,
    run_windows,
    update_state,
)
from .errors import (
    ConfigError,
    CorrelationUndefinedError,
    LiquidRankError,
    RecordError,
    SnapshotNotFoundError,
    StoreConflictError,
    StoreError,
    StoreOrderingError,
)
from .evaluate import DistributionStats, distribution_stats, pearson
from .ingest import (
    PerBlock,
    PerTransaction,
    Periodic,
    WholeHistory,
    load_log,
    parse_log,
    partition,
    window_mode_from_spec,
)
from .model import (
    DifferentialReputation,
    FacetedDifferential,
    Kind,
    RatingRecord,
    ReputationState,
    TimeWindow,
)
from .store import (
    LocalFileStore,
    deserialize_state,
    load_snapshot,
    serialize_state,
    state_digest,
)

__version__ = "0.1.0"

__all__ = [
    "AgencyDecision",
    "AgencyNode",
    "Alert",
    "ConfigError",
    "ConsensusConfig",
    "CorrelationUndefinedError",
    "DifferentialReputation",
    "DistributionStats",
    "EngineConfig",
    "FacetedDifferential",
    "Kind",
    "LiquidRankError",
    "LocalFileStore",
    "NetworkModel",
    "Outcome",
    "PerBlock",
    "PerTransaction",
    "Periodic",
    "RatingRecord",
    "RecordError",
    "ReputationState",
    "SimulationResult",
    "SnapshotNotFoundError",
    "StateDigest",
    "StoreConflictError",
    "StoreError",
    "StoreOrderingError",
    "TimeWindow",
    "WholeHistory",
    "blend",
    "deserialize_state",
    "differential_staked",
    "differential_transactional",
    "distribution_stats",
    "engine_config_from_text",
    "faceted_differentials",
    "load_engine_config",
    "load_log",
    "load_snapshot",
    "log_differential",
    "mining_reward",
    "normalize_financial",
    "normalize_window",
    "parse_log",
    "partition",
    "pearson",
    "run_pipeline",
    "run_simulation",
    "run_windows",
    "serialize_state",
    "state_digest",
    "update_state",
    "window_mode_from_spec",
]
