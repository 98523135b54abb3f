"""Incremental reputation computation over windowed rating logs.

The engine folds one time window of ratings at a time into a running
reputation state.  Within a window each ratee gets a differential score:
a weighted mean of the rating values it received, where every rating is
backed by its financial weight times the current reputation of its rater.
Ratings that carry an aspect label are additionally weighted by the
configured aspect importance.  Staked and transactional differentials are
blended, optionally log-compressed to blunt winner-takes-all dynamics,
normalized to unit maximum magnitude across the window, and merged into
the prior state proportionally to elapsed time.

Per-window maps and the running state keep their participants in
first-seen order, which is deterministic for a given log.  The canonical
byte order of a snapshot is fixed by ``store.serialize_state`` alone, so a
given log and config still produce byte-identical serialized states on
every run.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, TypeVar

from .config import EngineConfig
from .errors import RecordError
from .model import (
    DifferentialReputation,
    FacetedDifferential,
    Kind,
    ParticipantId,
    RatingRecord,
    ReputationState,
    TimeWindow,
)

GroupKey = TypeVar("GroupKey")


def normalize_financial(weights: list[float]) -> list[float]:
    """Compress a batch of financial weights to [0, 1] on a log scale.

    Each weight w maps to log10(1 + w) divided by the batch maximum of the
    same quantity, so the largest weight maps to exactly 1.0.  An all-zero
    batch stays all zeros.  Negative weights are rejected.
    """
    if not weights:
        raise ValueError("normalize_financial needs a non-empty batch")
    for w in weights:
        if w < 0.0:
            raise RecordError(f"financial weight {w!r} must be non-negative")
    logs = [math.log10(1.0 + w) for w in weights]
    peak = max(logs)
    if peak == 0.0:
        return logs
    return [v / peak for v in logs]


def _rater_weight(rater: ParticipantId, prev: ReputationState, cfg: EngineConfig) -> float:
    return max(prev.values.get(rater, cfg.default_reputation), cfg.rater_weight_floor)


def _aspect_weight(aspect: str | None, cfg: EngineConfig) -> float:
    if aspect is None:
        return cfg.default_aspect_weight
    return cfg.aspect_weights.get(aspect, cfg.default_aspect_weight)


def _option_key(key):
    """Sort key that puts a None label before every string label."""
    if key is None:
        return (0, "")
    return (1, key)


def _weighted_means(
    records: list[RatingRecord],
    weights: list[float],
    prev: ReputationState,
    cfg: EngineConfig,
    group_key: Callable[[RatingRecord], GroupKey],
    *,
    aspect_weighted: bool = True,
) -> dict[GroupKey, float]:
    """Weighted-mean differentials per group.

    ``weights`` is parallel to ``records`` and holds the effective financial
    weight of each record.  Records whose backing (weight times rater
    reputation) is zero are skipped outright: they would contribute nothing
    to the sums, and skipping them also keeps a zero-reputation rater from
    widening the aspect-weight sum.  Aspects are summed in sorted order,
    which fixes the floating-point result.  A group whose backing total or
    mean overflows is a record error: its value would be meaningless.
    """
    groups: dict[GroupKey, list[int]] = {}
    for idx, rec in enumerate(records):
        groups.setdefault(group_key(rec), []).append(idx)

    out: dict[GroupKey, float] = {}
    for gkey, idxs in groups.items():
        value_sums: dict[str | None, float] = {}
        backing_total = 0.0
        for idx in idxs:
            rec = records[idx]
            backing = weights[idx] * _rater_weight(rec.rater, prev, cfg)
            if backing == 0.0:
                continue
            value_sums[rec.aspect] = value_sums.get(rec.aspect, 0.0) + rec.value * backing
            backing_total += backing
        if backing_total == 0.0:
            continue
        numerator = 0.0
        aspect_total = 0.0
        for aspect in sorted(value_sums, key=_option_key):
            h = _aspect_weight(aspect, cfg) if aspect_weighted else 1.0
            numerator += h * value_sums[aspect]
            aspect_total += h
        denominator = backing_total * aspect_total if aspect_weighted else backing_total
        mean = numerator / denominator
        if not (math.isfinite(denominator) and math.isfinite(mean)):
            raise RecordError(
                f"ratee {records[idxs[0]].ratee!r}: weighted mean overflows "
                f"in the window from t={prev.at}"
            )
        out[gkey] = mean
    return out


def _require_kind(records: Iterable[RatingRecord], kind: Kind) -> None:
    for rec in records:
        if rec.kind is not kind:
            raise RecordError(f"expected only {kind.value} records, got {rec.kind.value}")


def differential_staked(
    records: list[RatingRecord],
    prev: ReputationState,
    cfg: EngineConfig,
) -> dict[ParticipantId, float]:
    """Per-ratee differential from staked ratings in one window.

    A stake with value 0 is a revoked endorsement and is ignored.  Ratees
    whose ratings carry no backing at all are omitted from the result.
    """
    _require_kind(records, Kind.STAKE)
    live = [rec for rec in records if rec.value != 0.0]
    weights = [rec.weight for rec in live]
    return _weighted_means(live, weights, prev, cfg, lambda rec: rec.ratee)


def _transaction_weights(records: list[RatingRecord], cfg: EngineConfig) -> list[float]:
    raw = [rec.weight for rec in records]
    if cfg.use_log_financial and records:
        return normalize_financial(raw)
    return raw


def differential_transactional(
    records: list[RatingRecord],
    prev: ReputationState,
    cfg: EngineConfig,
) -> dict[ParticipantId, float]:
    """Per-ratee differential from transactional ratings in one window.

    With ``use_log_financial`` the transaction weights are first compressed
    with :func:`normalize_financial` over the whole window batch.
    """
    _require_kind(records, Kind.TRANSACTION)
    weights = _transaction_weights(records, cfg)
    return _weighted_means(records, weights, prev, cfg, lambda rec: rec.ratee)


def blend(
    staked: dict[ParticipantId, float],
    transactional: dict[ParticipantId, float],
    cfg: EngineConfig,
) -> dict[ParticipantId, float]:
    """Combine the two differential kinds per participant.

    Participants present in only one input map are blended over the
    components they actually have, so a one-sided participant keeps its
    single differential unscaled.
    """
    s, f = cfg.blend_stake, cfg.blend_transaction
    out: dict[ParticipantId, float] = {}
    for pid in {**staked, **transactional}:
        numerator = 0.0
        denominator = 0.0
        if pid in staked:
            numerator += s * staked[pid]
            denominator += s
        if pid in transactional:
            numerator += f * transactional[pid]
            denominator += f
        if denominator > 0.0:
            out[pid] = numerator / denominator
    return out


def log_differential(values: dict[ParticipantId, float]) -> dict[ParticipantId, float]:
    """Sign-preserving log compression: v -> sign(v) * log10(1 + |v|)."""
    return {
        pid: math.copysign(math.log10(1.0 + abs(v)), v)
        for pid, v in values.items()
    }


def normalize_window(values: dict[ParticipantId, float]) -> dict[ParticipantId, float]:
    """Scale a differential map so the largest magnitude becomes 1.

    An empty or all-zero map is returned unchanged (as a copy).
    """
    peak = max((abs(v) for v in values.values()), default=0.0)
    if peak == 0.0:
        return dict(values)
    return {pid: v / peak for pid, v in values.items()}


def update_state(
    prev: ReputationState,
    normalized: dict[ParticipantId, float],
    window: TimeWindow,
    cfg: EngineConfig,
) -> ReputationState:
    """Merge one window's normalized differentials into the running state.

    The prior value and the window differential are averaged with weights
    proportional to the time spans they cover (prior: t_prev - t_origin,
    window: t_now - t_prev), each scaled by its decay coefficient.  In the
    first window the prior span is zero, so the differential is taken
    directly.  Participants without a differential keep their value; new
    participants start from ``cfg.default_reputation``.  Results are
    clamped to [0, 1] on store; a NaN is a record error, never clamped, and
    so is a window whose time weights do not fit in a float.
    """
    if prev.at != window.t_prev:
        raise ValueError(
            f"state is at {prev.at} but window starts at {window.t_prev}"
        )
    try:
        w_past = cfg.decay_past * (window.t_prev - window.t_origin)
        w_recent = cfg.decay_recent * (window.t_now - window.t_prev)
    except OverflowError:  # a time span too large for a float
        w_past = w_recent = math.inf
    if not math.isfinite(w_past + w_recent):
        raise RecordError(
            f"window from t={window.t_prev} to t={window.t_now}: "
            f"its time weights overflow (origin t={window.t_origin})"
        )
    new_values = dict(prev.values)
    for pid, target in normalized.items():
        if w_past == 0.0:
            merged = target
        elif w_recent == 0.0:
            merged = prev.values.get(pid, cfg.default_reputation)
        else:
            base = prev.values.get(pid, cfg.default_reputation)
            merged = (w_past * base + w_recent * target) / (w_past + w_recent)
        if math.isnan(merged):
            raise RecordError(
                f"ratee {pid!r}: reputation is not a number in the window ending at t={window.t_now}"
            )
        new_values[pid] = min(1.0, max(0.0, merged))
    return ReputationState(at=window.t_now, values=new_values)


def faceted_differentials(
    records: list[RatingRecord],
    window: TimeWindow,
    prev: ReputationState,
    cfg: EngineConfig,
) -> FacetedDifferential:
    """Transactional differentials split by category and aspect.

    ``by_category`` aggregates over aspects with aspect weighting inside
    each (ratee, category) group; ``by_aspect`` and ``by_aspect_category``
    are plain weighted means of their groups.  Rater weighting and the
    optional log compression of financial weights match
    :func:`differential_transactional`.
    """
    _require_kind(records, Kind.TRANSACTION)
    weights = _transaction_weights(records, cfg)
    by_category = _weighted_means(
        records, weights, prev, cfg,
        lambda rec: (rec.ratee, rec.category),
    )
    by_aspect = _weighted_means(
        records, weights, prev, cfg,
        lambda rec: (rec.ratee, rec.aspect),
        aspect_weighted=False,
    )
    by_aspect_category = _weighted_means(
        records, weights, prev, cfg,
        lambda rec: (rec.ratee, rec.aspect, rec.category),
        aspect_weighted=False,
    )
    return FacetedDifferential(
        window=window,
        by_category=by_category,
        by_aspect=by_aspect,
        by_aspect_category=by_aspect_category,
    )


def run_pipeline(
    records: list[RatingRecord],
    window: TimeWindow,
    prev: ReputationState,
    cfg: EngineConfig,
) -> tuple[ReputationState, DifferentialReputation]:
    """Run the full per-window computation and return the updated state.

    An empty window leaves all values unchanged and only advances the
    state timestamp.
    """
    stakes = [rec for rec in records if rec.kind is Kind.STAKE]
    transactions = [rec for rec in records if rec.kind is Kind.TRANSACTION]
    staked = differential_staked(stakes, prev, cfg)
    transactional = differential_transactional(transactions, prev, cfg)
    blended = blend(staked, transactional, cfg)
    log_blended = log_differential(blended) if cfg.use_log_differential else None
    normalized = normalize_window(blended if log_blended is None else log_blended)
    state = update_state(prev, normalized, window, cfg)
    diff = DifferentialReputation(
        window=window,
        staked=staked,
        transactional=transactional,
        blended=blended,
        normalized=normalized,
        log_blended=log_blended,
    )
    return state, diff


def run_windows(
    records: list[RatingRecord],
    mode,
    t_origin: int,
    cfg: EngineConfig,
) -> Iterator[tuple[TimeWindow, ReputationState, DifferentialReputation]]:
    """Partition a log and fold every window through the pipeline.

    The fold starts from an empty state at ``t_origin``.
    """
    from .ingest import partition

    state = ReputationState(at=t_origin, values={})
    for window, chunk in partition(records, mode, t_origin):
        state, diff = run_pipeline(chunk, window, state, cfg)
        yield window, state, diff
