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

``run_pipeline`` folds a window's records in ratee order: a stable sort
keeps each ratee's records in their log order, so every sum is the same
as in log order, and every per-window map comes out in ratee order, the
order the snapshot rows and the sorted audit keys use.  The running state
keeps its participants in first-seen order.  The canonical byte order of
a snapshot is fixed by ``store.serialize_state`` alone, so a given log and
config produce byte-identical serialized states on every run.
"""

from __future__ import annotations

import math
from operator import attrgetter
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
_BY_RATEE = attrgetter("ratee")


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
    widening the aspect-weight sum.  A group whose aspect-weighted backing
    underflows to zero is skipped too.  One pass sums each group in record
    order, and groups come out in the order of their first backed record.
    Aspects are summed in sorted order, which fixes the floating-point
    result.  A group whose backing total or mean overflows is a record
    error: its value would be meaningless.
    """
    reputation = prev.values.get
    default = cfg.default_reputation
    floor = cfg.rater_weight_floor
    totals: dict[GroupKey, float] = {}
    sums: dict[GroupKey, dict[str | None, float]] = {}  # per group, per aspect
    for rec, weight in zip(records, weights):
        rep = reputation(rec.rater, default)
        backing = weight * (floor if floor > rep else rep)
        if backing == 0.0:
            continue
        key = group_key(rec)
        by_aspect = sums.get(key)
        if by_aspect is None:
            sums[key] = by_aspect = {}
            totals[key] = 0.0
        aspect = rec.aspect
        by_aspect[aspect] = by_aspect.get(aspect, 0.0) + rec.value * backing
        totals[key] += backing

    out: dict[GroupKey, float] = {}
    for key, by_aspect in sums.items():
        numerator = 0.0
        aspect_total = 0.0
        aspects = by_aspect if len(by_aspect) == 1 else sorted(by_aspect, key=_option_key)
        for aspect in aspects:
            h = _aspect_weight(aspect, cfg) if aspect_weighted else 1.0
            numerator += h * by_aspect[aspect]
            aspect_total += h
        denominator = totals[key] * aspect_total if aspect_weighted else totals[key]
        if denominator == 0.0:  # a subnormal backing times aspect weights below 1
            continue
        mean = numerator / denominator
        if not (math.isfinite(denominator) and math.isfinite(mean)):
            ratee = next(rec.ratee for rec in records if group_key(rec) == key)
            raise RecordError(
                f"ratee {ratee!r}: weighted mean overflows in the window from t={prev.at}"
            )
        out[key] = mean
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

    A stake counts only in its own window; a zero one contributes nothing and
    revokes no earlier stake (ROADMAP item 10).  Unbacked ratees are omitted.
    """
    _require_kind(records, Kind.STAKE)
    live = [rec for rec in records if rec.value != 0.0]
    weights = [rec.weight for rec in live]
    return _weighted_means(live, weights, prev, cfg, _BY_RATEE)


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
    return _weighted_means(records, weights, prev, cfg, _BY_RATEE)


def blend(
    staked: dict[ParticipantId, float],
    transactional: dict[ParticipantId, float],
    cfg: EngineConfig,
) -> dict[ParticipantId, float]:
    """Combine the two differential kinds per participant, in ratee order.

    Participants present in only one input map are blended over the
    components they actually have, so a one-sided participant keeps its
    single differential exactly (a -0.0 becomes 0.0), as long as that
    kind's blend weight is not zero.
    """
    s, f = cfg.blend_stake, cfg.blend_transaction
    out: dict[ParticipantId, float] = {}
    for pid in sorted({**staked, **transactional}):
        a = staked.get(pid)
        b = transactional.get(pid)
        if b is None:
            if s > 0.0:
                out[pid] = 0.0 + a
        elif a is None:
            if f > 0.0:
                out[pid] = 0.0 + b
        else:
            out[pid] = (0.0 + s * a + f * b) / (s + f)
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
    directly.  Only ``normalized``'s ids change: participants without a
    differential keep their value, and new participants start from
    ``cfg.default_reputation``.  Results are clamped to [0, 1] on store; a
    NaN is a record error, never clamped, and so is a window whose time
    weights do not fit in a float.
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
    prior = prev.values.get
    default = cfg.default_reputation
    w_total = w_past + w_recent
    new_values = dict(prev.values)
    for pid, target in normalized.items():
        if w_past == 0.0:
            merged = target
        elif w_recent == 0.0:
            merged = prior(pid, default)
        else:
            merged = (w_past * prior(pid, default) + w_recent * target) / w_total
        if math.isnan(merged):
            raise RecordError(
                f"ratee {pid!r}: reputation is not a number in the window ending at t={window.t_now}"
            )
        # The clamp maps -0.0 to 0.0, and an int 0 or 1 to a float.
        new_values[pid] = merged if 0.0 < merged < 1.0 else (1.0 if merged > 0.0 else 0.0)
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
        attrgetter("ratee", "category"),
    )
    by_aspect = _weighted_means(
        records, weights, prev, cfg,
        attrgetter("ratee", "aspect"),
        aspect_weighted=False,
    )
    by_aspect_category = _weighted_means(
        records, weights, prev, cfg,
        attrgetter("ratee", "aspect", "category"),
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

    The records are folded in ratee order (see the module docstring), so
    the result does not depend on how a log interleaves its ratees.  An
    empty window leaves all values unchanged and only advances the state
    timestamp.
    """
    records = sorted(records, key=_BY_RATEE)
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
