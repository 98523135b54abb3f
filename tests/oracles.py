"""Brute-force reference implementations used to cross-check the engine.

Everything here is a deliberately literal, slow translation of the
aggregation formulas: filter-based grouping, one comprehension per sum,
and the final value computed as num / den / aspect_total (the engine
divides by the product instead).  Shared engine internals are off-limits
so the two sides stay independent.

The input readers get the same kind of check from :func:`bulk_and_rows`:
each bulk reader's oracle is the per-row loop it falls back on.
"""

from __future__ import annotations

import math
import random

from liquidrank import evaluate, ingest, store
from liquidrank.config import EngineConfig
from liquidrank.errors import RecordError
from liquidrank.model import Kind, RatingRecord, ReputationState, decode_input


def _rater_weight(rater: str, prev: dict[str, float], cfg: EngineConfig) -> float:
    return max(prev.get(rater, cfg.default_reputation), cfg.rater_weight_floor)


def _aspect_weight(aspect: str | None, cfg: EngineConfig) -> float:
    if aspect is None:
        return cfg.default_aspect_weight
    return cfg.aspect_weights.get(aspect, cfg.default_aspect_weight)


def _aspect_order(aspect: str | None) -> tuple:
    return (aspect is not None, aspect or "")


def log_normalized_oracle(weights: list[float]) -> list[float]:
    logs = [math.log10(1.0 + w) for w in weights]
    peak = max(logs)
    if peak == 0.0:
        return logs
    return [x / peak for x in logs]


def _grouped_mean(
    pairs: list[tuple[RatingRecord, float]],
    prev: dict[str, float],
    cfg: EngineConfig,
    aspect_weighted: bool,
) -> float | None:
    """Aggregate one group of (record, effective weight) pairs."""
    contributing = [
        (rec, w) for rec, w in pairs
        if w * _rater_weight(rec.rater, prev, cfg) != 0.0
    ]
    if not contributing:
        return None
    den = sum(w * _rater_weight(rec.rater, prev, cfg) for rec, w in contributing)
    if aspect_weighted:
        aspects = sorted({rec.aspect for rec, _ in contributing}, key=_aspect_order)
        num = 0.0
        for aspect in aspects:
            num += _aspect_weight(aspect, cfg) * sum(
                rec.value * w * _rater_weight(rec.rater, prev, cfg)
                for rec, w in contributing if rec.aspect == aspect
            )
        aspect_total = sum(_aspect_weight(a, cfg) for a in aspects)
        return num / den / aspect_total
    num = sum(
        rec.value * w * _rater_weight(rec.rater, prev, cfg)
        for rec, w in contributing
    )
    return num / den


def staked_oracle(
    records: list[RatingRecord],
    prev: dict[str, float],
    cfg: EngineConfig,
) -> dict[str, float]:
    live = [rec for rec in records if rec.value != 0.0]
    out = {}
    for ratee in sorted({rec.ratee for rec in live}):
        pairs = [(rec, rec.weight) for rec in live if rec.ratee == ratee]
        value = _grouped_mean(pairs, prev, cfg, aspect_weighted=True)
        if value is not None:
            out[ratee] = value
    return out


def transactional_oracle(
    records: list[RatingRecord],
    prev: dict[str, float],
    cfg: EngineConfig,
) -> dict[str, float]:
    if cfg.use_log_financial and records:
        weights = log_normalized_oracle([rec.weight for rec in records])
    else:
        weights = [rec.weight for rec in records]
    out = {}
    for ratee in sorted({rec.ratee for rec in records}):
        pairs = [
            (rec, weights[idx]) for idx, rec in enumerate(records)
            if rec.ratee == ratee
        ]
        value = _grouped_mean(pairs, prev, cfg, aspect_weighted=True)
        if value is not None:
            out[ratee] = value
    return out


def faceted_oracle(
    records: list[RatingRecord],
    prev: dict[str, float],
    cfg: EngineConfig,
) -> tuple[dict, dict, dict]:
    """Returns (by_category, by_aspect, by_aspect_category)."""
    if cfg.use_log_financial and records:
        weights = log_normalized_oracle([rec.weight for rec in records])
    else:
        weights = [rec.weight for rec in records]
    indexed = list(enumerate(records))

    def collect(key_fn, aspect_weighted):
        out = {}
        for key in {key_fn(rec) for _, rec in indexed}:
            pairs = [(rec, weights[idx]) for idx, rec in indexed if key_fn(rec) == key]
            value = _grouped_mean(pairs, prev, cfg, aspect_weighted=aspect_weighted)
            if value is not None:
                out[key] = value
        return out

    by_category = collect(lambda rec: (rec.ratee, rec.category), True)
    by_aspect = collect(lambda rec: (rec.ratee, rec.aspect), False)
    by_aspect_category = collect(
        lambda rec: (rec.ratee, rec.aspect, rec.category), False,
    )
    return by_category, by_aspect, by_aspect_category


def simplified_staked_oracle(
    records: list[RatingRecord],
    prev: dict[str, float],
    cfg: EngineConfig,
) -> dict[str, float]:
    """Aspect-free weighted mean: num = sum(S*Q*Rj), den = sum(Q*Rj)."""
    live = [rec for rec in records if rec.value != 0.0]
    out = {}
    for ratee in sorted({rec.ratee for rec in live}):
        mine = [
            rec for rec in live
            if rec.ratee == ratee
            and rec.weight * _rater_weight(rec.rater, prev, cfg) != 0.0
        ]
        if not mine:
            continue
        num = sum(
            rec.value * rec.weight * _rater_weight(rec.rater, prev, cfg)
            for rec in mine
        )
        den = sum(
            rec.weight * _rater_weight(rec.rater, prev, cfg) for rec in mine
        )
        out[ratee] = num / den
    return out


# --- random instance generation --------------------------------------------

ASPECTS = (None, "speed", "quality", "care")
CATEGORIES = (None, "cars", "food")


def random_instance(
    rng: random.Random,
    *,
    kinds: tuple[Kind, ...] = (Kind.STAKE, Kind.TRANSACTION),
    max_participants: int = 10,
    max_ratings: int = 50,
    with_aspects: bool = True,
    log_financial: bool | None = None,
) -> tuple[list[RatingRecord], ReputationState, EngineConfig]:
    n = rng.randint(2, max_participants)
    ids = [f"p{i}" for i in range(n)]
    prev_values = {}
    for pid in ids:
        roll = rng.random()
        if roll < 0.25:
            continue  # unknown participant, falls back to the default
        if roll < 0.35:
            prev_values[pid] = 0.0
        else:
            prev_values[pid] = rng.random()

    records = []
    for _ in range(rng.randint(1, max_ratings)):
        rater, ratee = rng.sample(ids, 2)
        value = 0.0 if rng.random() < 0.1 else rng.uniform(-1.0, 1.0)
        weight = 0.0 if rng.random() < 0.1 else rng.uniform(0.01, 5.0)
        records.append(RatingRecord(
            rater=rater,
            ratee=ratee,
            kind=rng.choice(kinds),
            value=value,
            weight=weight,
            aspect=rng.choice(ASPECTS) if with_aspects else None,
            category=rng.choice(CATEGORIES) if with_aspects else None,
            timestamp=rng.randint(0, 100),
        ))

    cfg = EngineConfig(
        default_reputation=rng.uniform(0.1, 0.9),
        aspect_weights={"speed": rng.uniform(0.5, 3.0), "quality": rng.uniform(0.5, 3.0)},
        default_aspect_weight=rng.uniform(0.5, 2.0),
        rater_weight_floor=rng.choice([0.0, 0.0, 0.1]),
        use_log_financial=rng.random() < 0.5 if log_financial is None else log_financial,
    )
    return records, ReputationState(at=0, values=prev_values), cfg


def assert_maps_close(actual: dict, expected: dict, rel: float = 1e-12) -> None:
    assert set(actual) == set(expected), (
        f"key mismatch: extra={set(actual) - set(expected)}, "
        f"missing={set(expected) - set(actual)}"
    )
    for key, want in expected.items():
        got = actual[key]
        assert math.isclose(got, want, rel_tol=rel, abs_tol=1e-15), (
            f"{key}: engine={got!r} oracle={want!r}"
        )


# -- the bulk input readers against their row loops ----------------------------


ASIDE = object()  # what a bulk path reads when it hands the text to its row loop

# Per input kind: its reader over file bytes, the patch that turns its bulk
# path off, so that the row loop reads every row, and the row loop itself.
_READERS = {
    "log": (
        lambda data: ingest.parse_log(decode_input(data), "csv"),
        (ingest, "_plain_records", lambda *columns: None),
        (ingest, "_parse_csv_rows"),
    ),
    "snapshot": (
        lambda data: store.deserialize_state(data).values,
        (store, "_plain_values", lambda text, body: None),
        (store, "_row_values"),
    ),
    "reference": (
        lambda data: evaluate.parse_reference_list(decode_input(data)),
        (evaluate, "_add_plain_labels", lambda labels, ids, raws: False),
        (evaluate, "_reference_rows"),
    ),
}


def bulk_and_rows(monkeypatch, kind: str, data: bytes) -> tuple[object, object]:
    """What the bulk path and the row loop of ``kind``'s reader make of ``data``.

    Each is the value read, or the text of the record error raised.  The
    bulk path's is ASIDE when it steps aside for the row loop; otherwise
    it must equal the row loop's, repr for repr, so in the same order.
    """
    read, bulk_off, (module, loop) = _READERS[kind]
    outcomes = []
    for patch in ((module, loop, lambda *args: ASIDE), bulk_off):
        with monkeypatch.context() as m:
            m.setattr(*patch)
            try:
                outcomes.append(read(data))
            except RecordError as exc:
                outcomes.append(f"error: {exc}")
    return outcomes[0], outcomes[1]
