"""Property tests: a parsed log folds into snapshots that round-trip bit for bit.

Forty small CSV logs drawn from a seeded ``random.Random``, and the empty
log, are each parsed, folded under every window mode and config variant
below, and every state the fold yields is encoded and decoded again.
Values and weights mix uniform draws with signed zeros, the extremes and
the smallest subnormal and normal doubles.
"""

from __future__ import annotations

import csv
import io
import math
import random

from liquidrank.config import EngineConfig
from liquidrank.engine import run_windows
from liquidrank.ingest import PerBlock, Periodic, parse_log, window_mode_from_spec
from liquidrank.store import deserialize_state, serialize_state

_IDS = ["a", "b", "c", "é", "\U0001f600", "x y"]
_MODES = [*map(window_mode_from_spec, ("whole", "tx")), PerBlock(3), Periodic(7)]
_CONFIGS = [
    EngineConfig(),
    EngineConfig(use_log_financial=True, use_log_differential=True),
    EngineConfig(aspect_weights={"q": 2.0, "s": 0.25}, blend_stake=0.2, blend_transaction=0.8),
]

_EDGE_VALUES = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324,
                2.2250738585072014e-308, -2.2250738585072014e-308]
_EDGE_WEIGHTS = [0.0, 5e-324, 1.0, 1e12]


def _row(rng):
    rater, ratee = rng.sample(_IDS, 2)
    value = rng.uniform(-1.0, 1.0) if rng.random() < 0.5 else rng.choice(_EDGE_VALUES)
    weight = rng.uniform(0.0, 1e12) if rng.random() < 0.5 else rng.choice(_EDGE_WEIGHTS)
    return (
        rater, ratee, rng.choice(["stake", "transaction"]), rng.choice(["", "q", "s"]),
        rng.choice(["", "food"]), value, weight, rng.randint(0, 40),
    )


def _logs():
    yield []
    rng = random.Random(29)
    for _ in range(40):
        yield [_row(rng) for _ in range(rng.randint(1, 25))]


def _csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for rater, ratee, kind, aspect, category, value, weight, ts in rows:
        writer.writerow([rater, ratee, kind, aspect, category, repr(value), repr(weight), "", ts])
    return buf.getvalue()


def _bits(values: dict[str, float]) -> dict[str, str]:
    return {pid: v.hex() for pid, v in values.items()}


def test_parse_fold_serialize_roundtrip():
    for rows in _logs():
        records = parse_log(_csv(rows))
        assert len(records) == len(rows)
        t_origin = min((rec.timestamp for rec in records), default=0)
        for mode in _MODES:
            for cfg in _CONFIGS:
                for _, state, _ in run_windows(records, mode, t_origin, cfg):
                    for v in state.values.values():
                        assert math.isfinite(v) and 0.0 <= v <= 1.0
                    data = serialize_state(state)
                    back = deserialize_state(data)
                    assert back.at == state.at
                    assert _bits(back.values) == _bits(state.values)
                    assert serialize_state(back) == data
