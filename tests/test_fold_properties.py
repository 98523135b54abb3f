"""Property tests: a parsed log folds into snapshots that round-trip bit for bit.

Hypothesis draws small CSV logs; each is parsed, folded under every window
mode and config variant below, and every state the fold yields is encoded
and decoded again.  The runs are derandomized so the suite stays
reproducible.
"""

from __future__ import annotations

import csv
import io
import math

from hypothesis import given, settings
from hypothesis import strategies as st

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

_unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
_row = st.tuples(
    st.sampled_from(_IDS),
    st.sampled_from(_IDS),
    st.sampled_from(["stake", "transaction"]),
    st.sampled_from(["", "q", "s"]),
    st.sampled_from(["", "food"]),
    st.one_of(_unit, st.sampled_from([0.0, -0.0, 1.0, -1.0])),
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
    st.integers(min_value=0, max_value=40),
).filter(lambda row: row[0] != row[1])


def _csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for rater, ratee, kind, aspect, category, value, weight, ts in rows:
        writer.writerow([rater, ratee, kind, aspect, category, repr(value), repr(weight), "", ts])
    return buf.getvalue()


def _bits(values: dict[str, float]) -> dict[str, str]:
    return {pid: v.hex() for pid, v in values.items()}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rows=st.lists(_row, max_size=25))
def test_parse_fold_serialize_roundtrip(rows):
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
