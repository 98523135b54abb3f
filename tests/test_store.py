"""Snapshot encoding and the snapshot file store."""

from __future__ import annotations

import random

import pytest

from liquidrank.config import EngineConfig
from liquidrank.engine import run_windows
from liquidrank.errors import (
    RecordError,
    SnapshotNotFoundError,
    StoreConflictError,
    StoreOrderingError,
)
from liquidrank.ingest import PerBlock, Periodic, window_mode_from_spec
from liquidrank.model import Kind, RatingRecord, ReputationState
from liquidrank.store import (
    LocalFileStore,
    deserialize_state,
    load_snapshot,
    serialize_state,
    state_digest,
)


def _state(at, values):
    return ReputationState(at=at, values=values)


# --- canonical encoding -------------------------------------------------

def test_serialize_layout_sorted_by_participant_bytes():
    data = serialize_state(_state(5, {"bob": 1.0, "alice": 0.25}))
    assert data == b"5\nalice,0.25\nbob,1.0\n"


def test_serialize_empty_state():
    assert serialize_state(_state(0, {})) == b"0\n"


def test_roundtrip_identity():
    rng = random.Random(77)
    # characters str.splitlines() breaks on are legal inside participant ids
    odd_ids = ["b\x0cx", "c\x1ey", "d\x85z", "e\u2028w"]
    # code-point order is UTF-8 byte order, across every encoded length
    wide_ids = ["z", "é", "éa", "\uffff", "\U0001f600", "a\U0001f600", "a\uffff"]
    for _ in range(200):
        values = {
            f"p{rng.randint(0, 999)}": rng.random() for _ in range(rng.randint(0, 15))
        }
        values.update((pid, rng.random()) for pid in rng.sample(odd_ids, rng.randint(0, 2)))
        state = _state(rng.randint(0, 10**9), values)
        data = serialize_state(state)
        crlf = data.replace(b"\n", b"\r\n")
        for encoded in (data, data[:-1], crlf, crlf[:-2], b"\xef\xbb\xbf" + crlf):
            back = deserialize_state(encoded)
            assert back.at == state.at
            assert back.values == state.values  # full precision
    data = serialize_state(_state(0, {pid: 0.5 for pid in wide_ids}))
    rows = data.decode("utf-8").split("\n")[1:-1]
    assert [row.rpartition(",")[0] for row in rows] == sorted(wide_ids, key=str.encode)


def test_shortest_roundtrip_decimal():
    state = _state(1, {"a": 0.1 + 0.2})
    assert b"0.30000000000000004" in serialize_state(state)


def test_deserialize_rejects_garbage():
    with pytest.raises(RecordError):
        deserialize_state(b"")
    with pytest.raises(RecordError):
        deserialize_state(b"not-a-timestamp\n")
    with pytest.raises(RecordError):
        deserialize_state(b"5\nnocomma\n")
    with pytest.raises(RecordError):
        deserialize_state(b"5\na,2.0\n")  # out of range
    with pytest.raises(RecordError):
        deserialize_state(b"5\na,0.5\na,0.6\n")  # duplicate
    with pytest.raises(RecordError, match="line 2"):
        deserialize_state(b"5\na\rb,0.5\n")  # an id no record may carry


@pytest.mark.parametrize("data, line", [
    (b"+5_0\np, 0.5 \nq,1_0e-1\r\n", 1),
    ("\u0665\np,0.5\n".encode(), 1),  # an Arabic-Indic five
    (b"05\n", 1), (b"-0\n", 1), (b" 5\n", 1), (b"5 \r\n", 1), (b"5\r", 1),
    (b"5\np,+0.5\n", 2), (b"5\np,1_0e-1\n", 2), (b"5\np, 0.5\n", 2), (b"5\np,0.5\t\n", 2),
    (b"5\np,0.5\r\r\n", 2), (b"5\np,0.5\r", 2), (b"5\np,0.5 ", 2),
    ("5\np,\u0660.5\n".encode(), 2), ("5\np,0.5\nq,0.5\u00a0\n".encode(), 3),
])
def test_deserialize_reads_numbers_only_as_serialized(data, line):
    # int() and float() accept every one of these numbers.
    with pytest.raises(RecordError, match=f"^line {line}: "):
        deserialize_state(data)


def test_digest_matches_for_equal_states_only():
    a = state_digest(_state(3, {"x": 0.5, "y": 0.25}))
    b = state_digest(_state(3, {"y": 0.25, "x": 0.5}))
    c = state_digest(_state(3, {"x": 0.5, "y": 0.75}))
    assert a == b
    assert a != c
    assert len(a) == 64


# --- store semantics -------------------------------------------------------

def test_put_get_roundtrip(tmp_path):
    store = LocalFileStore(tmp_path / "snaps")
    state = _state(10, {"a": 0.5, "b": 1.0})
    store.put(state)
    got = store.get(10)
    assert got.at == 10
    assert got.values == state.values


def test_put_out_of_order_rejected(tmp_path):
    store = LocalFileStore(tmp_path / "snaps")
    store.put(_state(10, {"a": 0.5}))
    with pytest.raises(StoreOrderingError):
        store.put(_state(5, {"a": 0.5}))


def test_put_conflict_rejected(tmp_path):
    store = LocalFileStore(tmp_path / "snaps")
    store.put(_state(10, {"a": 0.5}))
    with pytest.raises(StoreConflictError):
        store.put(_state(10, {"a": 0.75}))


def test_put_identical_is_noop(tmp_path):
    store = LocalFileStore(tmp_path / "snaps")
    store.put(_state(10, {"a": 0.5}))
    store.put(_state(10, {"a": 0.5}))
    assert store.latest().at == 10


def test_latest_on_empty_store(tmp_path):
    store = LocalFileStore(tmp_path / "snaps")
    with pytest.raises(SnapshotNotFoundError):
        store.latest()


def test_get_missing_timestamp(tmp_path):
    store = LocalFileStore(tmp_path / "snaps")
    store.put(_state(10, {"a": 0.5}))
    with pytest.raises(SnapshotNotFoundError):
        store.get(11)


def test_local_store_survives_restart(tmp_path):
    root = tmp_path / "snaps"
    store = LocalFileStore(root)
    state = _state(20, {"a": 0.125, "b": 0.875})
    store.put(state)
    before = (root / f"{20:020d}.csv").read_bytes()

    reopened = LocalFileStore(root)
    got = reopened.get(20)
    assert serialize_state(got) == before
    assert got.values == state.values
    assert reopened.latest().at == 20

    # the newest timestamp is found once, on open, from the snapshot names alone
    reopened.put(_state(30, {"a": 0.5}))
    (root / "notes.csv").write_text("not a snapshot\n")
    (root / "x.tmp").write_text("half written\n")
    (root / f"{50:020d}.csv.partial").write_text("50\na,0.5\n")  # a staged put, never published
    # a valid snapshot whose name int() reads but the store never writes
    (root / "40.csv").write_bytes(serialize_state(_state(40, {"a": 0.75})))
    third = LocalFileStore(root)
    assert third.latest().values == {"a": 0.5}
    # an ordering error if 40.csv or the staged file had been taken as newest
    third.put(_state(35, {"a": 0.5}))
    with pytest.raises(StoreOrderingError):
        third.put(_state(25, {"a": 0.5}))
    third.put(state)  # identical re-put of an older snapshot
    third.put(_state(30, {"a": 0.5}))
    with pytest.raises(StoreConflictError):
        third.put(_state(20, {"a": 0.25}))
    with pytest.raises(StoreConflictError):
        third.put(_state(30, {"a": 0.25}))
    assert third.latest().at == 35
    assert sorted(p.name for p in root.iterdir()) == [
        f"{20:020d}.csv", f"{30:020d}.csv", f"{35:020d}.csv", f"{50:020d}.csv.partial",
        "40.csv", "notes.csv", "x.tmp",
    ]


def test_load_snapshot_reads_file(tmp_path):
    root = tmp_path / "snaps"
    store = LocalFileStore(root)
    store.put(_state(7, {"z": 0.5}))
    got = load_snapshot(root / f"{7:020d}.csv")
    assert got.at == 7
    assert got.values == {"z": 0.5}


def test_backend_equivalence_random_sequences(tmp_path):
    """The store hands back exactly the canonical bytes of what was put."""
    rng = random.Random(13)
    for round_no in range(30):
        store = LocalFileStore(tmp_path / f"snaps{round_no}")
        states = {}
        for at in sorted(rng.sample(range(100), rng.randint(1, 8))):
            values = {f"p{i}": rng.random() for i in range(rng.randint(0, 5))}
            states[at] = _state(at, values)
            store.put(states[at])
        assert serialize_state(store.latest()) == serialize_state(states[max(states)])
        for at, state in states.items():
            assert store._read(at) == serialize_state(state)
            assert serialize_state(store.get(at)) == serialize_state(state)


def test_row_cache_matches_fresh_encoding(tmp_path):
    """A put re-renders only changed rows; the stored bytes must not show it."""
    ids = [f"p{i}" for i in range(10)] + ["é", "\U0001f600x", "z\uffff", "b\u2028"]
    rng = random.Random(2024)
    root = tmp_path / "snaps"
    store = LocalFileStore(root)
    values: dict[str, float] = {}
    stored: dict[int, bytes] = {}
    at = 0
    for _ in range(400):
        if stored and rng.random() < 0.1:
            # a rejected put, with an id added or dropped, then a good put
            bad = dict(values)
            if bad and rng.random() < 0.5:
                del bad[rng.choice(sorted(bad))]
            else:
                bad["intruder"] = rng.random()
            if rng.random() < 0.5:
                with pytest.raises(StoreConflictError):
                    store.put(_state(at, bad))
            else:
                with pytest.raises(StoreOrderingError):
                    store.put(_state(at - 1, bad))
        if rng.random() < 0.05:
            store = LocalFileStore(root)
        values = dict(values)  # as the engine does: untouched values keep their objects
        for pid in rng.sample(ids, rng.randint(0, 3)):
            values[pid] = rng.choice([rng.random(), 0.0, -0.0, 1.0])
        if values and rng.random() < 0.15:
            del values[rng.choice(sorted(values))]
        if values and rng.random() < 0.3:
            pid = rng.choice(sorted(values))
            fresh = float(repr(values[pid]))  # equal value, new object
            assert fresh is not values[pid]
            values[pid] = fresh
        zeros = sorted(pid for pid, v in values.items() if v == 0.0)
        if zeros and rng.random() < 0.5:
            pid = rng.choice(zeros)
            values[pid] = -values[pid]  # 0.0 <-> -0.0: equal, but the reprs differ
        at += 2
        state = _state(at, values)
        store.put(state)
        stored[at] = serialize_state(state)
        assert store._read(at) == stored[at]
    for stamp, data in stored.items():
        assert store._read(stamp) == data


# --- the touched set the engine hands to put -------------------------------

_IDS = [f"p{i}" for i in range(12)] + ["é", "\U0001f600x", "z\uffff", "b\u2028"]
_MODES = {"whole": window_mode_from_spec("whole"), "tx": window_mode_from_spec("tx"),
          "block": PerBlock(5), "period": Periodic(9)}
_CONFIGS = {
    "default": EngineConfig(),
    "log-aspect": EngineConfig(
        use_log_financial=True, use_log_differential=True,
        aspect_weights={"q": 2.0, "s": 0.25}, blend_stake=0.2, blend_transaction=0.8,
    ),
}


def _mixed_log(rng):
    records = []
    for _ in range(rng.randint(20, 120)):
        rater, ratee = rng.sample(_IDS, 2)
        records.append(RatingRecord(
            rater, ratee, rng.choice(list(Kind)),
            rng.choice([rng.uniform(-1.0, 1.0), 0.0, -0.0, 1.0, -1.0]),
            rng.choice([1.0, 0.0, rng.uniform(0.0, 50.0)]),
            aspect=rng.choice([None, "q", "s"]),
            category=rng.choice([None, "food"]),
            timestamp=rng.randint(0, 80),
        ))
    return records


def _stale_windows(root, records, mode, cfg, touched=dict.keys):
    """Fold into a new store, putting each state with ``touched(diff.normalized)``.

    Returns the windows whose written file differs from a fresh encoding.
    """
    store = LocalFileStore(root)
    stale = []
    for window, state, diff in run_windows(records, mode, 0, cfg):
        path = store.put(state, touched(diff.normalized))
        if path.read_bytes() != serialize_state(state):
            stale.append(window)
    return stale


@pytest.mark.parametrize("cfg", list(_CONFIGS.values()), ids=list(_CONFIGS))
@pytest.mark.parametrize("mode", list(_MODES.values()), ids=list(_MODES))
def test_touched_put_matches_fresh_encoding(tmp_path, mode, cfg):
    rng = random.Random(31)
    for n in range(15):
        assert _stale_windows(tmp_path / str(n), _mixed_log(rng), mode, cfg) == []


@pytest.mark.parametrize("mode", [_MODES["tx"], _MODES["block"], _MODES["period"]],
                         ids=["tx", "block", "period"])
def test_touched_check_sees_a_dropped_id(tmp_path, mode):
    # Leaving out one touched id leaves its old row in place, and the check
    # above must see that.  (A new id left out only costs a full render.)
    rng = random.Random(32)
    stale = 0
    for n in range(15):
        records = _mixed_log(rng)
        stale += len(_stale_windows(
            tmp_path / str(n), records, mode, _CONFIGS["default"],
            touched=lambda normalized: list(normalized)[1:],
        ))
    assert stale > 0


def test_put_after_a_rejected_put_renders_every_row(tmp_path):
    store = LocalFileStore(tmp_path / "snaps")
    store.put(_state(10, {"a": 0.5, "b": 0.5}))
    with pytest.raises(StoreConflictError):
        store.put(_state(10, {"a": 0.5, "b": 0.75}), ["b"])
    assert store.put(_state(20, {"a": 0.5, "b": 0.5, "c": 1.0}), ["c"]).read_bytes() == (
        b"20\na,0.5\nb,0.5\nc,1.0\n"
    )
    with pytest.raises(StoreOrderingError):
        store.put(_state(5, {"a": 0.25, "b": 0.5, "c": 1.0}), ["a"])
    assert store.put(_state(30, {"a": 0.5, "b": 0.5, "c": 1.0, "d": 0.0}), ["d"]).read_bytes() == (
        b"30\na,0.5\nb,0.5\nc,1.0\nd,0.0\n"
    )


@pytest.mark.parametrize("mode", [_MODES["tx"], _MODES["period"]], ids=["tx", "period"])
def test_touched_put_after_rejected_puts_matches_fresh_encoding(tmp_path, mode):
    rng = random.Random(33)
    for n in range(20):
        store = LocalFileStore(tmp_path / str(n))
        prev = None
        for _, state, diff in run_windows(_mixed_log(rng), mode, 0, _CONFIGS["log-aspect"]):
            if prev is not None and prev.values and rng.random() < 0.4:
                # the stored state with one value changed, at its own time (a
                # conflict) or before every stored one (an ordering error)
                pid = rng.choice(sorted(prev.values))
                bad = {**prev.values, pid: 0.25 if prev.values[pid] != 0.25 else 0.75}
                if rng.random() < 0.5:
                    with pytest.raises(StoreConflictError):
                        store.put(_state(prev.at, bad), [pid])
                else:
                    with pytest.raises(StoreOrderingError):
                        store.put(_state(-1, bad), [pid])
            path = store.put(state, diff.normalized)
            assert path.read_bytes() == serialize_state(state)
            prev = state
