"""Log parsing and window partitioning."""

from __future__ import annotations

import json
import random
import sys

import pytest

from liquidrank.errors import ConfigError, RecordError
from liquidrank.ingest import (
    PerBlock,
    Periodic,
    load_log,
    parse_log,
    partition,
    window_mode_from_spec,
)
from liquidrank.model import Kind, RatingRecord, TimeWindow


def _rec(rater, ratee, t, kind=Kind.TRANSACTION, value=0.5):
    return RatingRecord(rater=rater, ratee=ratee, kind=kind, value=value, timestamp=t)


# --- parse_log ----------------------------------------------------------

def test_csv_direct_field_mapping():
    line = "alice,bob,transaction,,,-1.0,10,e1,100\n"
    records = parse_log(line, "csv")
    assert len(records) == 1
    rec = records[0]
    assert rec.rater == "alice"
    assert rec.ratee == "bob"
    assert rec.kind is Kind.TRANSACTION
    assert rec.aspect is None
    assert rec.category is None
    assert rec.value == -1.0
    assert rec.weight == 10.0
    assert rec.event == "e1"
    assert rec.timestamp == 100


def test_csv_empty_file_is_empty_list():
    assert parse_log("", "csv") == []


def test_csv_all_optional_fields_present():
    line = "a,b,stake,speed,cars,0.25,2.5,ev9,7\n"
    rec = parse_log(line, "csv")[0]
    assert rec.kind is Kind.STAKE
    assert rec.aspect == "speed"
    assert rec.category == "cars"
    assert rec.weight == 2.5


def test_csv_missing_weight_defaults_to_unit():
    rec = parse_log("a,b,stake,,,1.0,,,0\n", "csv")[0]
    assert rec.weight == 1.0


def test_csv_self_rating_rejected_with_line_number():
    text = "a,b,stake,,,1.0,1,,0\nbob,bob,stake,,,1.0,1,,0\n"
    with pytest.raises(RecordError) as err:
        parse_log(text, "csv")
    assert "line 2" in str(err.value)
    assert "bob" in str(err.value)


def test_csv_value_out_of_range_rejected():
    with pytest.raises(RecordError) as err:
        parse_log("a,b,stake,,,1.5,1,,0\n", "csv")
    assert "line 1" in str(err.value)


def test_csv_wrong_column_count():
    with pytest.raises(RecordError) as err:
        parse_log("a,b,stake,,,1.0,1,0\n", "csv")
    assert "columns" in str(err.value)


def test_csv_bad_kind_and_bad_numbers():
    with pytest.raises(RecordError):
        parse_log("a,b,like,,,1.0,1,,0\n", "csv")
    with pytest.raises(RecordError):
        parse_log("a,b,stake,,,abc,1,,0\n", "csv")
    with pytest.raises(RecordError):
        parse_log("a,b,stake,,,1.0,x,,0\n", "csv")
    with pytest.raises(RecordError):
        parse_log("a,b,stake,,,1.0,1,,1.5\n", "csv")


def test_csv_negative_weight_rejected():
    with pytest.raises(RecordError):
        parse_log("a,b,stake,,,1.0,-3,,0\n", "csv")
    for weight in ("inf", "nan"):
        with pytest.raises(RecordError) as err:
            parse_log(f"a,b,transaction,,,0.5,{weight},,1\n", "csv")
        assert "line 1" in str(err.value)


def test_parse_log_unknown_format():
    with pytest.raises(ConfigError):
        parse_log("", "xml")


def test_jsonl_roundtrip_and_defaults():
    text = (
        '{"rater": "a", "ratee": "b", "kind": "stake", "value": 1.0, "timestamp": 3}\n'
        '\n'
        '{"rater": "a", "ratee": "c", "kind": "transaction", "value": -0.5,'
        ' "weight": 9, "aspect": "speed", "category": null, "event": "e2",'
        ' "timestamp": 4}\n'
    )
    records = parse_log(text, "jsonl")
    assert len(records) == 2
    assert records[0].weight == 1.0
    assert records[0].aspect is None
    assert records[1].aspect == "speed"
    assert records[1].category is None
    assert records[1].weight == 9.0
    # a raw U+2028 is legal inside a JSON string and does not end the line
    odd = parse_log('{"rater": "a", "ratee": "b\u2028c", "kind": "stake", "value": 1, "timestamp": 5}\n', "jsonl")
    assert odd[0].ratee == "b\u2028c"


def test_jsonl_error_line_numbers():
    good = '{"rater": "a", "ratee": "b", "kind": "stake", "value": 1.0, "timestamp": 0}\n'
    for bad in (
        "not json",
        '{"rater": 5, "ratee": "b", "kind": "stake", "value": 1.0, "timestamp": 0}',
        '{"rater": "a", "ratee": "b", "kind": "stake", "value": true, "timestamp": 0}',
        '{"rater": "a", "ratee": "b", "kind": "stake", "value": 1.0, "timestamp": 1.9}',
        '{"rater": "a", "ratee": "b", "kind": "stake", "value": 1' + "0" * 400 + ', "timestamp": 0}',
        # a lone surrogate does not encode as UTF-8, so no snapshot could hold it
        '{"rater":"a","ratee":"\\ud800x","kind":"transaction","value":0.5,"timestamp":1}',
    ):
        with pytest.raises(RecordError) as err:
            parse_log(good + bad + "\n", "jsonl")
        assert "line 2" in str(err.value)


def test_jsonl_unknown_field_rejected():
    with pytest.raises(RecordError) as err:
        parse_log('{"rater": "a", "ratee": "b", "kind": "stake", "value": 1, "timestamp": 0, "mood": 3}\n', "jsonl")
    assert "mood" in str(err.value)


def test_jsonl_missing_required_field():
    with pytest.raises(RecordError) as err:
        parse_log('{"rater": "a", "ratee": "b", "kind": "stake", "value": 1}\n', "jsonl")
    assert "timestamp" in str(err.value)


def test_load_log_picks_format_from_suffix(tmp_path):
    csv_path = tmp_path / "log.csv"
    csv_path.write_text("a,b,stake,,,1.0,1,,0\n")
    jsonl_path = tmp_path / "log.jsonl"
    jsonl_path.write_text('{"rater": "a", "ratee": "b", "kind": "stake", "value": 1.0, "timestamp": 0}\n')
    assert load_log(csv_path) == load_log(jsonl_path)


_CSV_ORDER = ("rater", "ratee", "kind", "aspect", "category", "value", "weight",
              "event", "timestamp")


def test_csv_and_jsonl_parse_the_same_records():
    """Seeded records written in both formats parse to equal lists.

    The CSV column order is spelled here, apart from the parser's field
    table, so a table whose order differs from the columns fails.
    """
    rng = random.Random(10)
    ids = ["alice", "bob", "dané", "u v", "p7", "\U0001f600"]
    csv_lines, jsonl_lines = [], []
    for i in range(400):
        rater, ratee = rng.sample(ids, 2)
        fields = {
            "rater": rater, "ratee": ratee,
            "kind": rng.choice(["stake", "transaction", "Stake", "TRANSACTION"]),
            "aspect": rng.choice([None, "speed", "quality"]),
            "category": rng.choice([None, "food", "tools"]),
            "value": rng.choice([0, 1, -1, 0.0, round(rng.uniform(-1, 1), rng.randrange(1, 17))]),
            "weight": rng.choice([None, 0, 3, rng.lognormvariate(0, 2)]),
            "event": rng.choice([None, f"e{i}"]),
            "timestamp": rng.randrange(-50, 10**12),
        }
        csv_lines.append(",".join(
            "" if fields[name] is None else str(fields[name]) for name in _CSV_ORDER
        ))
        obj = {}
        for name in rng.sample(_CSV_ORDER, len(_CSV_ORDER)):
            if fields[name] is not None or rng.random() < 0.5:
                obj[name] = fields[name]
        jsonl_lines.append(json.dumps(obj, ensure_ascii=rng.random() < 0.5))
    from_csv = parse_log("".join(line + "\n" for line in csv_lines), "csv")
    from_jsonl = parse_log("".join(line + "\n" for line in jsonl_lines), "jsonl")
    assert len(from_csv) == 400
    assert from_csv == from_jsonl
    assert {rec.aspect for rec in from_csv} == {None, "speed", "quality"}
    assert {rec.category for rec in from_csv} == {None, "food", "tools"}


@pytest.mark.parametrize("name, text", [
    ("log.csv", "alice,bob,stake,,,1.0,1,,100\nalice,carol,stake,,,0.5,1,,100\n"),
    ("log.jsonl",
     '{"rater": "alice", "ratee": "bob", "kind": "stake", "value": 1.0, "timestamp": 100}\n'),
])
def test_load_log_ignores_a_leading_byte_order_mark(tmp_path, name, text):
    plain = tmp_path / "plain" / name
    marked = tmp_path / "marked" / name
    for path, data in ((plain, text.encode()), (marked, b"\xef\xbb\xbf" + text.encode())):
        path.parent.mkdir()
        path.write_bytes(data)
    assert load_log(marked) == load_log(plain)
    assert {rec.rater for rec in load_log(marked)} == {"alice"}


# --- window_mode_from_spec ------------------------------------------------

def test_window_mode_spec_parsing():
    assert window_mode_from_spec("whole") == PerBlock(sys.maxsize)
    assert window_mode_from_spec("tx") == PerBlock(1)
    assert window_mode_from_spec("period:100") == Periodic(100)
    assert window_mode_from_spec("block:5") == PerBlock(5)


@pytest.mark.parametrize("bad", ["daily", "period:", "period:x", "block:0", "period:-1", ""])
def test_window_mode_spec_rejects(bad):
    with pytest.raises(ConfigError):
        window_mode_from_spec(bad)


# --- partition --------------------------------------------------------------

def test_whole_history_single_window():
    records = [_rec("a", "b", 1), _rec("b", "c", 2), _rec("c", "a", 3)]
    out = partition(records, window_mode_from_spec("whole"), 0)
    assert len(out) == 1
    window, chunk = out[0]
    assert (window.t_origin, window.t_prev, window.t_now) == (0, 0, 3)
    assert chunk == records


def test_per_transaction_one_window_each():
    records = [_rec("a", "b", 1), _rec("b", "c", 2), _rec("c", "a", 3)]
    out = partition(records, window_mode_from_spec("tx"), 0)
    assert len(out) == 3
    assert [w.t_now for w, _ in out] == [1, 2, 3]
    assert [w.t_prev for w, _ in out] == [0, 1, 2]
    assert all(len(chunk) == 1 for _, chunk in out)


def test_per_transaction_groups_equal_timestamps():
    records = [_rec("a", "b", 1), _rec("b", "c", 1), _rec("c", "a", 3)]
    out = partition(records, window_mode_from_spec("tx"), 0)
    assert len(out) == 2
    assert len(out[0][1]) == 2
    assert len(out[1][1]) == 1


def test_per_block_chunk_sizes():
    records = [_rec("a", "b", t) for t in range(1, 6)]
    out = partition(records, PerBlock(2), 0)
    assert [len(chunk) for _, chunk in out] == [2, 2, 1]
    assert [w.t_now for w, _ in out] == [2, 4, 5]
    assert [w.t_prev for w, _ in out] == [0, 2, 4]


def test_per_block_keeps_timestamp_ties_together():
    # splitting t=2 across blocks would put two windows at the same instant
    records = [_rec("a", "b", t) for t in (1, 2, 2, 2, 3)]
    out = partition(records, PerBlock(2), 0)
    assert [len(chunk) for _, chunk in out] == [4, 1]
    assert [w.t_now for w, _ in out] == [2, 3]


def test_per_block_windows_strictly_advance():
    rng = random.Random(7)
    for _ in range(50):
        records = [_rec("a", "b", rng.randint(0, 6)) for _ in range(rng.randint(1, 30))]
        out = partition(records, PerBlock(rng.randint(1, 5)), 0)
        times = [w.t_now for w, _ in out]
        assert times == sorted(set(times))


def test_periodic_includes_empty_windows():
    records = [_rec("a", "b", 1), _rec("b", "c", 25)]
    out = partition(records, Periodic(10), 0)
    assert len(out) == 3
    assert [len(chunk) for _, chunk in out] == [1, 0, 1]
    assert [(w.t_prev, w.t_now) for w, _ in out] == [(0, 10), (10, 20), (20, 30)]


def test_periodic_boundary_record_goes_to_later_window():
    records = [_rec("a", "b", 10)]
    out = partition(records, Periodic(10), 0)
    assert len(out) == 2
    assert out[0][1] == []
    assert out[1][1] == records


def test_partition_rejects_records_before_origin():
    with pytest.raises(RecordError):
        partition([_rec("a", "b", 5)], window_mode_from_spec("whole"), 10)


def test_partition_rejects_an_unknown_window_mode():
    with pytest.raises(ConfigError, match="unknown window mode"):
        partition([_rec("a", "b", 0, kind=Kind.STAKE)], object(), 0)


def test_record_rejects_a_kind_given_as_text():
    with pytest.raises(RecordError, match="unknown rating kind 'stake'"):
        RatingRecord("a", "b", "stake", 0.5)


def test_replace_and_make_run_the_record_checks_again():
    rec = RatingRecord("a", "b", Kind.STAKE, 0.5, 2.0, timestamp=7)
    assert rec._replace(weight=3.0) == RatingRecord("a", "b", Kind.STAKE, 0.5, 3.0, timestamp=7)
    with pytest.raises(RecordError, match="rating weight -1.0 must be finite"):
        rec._replace(weight=-1.0)
    with pytest.raises(RecordError, match="self-rating by 'a'"):
        rec._replace(ratee=rec.rater)
    with pytest.raises(RecordError, match="rating value 2.0 outside"):
        RatingRecord._make(["a", "b", Kind.STAKE, 2.0, 1.0, None, None, None, 0])


def test_window_rejects_bounds_out_of_order():
    with pytest.raises(ValueError, match="t_origin <= t_prev <= t_now"):
        TimeWindow(5, 3, 10)


def test_partition_empty_log():
    for mode in (*map(window_mode_from_spec, ("whole", "tx")), Periodic(5), PerBlock(2)):
        assert partition([], mode, 0) == []


def test_partition_sorts_unsorted_input():
    records = [_rec("a", "b", 3), _rec("b", "c", 1)]
    out = partition(records, window_mode_from_spec("whole"), 0)
    assert [rec.timestamp for rec in out[0][1]] == [1, 3]


def test_partition_is_a_partition_all_modes():
    rng = random.Random(105)
    for _ in range(80):
        n = rng.randint(1, 40)
        records = [
            _rec(f"p{i % 7}", f"q{i % 5}", rng.randint(0, 60)) for i in range(n)
        ]
        ordered = sorted(records, key=lambda rec: rec.timestamp)
        modes = [
            window_mode_from_spec("whole"),
            window_mode_from_spec("tx"),
            Periodic(rng.randint(1, 25)),
            PerBlock(rng.randint(1, 10)),
        ]
        for mode in modes:
            out = partition(records, mode, 0)
            merged = [rec for _, chunk in out for rec in chunk]
            assert sorted(merged, key=lambda rec: rec.timestamp) == ordered
            assert len(merged) == len(records)
            # windows chain with no gaps
            t_prev = 0
            for window, chunk in out:
                assert window.t_origin == 0
                assert window.t_prev == t_prev
                t_prev = window.t_now
                for rec in chunk:
                    assert rec.timestamp <= window.t_now


def test_periodic_with_length_beyond_span_equals_whole_history():
    rng = random.Random(106)
    for _ in range(40):
        n = rng.randint(1, 30)
        records = [_rec(f"p{i % 6}", f"q{i % 4}", rng.randint(0, 50)) for i in range(n)]
        span = max(rec.timestamp for rec in records)
        whole = partition(records, window_mode_from_spec("whole"), 0)
        periodic = partition(records, Periodic(span + 1), 0)
        assert len(periodic) == 1
        assert periodic[0][1] == whole[0][1]


def _brute_partition(records, mode, t_origin):
    """Windows as (t_origin, t_prev, t_now, chunk), cut one record at a time."""
    ordered = sorted(records, key=lambda rec: rec.timestamp)
    if isinstance(mode, Periodic):
        n = (ordered[-1].timestamp - t_origin) // mode.length + 1
        bounds = [t_origin + i * mode.length for i in range(n + 1)]
        return [
            (t_origin, lo, hi, [rec for rec in ordered if lo <= rec.timestamp < hi])
            for lo, hi in zip(bounds, bounds[1:])
        ]
    size = mode.size
    out, chunk, t_prev = [], [], t_origin
    for i, rec in enumerate(ordered):
        chunk.append(rec)
        last = i + 1 == len(ordered)
        if last or (len(chunk) >= size and ordered[i + 1].timestamp != rec.timestamp):
            out.append((t_origin, t_prev, rec.timestamp, chunk))
            t_prev, chunk = rec.timestamp, []
    return out


def _flat(windows):
    return [(w.t_origin, w.t_prev, w.t_now, chunk) for w, chunk in windows]


def test_partition_matches_brute_force_all_modes():
    rng = random.Random(2018)
    for _ in range(200):
        n = rng.randint(1, 40)
        t_origin = rng.randint(-5, 5)
        # distinct raters keep equal-looking records apart in the comparison
        records = [_rec(f"p{i}", "q", rng.randint(5, 5 + rng.randint(0, 60))) for i in range(n)]
        modes = [*map(window_mode_from_spec, ("whole", "tx")), Periodic(rng.randint(1, 25)),
                 PerBlock(rng.randint(1, 10))]
        for mode in modes:
            got = _flat(partition(records, mode, t_origin))
            assert got == _brute_partition(records, mode, t_origin), mode
        # whole is one window of every record, tx one window per timestamp
        assert len(partition(records, window_mode_from_spec("whole"), t_origin)) == 1
        assert len(partition(records, window_mode_from_spec("tx"), t_origin)) == len(
            {rec.timestamp for rec in records})
