"""How input bytes become text, lines, CSV rows and values.

``model.decode_input`` decodes every input file, ``model.text_lines``
splits every input (log, snapshot, reference list, config) into lines one
slice at a time, and ``model.csv_rows`` reads CSV rows from those lines.
The references here are the readers they replace:
``io.StringIO(text).readlines()`` for lines, ``csv.reader(io.StringIO(text))``
for CSV rows and a ``text.split("\\n")`` loop for JSONL lines.  Lines and
rows are compared on every text of up to two characters drawn from field
and line separators, and on 300 seeded longer texts.

The CSV log, snapshot and reference-list readers each have a bulk path
that reads a slice of rows at a time and a row loop it hands the text to
when a slice is not plain.  Their reference is that row loop
(``oracles.bulk_and_rows``): on the texts above, each set in a plain
input, and on seeded plain and near-plain inputs, a bulk path must step
aside or read what its row loop reads.  ``tests/test_mutation_fuzz.py``
runs the same check on its mutated inputs.
"""

from __future__ import annotations

import csv
import io
import random
import tracemalloc

import pytest

from liquidrank import evaluate, ingest, model, store
from liquidrank.cli import main
from liquidrank.config import parse_key_values
from liquidrank.errors import ConfigError, RecordError
from liquidrank.evaluate import load_reference_list
from liquidrank.ingest import load_log, parse_log
from liquidrank.model import ReputationState, csv_rows, decode_input, text_lines
from liquidrank.store import deserialize_state, load_snapshot, serialize_state

from oracles import ASIDE, bulk_and_rows

BOM = b"\xef\xbb\xbf"


# -- decode_input ------------------------------------------------------------


def test_decode_drops_one_leading_bom():
    assert decode_input(BOM + b"a,1\n") == "a,1\n"
    assert decode_input(BOM + BOM + b"a\n") == "\ufeffa\n"
    assert decode_input(b"a" + BOM) == "a\ufeff"


@pytest.mark.parametrize("data, line", [
    (BOM + b"a\nb\n\xff", 3),
    (BOM + b"\xff\n", 1),
    (b"a\nb\n\xff", 3),
])
@pytest.mark.parametrize("error", [RecordError, ConfigError])
def test_decode_bad_byte_after_bom_names_its_line(data, line, error):
    with pytest.raises(error) as info:
        decode_input(data, error)
    assert str(info.value) == f"line {line}: byte 0xff is not valid UTF-8"


# -- text_lines and csv_rows against StringIO ----------------------------------


CSV_CASES = {
    "quoted-multiline": 'a,"x\ny\r\nz\n\n\nw",b\nc,d\n',
    "crlf-rows": "a,b\r\nc,d\r\n",
    "bare-cr-unquoted": "a,b\nc\rd,e\n",
    "bare-cr-quoted": 'a,"b\rc",d\ne,f\n',
    "blank-lines": "\n\na,b\n\n\nc,d\n\n",
    "leading-empty": "\na,b\n",
    "no-final-newline": "a,b\nc,d",
    "unterminated-quote": 'a,b\nc,"d\ne\n',
    "separators-in-fields": "a\x0cb,c\x1dd,e\u2028f\n\u2028,g\n",
    "empty": "",
    "only-newlines": "\n\n",
}


def _stringio_rows(text):
    """The parent reader: ``csv.reader`` over a StringIO of the text."""
    reader = csv.reader(io.StringIO(text))
    rows = []
    try:
        for row in reader:
            if row:
                rows.append((reader.line_num, row))
    except csv.Error as exc:
        reason = str(exc).partition(" - ")[0]
        return rows, str(RecordError(f"malformed CSV row: {reason}", reader.line_num))
    return rows, None


def _lazy_rows(text):
    rows = []
    try:
        for line, row in csv_rows(text):
            rows.append((line, row))
    except RecordError as exc:
        return rows, str(exc)
    return rows, None


@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_csv_rows_match_stringio_reader(name):
    text = CSV_CASES[name]
    assert list(text_lines(text)) == io.StringIO(text).readlines()
    assert _lazy_rows(text) == _stringio_rows(text)


def test_csv_cases_cover_errors_and_multiline_rows():
    # The cases above must exercise an error and rows spanning lines.
    assert _lazy_rows(CSV_CASES["bare-cr-unquoted"]) == ([(1, ["a", "b"])], (
        "line 2: malformed CSV row: new-line character seen in unquoted field"
    ))
    assert _lazy_rows(CSV_CASES["quoted-multiline"]) == ([
        (6, ["a", "x\ny\r\nz\n\n\nw", "b"]), (7, ["c", "d"]),
    ], None)
    # A quote left open runs to the end of the file: csv is not strict.
    assert _lazy_rows(CSV_CASES["unterminated-quote"]) == ([
        (1, ["a", "b"]), (3, ["c", "d\ne\n"]),
    ], None)


_ALPHABET = 'ab,"\n\r\x0c\x1d\u2028\x85 '


def _texts():
    """Every text of up to two characters, then 300 seeded ones of up to 40."""
    yield ""
    for a in _ALPHABET:
        yield a
        for b in _ALPHABET:
            yield a + b
    rng = random.Random(11)
    for _ in range(300):
        yield "".join(rng.choices(_ALPHABET, k=rng.randint(0, 40)))


def test_text_lines_and_csv_rows_match_stringio_on_any_text(monkeypatch):
    for text in _texts():
        lines = io.StringIO(text).readlines()
        assert list(text_lines(text)) == lines, text
        assert _lazy_rows(text) == _stringio_rows(text), text
        # Tiny slices end a slice after nearly every line.
        for size in (1, 2, 3, 7):
            monkeypatch.setattr(model, "_SLICE", size)
            assert list(text_lines(text)) == lines, (text, size)
        monkeypatch.undo()


def test_text_lines_cuts_a_long_text_at_line_ends():
    size = model._SLICE
    rows = "".join(f"row {i}\n" for i in range(size // 4))
    text = rows + "x" * (2 * size) + "\r\n\n\u2028\n" + rows + "no final line feed"
    assert rows[size - 1] != "\n"  # the first slice boundary falls inside a line
    assert len(text) > 5 * size
    assert list(text_lines(text)) == io.StringIO(text).readlines()


def test_csv_rows_holds_no_copy_of_the_text():
    row = "rater{0},ratee{0},transaction,,,0.5,1,,{0}\n"
    text = "".join(row.format(i) for i in range(60_000))
    assert len(text) >= 2_000_000
    tracemalloc.start()
    try:
        for _ in csv_rows(text):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(text) / 4, f"{peak} bytes traced over a {len(text)}-char text"


def test_deserialize_state_holds_no_list_of_the_rows():
    draw = random.Random(7).random
    state = ReputationState(500, {f"p{i:06d}": draw() for i in range(100_000)})
    data = serialize_state(state)
    tracemalloc.start()
    try:
        back = deserialize_state(data)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back == state
    # Beyond the state it returns, a read holds the decoded text and one
    # slice of lines: about 1.4 bytes a snapshot byte.  A list of every row
    # as its own string makes that about 3.7.
    assert peak - kept < 2.5 * len(data), f"{peak - kept} bytes over a {len(data)}-byte snapshot"


# -- bulk readers against their row loops -------------------------------------


# A plain input of each kind, one row a line, fields in CSV column order.
_PLAIN_ROWS = {
    "log": [["a", "b", "stake", "", "", "0.5", "1", "", "100"],
            ["b", "c", "transaction", "q", "food", "-0.25", "", "e1", "200"]],
    "snapshot": [["300"], ["a", "0.25"], ["b", "1.0"]],
    "reference": [["a", "0"], ["b", "1.0"]],
}


def _join(rows):
    return "".join(",".join(row) + "\n" for row in rows)


def _field_settings(kind, text):
    """``text`` in place of each field of the plain input in turn."""
    rows = _PLAIN_ROWS[kind]
    for r, row in enumerate(rows):
        for f in range(len(row)):
            yield _join([*rows[:r], [*row[:f], text, *row[f + 1:]], *rows[r + 1:]])


def _check(monkeypatch, kind, data):
    """Assert the bulk path steps aside or reads what its row loop reads.

    Returns True when the bulk path read ``data`` itself.
    """
    bulk, rows = bulk_and_rows(monkeypatch, kind, data)
    if bulk is ASIDE:
        return False
    assert repr(bulk) == repr(rows), data
    return True


_IDS = ["a", "b", "p1", "\u00e9", "x\u2028y", "z\x85", "\x0cq", "\U0001f600", "s p", "t\tu"]
# Field forms: the first ``_PLAIN_FORMS`` of each are plain; the odd ones
# after them are read by float(), int() or the row loops' kind and label
# rules, or rejected by them, and need not be read by a bulk path.
_VALUES = ["0.5", "-0.25", "1", "-1.0", "0", "-0", "5e-324", "1e-05",
           " 0.5", "+0.5", "0.5_0", "\u0660.5", "nan", "1.5", "-inf", "1e999"]
_WEIGHTS = ["1", "", "0", "2.5", "1e300", "-0.0",
            "+1", " 2", "1_0", "-1", "inf", "nan", "x"]
_STAMPS = ["0", "100", "-7", "123456789012345",
           "+5", " 5", "5_0", "\u0665", "5.0", ""]
_KIND_FORMS = ["stake", "transaction", "STAKE", "Transaction", "bogus"]
_REPUTATIONS = ["0.5", "0.0", "1.0", "-0.0", "5e-324", "0.30000000000000004",
                "0.50", "5e-1", "1.", ".5", "1E-1", "+0.5", "0.5 ", "2.0", "-0.5", "1e-",
                "nan", "0x1p-1"]
_LABELS = ["0", "1", "0.0", "1.0", "1e0", "-0", "00", "+1", " 1", "0.5"]
_PLAIN_FORMS = {"value": 8, "weight": 6, "stamp": 4, "kind": 2, "reputation": 6, "label": 4}


@pytest.mark.parametrize("kind", sorted(_PLAIN_ROWS))
def test_bulk_readers_match_row_loops_on_any_text(monkeypatch, kind):
    forms = [*_IDS, *_VALUES, *_WEIGHTS, *_STAMPS, *_KIND_FORMS, *_REPUTATIONS, *_LABELS]
    for text in [*CSV_CASES.values(), *_texts(), *forms]:
        for setting in [text, *_field_settings(kind, text)]:
            _check(monkeypatch, kind, setting.encode("utf-8"))


def test_bulk_readers_leave_a_lone_surrogate_to_the_row_loop():
    # decode_input never makes one, but the text parsers take any str.
    with pytest.raises(RecordError, match="^line 2: rater id 'b\\\\udc80' is not valid UTF-8"):
        parse_log("a,b,stake,,,0.5,1,,1\nb\udc80,a,stake,,,0.5,1,,1\n")
    with pytest.raises(RecordError, match="^line 1: participant id 'a\\\\udc80' is not valid"):
        evaluate.parse_reference_list("a\udc80,1\n")


def test_bulk_readers_leave_a_nul_to_the_row_loop(monkeypatch):
    # csv before Python 3.11 rejects a line that holds a NUL, and later ones read it.
    assert bulk_and_rows(monkeypatch, "log", b"a\0,b,stake,,,0.5,1,,1\n")[0] is ASIDE
    assert bulk_and_rows(monkeypatch, "reference", b"a\0,1\n")[0] is ASIDE


def test_bulk_readers_leave_a_field_over_the_csv_limit_to_the_row_loop():
    limit = csv.field_size_limit(16)
    try:
        with pytest.raises(RecordError, match="^line 2: malformed CSV row: field larger"):
            parse_log("a,b,stake,,,0.5,1,,1\nb,a,stake,,,0.5,1,,10000000000000000000\n")
        with pytest.raises(RecordError, match="^line 1: malformed CSV row: field larger"):
            evaluate.parse_reference_list("a_participant_id_of_17,1\n")
    finally:
        csv.field_size_limit(limit)


def _draw(rng, forms, name, odd):
    plain = _PLAIN_FORMS[name]
    return rng.choice(forms[plain:] if rng.random() < odd else forms[:plain])


def _random_input(rng, kind, odd=0.0):
    """A seeded input of ``kind``; ``odd`` is the chance of each odd field."""
    if kind == "log":
        rows = []
        for _ in range(rng.randint(1, 40)):
            rater, ratee = rng.sample(_IDS, 2)
            if rng.random() < odd:
                ratee = rater
            rows.append([
                rater, ratee, _draw(rng, _KIND_FORMS, "kind", odd),
                rng.choice(["", "q"]), rng.choice(["", "food"]),
                _draw(rng, _VALUES, "value", odd) if rng.random() < 0.5
                else repr(rng.uniform(-1.0, 1.0)),
                _draw(rng, _WEIGHTS, "weight", odd), rng.choice(["", "e1"]),
                _draw(rng, _STAMPS, "stamp", odd),
            ])
        text = _join(rows)
    elif kind == "snapshot":
        ids = rng.sample(_IDS, rng.randint(0, len(_IDS)))
        if ids and rng.random() < odd:
            ids.append(ids[0])
        rows = [[pid, _draw(rng, _REPUTATIONS, "reputation", odd)] for pid in sorted(ids)]
        text = _join([[str(rng.randint(0, 10**9))], *rows])
        if rng.random() < 0.3:
            text = text.replace("\n", "\r\n")
    else:
        ids = rng.sample(_IDS, rng.randint(1, len(_IDS)))
        if rng.random() < odd:
            ids.append(ids[0])
        text = _join([[pid, _draw(rng, _LABELS, "label", odd)] for pid in ids])
    if kind != "snapshot" and rng.random() < 0.2:
        text = "\n" + text.replace("\n", "\n\n", 1)  # blank lines
    if rng.random() < 0.2:
        text = text.removesuffix("\n").removesuffix("\r")
    data = text.encode("utf-8")
    return b"\xef\xbb\xbf" + data if rng.random() < 0.2 else data


@pytest.mark.parametrize("kind", sorted(_PLAIN_ROWS))
def test_bulk_readers_read_every_plain_input_as_their_row_loops(monkeypatch, kind):
    rng = random.Random(f"plain-{kind}")
    for size in (1, 7, 64, model._SLICE):  # from a slice a line to one slice in all
        monkeypatch.setattr(model, "_SLICE", size)
        for _ in range(100):
            data = _random_input(rng, kind)
            assert _check(monkeypatch, kind, data), data


@pytest.mark.parametrize("kind", sorted(_PLAIN_ROWS))
def test_bulk_readers_step_aside_or_match_row_loops_on_odd_inputs(monkeypatch, kind):
    rng = random.Random(f"odd-{kind}")
    outcomes = {True: 0, False: 0}
    for size in (1, 7, model._SLICE):
        monkeypatch.setattr(model, "_SLICE", size)
        for _ in range(300):
            odd = rng.choice([0.003, 0.03, 0.3])
            outcomes[_check(monkeypatch, kind, _random_input(rng, kind, odd))] += 1
    # Both paths are taken: the odd forms are not so common that no input is plain.
    assert min(outcomes.values()) > 50, outcomes


def _no_row_loop(*args):
    raise AssertionError("a plain input reached a row loop")


def test_plain_inputs_never_reach_a_row_loop(tmp_path, monkeypatch, capsys):
    for module, loop in [(ingest, "_parse_csv_rows"), (store, "_row_values"),
                         (evaluate, "_reference_rows")]:
        monkeypatch.setattr(module, loop, _no_row_loop)
    rng = random.Random(29)
    loaders = {"log": load_log, "snapshot": load_snapshot, "reference": load_reference_list}
    for kind, load in loaders.items():
        for n in range(50):
            path = tmp_path / f"{kind}-{n}.csv"
            path.write_bytes(_random_input(rng, kind))
            load(path)
    # The three query commands, on a snapshot the way compute writes it.
    log = tmp_path / "ratings.csv"
    log.write_text(_join(_PLAIN_ROWS["log"]) * 3, encoding="utf-8")
    code = main(["compute", "--log", str(log), "--window", "whole", "--out", str(tmp_path / "run")])
    snapshot = str(next((tmp_path / "run" / "snapshots").iterdir()))
    labels = tmp_path / "labels.csv"
    labels.write_text("a,1\nb,0\nc,1\n", encoding="utf-8")
    codes = [code] + [main(argv) for argv in (
        ["stats", "--snapshot", snapshot],
        ["validate", "--snapshot", snapshot, "--reference", str(labels)],
        ["export", "--snapshot", snapshot, "--log", str(log), "--out", str(tmp_path / "g.dot")],
    )]
    assert (codes, capsys.readouterr().err) == ([0, 0, 0, 0], "")


def test_parse_log_holds_one_slice_beyond_its_records():
    row = "rater{0},ratee{0},transaction,,,0.5,1,,{0}\n"
    text = "".join(row.format(i) for i in range(60_000))
    assert len(text) >= 2_000_000
    tracemalloc.start()
    try:
        records = parse_log(text, "csv")
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 60_000
    # Beyond the records it returns, a read holds one slice's fields and
    # columns at a time: about 0.3 bytes a text character here.  Splitting
    # the whole text at once holds every field, several times the text.
    assert peak - kept < len(text) / 2, f"{peak - kept} bytes over a {len(text)}-char log"


# -- JSONL lines against the split("\n") loop --------------------------------


def _split_loop_jsonl(text):
    """The parent line loop: ``text.split("\\n")``, each line parsed alone."""
    records = []
    for line_num, raw in enumerate(text.split("\n"), start=1):
        if not raw.strip():
            continue
        try:
            records += parse_log(raw, "jsonl")
        except RecordError as exc:
            return None, str(RecordError(str(exc).partition(": ")[2], line_num))
    return records, None


def _jsonl(text):
    try:
        return parse_log(text, "jsonl"), None
    except RecordError as exc:
        return None, str(exc)


_REC = '{{"rater": "{0}", "ratee": "{1}", "kind": "stake", "value": 0.5, "timestamp": {2}}}'
JSONL_CASES = {
    "u2028-in-ids": "\n".join([
        _REC.format("a\u2028b", "c", 1), _REC.format("c", "a\u2029\x85", 2),
    ]) + "\n",
    "blank-lines": "\n\n" + _REC.format("a", "b", 1) + "\n \n\t\n\n" + _REC.format("b", "a", 2),
    "crlf": _REC.format("a", "b", 1) + "\r\n" + _REC.format("b", "a", 2) + "\r\n",
    "bad-after-blanks": "\n\n" + _REC.format("a", "b", 1) + "\n\n{oops}\n",
    "unterminated-string": _REC.format("a", "b", 1) + '\n{"rater": "a\n',
    "u2028-then-bad": _REC.format("a\u2028", "b", 1) + "\n" + _REC.format("b", "b", 2) + "\n",
    "empty": "",
}


@pytest.mark.parametrize("name", sorted(JSONL_CASES))
def test_jsonl_lines_match_split_loop(name):
    text = JSONL_CASES[name]
    assert _jsonl(text) == _split_loop_jsonl(text)


def test_jsonl_cases_cover_errors():
    assert _jsonl(JSONL_CASES["unterminated-string"])[1] == (
        "line 2: invalid JSON: Unterminated string starting at"
    )
    assert _jsonl(JSONL_CASES["u2028-then-bad"])[1] == (
        "line 2: self-rating by 'b' is not allowed"
    )
    assert [r.rater for r in _jsonl(JSONL_CASES["u2028-in-ids"])[0]] == ["a\u2028b", "c"]


# -- config lines --------------------------------------------------------------


@pytest.mark.parametrize("data, got", [
    (b"a = 1\n\noops\nb = 2\n", "oops"),
    (b"a = 1\r\n\r\noops\r\nb = 2\r\n", "oops\r"),
    (BOM + b"a = 1\r\n\r\noops\r\nb = 2\r\n", "oops\r"),
    (BOM + b"a = 1\n\noops", "oops"),
])
def test_config_line_without_equals_names_its_line(data, got):
    # Lines end at "\n" only: a CRLF line keeps its "\r", and the BOM is no line.
    with pytest.raises(ConfigError) as info:
        parse_key_values(decode_input(data, ConfigError))
    assert str(info.value) == f"line 3: expected 'key = value', got {got!r}"
