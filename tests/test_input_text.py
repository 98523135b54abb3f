"""How input bytes become text, lines and CSV rows.

``model.decode_input`` decodes every input file, ``model.text_lines``
splits every input (log, snapshot, reference list, config) into lines one
slice at a time, and ``model.csv_rows`` reads CSV rows from those lines.
The references here are the readers they replace:
``io.StringIO(text).readlines()`` for lines, ``csv.reader(io.StringIO(text))``
for CSV rows and a ``text.split("\\n")`` loop for JSONL lines.  Lines and
rows are compared on every text of up to two characters drawn from field
and line separators, and on 300 seeded longer texts.
"""

from __future__ import annotations

import csv
import io
import random
import tracemalloc

import pytest

from liquidrank import model
from liquidrank.config import parse_key_values
from liquidrank.errors import ConfigError, RecordError
from liquidrank.ingest import parse_log
from liquidrank.model import ReputationState, csv_rows, decode_input, text_lines
from liquidrank.store import deserialize_state, serialize_state

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
