"""Seeded byte mutations of every input file kind.

Each case applies 1 to 4 edits to a valid rating log (CSV and JSONL),
snapshot or reference list: a byte deleted, replaced or inserted, a
token that parsers tend to mistake inserted, or a line or field
repeated.  A loader must return or
raise a ``RecordError`` that names its line; ``compute`` must exit 0 or 1,
and every snapshot of a run that exits 0 must hold finite values in
[0, 1].  The seed and case counts are fixed, so tier-1 runs the same
cases every time.
"""

from __future__ import annotations

import math
import random

import pytest

from liquidrank.cli import main
from liquidrank.errors import RecordError
from liquidrank.evaluate import load_reference_list
from liquidrank.ingest import load_log
from liquidrank.store import load_snapshot

_CSV_LOG = (
    "alice,bob,stake,,,1.0,1,,100\n"
    "bob,carol,transaction,speed,food,0.5,2,e1,200\n"
    "carol,alice,transaction,,,-0.25,1,,300\n"
    "dave,bob,transaction,,,0.75,,,300\n"
    "alice,dave,stake,,,0.1,3.5,,420\n"
)
_JSONL_LOG = (
    '{"rater":"alice","ratee":"bob","kind":"stake","value":1.0,"weight":1,"timestamp":100}\n'
    '{"rater":"bob","ratee":"carol","kind":"transaction","aspect":"speed","category":"food",'
    '"value":0.5,"weight":2,"event":"e1","timestamp":200}\n'
    '{"rater":"carol","ratee":"alice","kind":"transaction","value":-0.25,"timestamp":300}\n'
    '{"rater":"dave","ratee":"bob","kind":"transaction","value":0.75,"weight":null,'
    '"timestamp":300}\n'
)
_SNAPSHOT = "300\nalice,0.25\nbob,1.0\ncarol,0.0\ndave,0.5\n"
_REFERENCE = "alice,0\nbob,1\ncarol,1\ndave,0\n"

_TOKENS = [
    b"1e308", b"nan", b"1_0", "\u2028".encode(), b"\xef\xbb\xbf", b"\r", b'"', b",",
    b"\n", b"-", b"inf", b"\xff", b".5", b"true",
]
_LINE_TOKENS = [b"{}\n", b"[]\n", b"\n", b"x\n", b",\n"]
_SPECS = ["whole", "tx", "block:2", "period:100"]


def _mutate(rng: random.Random, data: bytes) -> bytes:
    out = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(len(out))
        start = out.rfind(b"\n", 0, at) + 1  # of the line ``at`` falls in
        edit = rng.randrange(6)
        if edit == 0:
            del out[at]
        elif edit == 1:
            out[at] = rng.randrange(256)
        elif edit == 2:
            out[at:at] = bytes([rng.randrange(256)])
        elif edit == 3:
            out[at:at] = rng.choice(_TOKENS)
        elif edit == 4:  # a whole token line, or a repeated line
            line = out[start:out.find(b"\n", start) + 1 or len(out)]
            out[start:start] = rng.choice([*_LINE_TOKENS, line])
        else:  # a repeated field: from the comma before ``at`` to the next one
            end = min((i for i in (out.find(b",", at), out.find(b"\n", at)) if i >= 0),
                      default=len(out))
            out[end:end] = out[max(out.rfind(b",", 0, at), start):end]
    return bytes(out)


def _cases(seed: int, name: str, text: str, count: int):
    rng = random.Random(f"{seed}:{name}")
    return [_mutate(rng, text.encode()) for _ in range(count)]


_INPUTS = {
    "ratings.csv": (_CSV_LOG, load_log),
    "ratings.jsonl": (_JSONL_LOG, load_log),
    "snapshot.csv": (_SNAPSHOT, load_snapshot),
    "reference.csv": (_REFERENCE, load_reference_list),
}


@pytest.mark.parametrize("name", _INPUTS)
def test_loader_returns_or_names_the_bad_line(tmp_path, name):
    text, load = _INPUTS[name]
    path = tmp_path / name
    for data in _cases(2018, name, text, 1000):
        path.write_bytes(data)
        try:
            load(path)
        except RecordError as exc:
            assert exc.line is not None, (data, exc)


def _assert_snapshots_in_unit_range(out_dir):
    for path in (out_dir / "snapshots").glob("*.csv"):
        for value in load_snapshot(path).values.values():
            assert math.isfinite(value) and 0.0 <= value <= 1.0, (path, value)


@pytest.mark.parametrize("name", ["ratings.csv", "ratings.jsonl"])
def test_compute_on_a_mutated_log_exits_0_or_1(tmp_path, capsys, name):
    text = _INPUTS[name][0]
    log = tmp_path / name
    # The unmutated log goes first and must fold, so every spec runs the
    # exit-0 checks at least once.
    for case, data in enumerate([text.encode(), *_cases(2019, name, text, 60)]):
        log.write_bytes(data)
        for spec in _SPECS:
            out = tmp_path / f"{case}-{spec.replace(':', '-')}"
            code = main(["compute", "--log", str(log), "--window", spec, "--out", str(out)])
            err = capsys.readouterr().err
            assert code in ((0,) if case == 0 else (0, 1)), (data, spec, err)
            if code == 0:
                assert err == "", (data, spec)
                _assert_snapshots_in_unit_range(out)
