"""Seeded byte mutations of every input file kind.

Each case applies 1 to 4 edits to a valid rating log (CSV and JSONL),
snapshot, reference list or config file: a byte deleted, replaced or
inserted, a token that parsers tend to mistake inserted, or a line or
field repeated.  A loader must return or raise a ``RecordError`` that
names its line, and a CSV log, snapshot or reference list that a bulk
reader reads must read the same through its row loop (see
``tests/test_input_text.py``); ``compute`` must exit 0 or 1, and every
snapshot of a run that exits 0 must hold finite values in [0, 1]; ``stats``,
``validate`` and ``export`` must exit 0, 1 or 3, every exit 1 with one
``error:`` line that names the bad line; and a mutated config must make
``compute`` and ``simulate`` exit 0 or 2.  The seed and case counts are
fixed, so tier-1 runs the same cases every time.
"""

from __future__ import annotations

import functools
import math
import random
import re

import pytest

from liquidrank import cli
from liquidrank.cli import main
from liquidrank.errors import RecordError
from liquidrank.evaluate import load_reference_list
from liquidrank.ingest import load_log
from liquidrank.store import load_snapshot

from oracles import ASIDE, bulk_and_rows

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
_ENGINE_CONFIG = (
    "# engine knobs\n"
    "default_reputation = 0.5\n"
    "aspect_weight.speed = 2\n"
    "blend_stake = 1.0\n"
    "blend_transaction = 0.5\n"
    "use_log_financial = true\n"
    "use_log_differential = false\n"
    "decay_recent = 1.0\n"
    "decay_past = 0.9\n"
    "rater_weight_floor = 0.1\n"
)
_CONSENSUS_CONFIG = (
    "# consensus thresholds\n"
    "min_identical = 2\n"
    "max_nonidentical = 4\n"
    "timeout = 3\n"
    "por_weighted = false\n"
    "agency_reputation.a01 = 0.5\n"
)

_TOKENS = [
    b"1e308", b"nan", b"1_0", "\u2028".encode(), b"\xef\xbb\xbf", b"\r", b'"', b",",
    b"\n", b"-", b"inf", b"\xff", b".5", b"true",
]
_LINE_TOKENS = [b"{}\n", b"[]\n", b"\n", b"x\n", b",\n"]
_SPECS = ["whole", "tx", "block:2", "period:100"]


@pytest.fixture(autouse=True)
def _one_parser(monkeypatch):
    # Building the argument parser costs more than most runs here, and one
    # parser can parse any number of argument lists.
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))


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


@pytest.mark.parametrize("name, kind", [
    ("ratings.csv", "log"), ("snapshot.csv", "snapshot"), ("reference.csv", "reference"),
])
def test_bulk_reader_steps_aside_or_reads_as_its_row_loop(monkeypatch, name, kind):
    read = 0
    for data in _cases(2018, name, _INPUTS[name][0], 1000):
        bulk, rows = bulk_and_rows(monkeypatch, kind, data)
        if bulk is not ASIDE:
            assert repr(bulk) == repr(rows), data
            read += 1
    assert read >= 100  # the bulk path reads many mutants: a field changed, a line repeated


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


def _one_error_naming_its_line(err: str) -> bool:
    lines = err.splitlines()
    return (len(lines) == 1 and lines[0].startswith("error: ")
            and (re.search(r"\bline \d+: ", lines[0]) is not None
                 or lines[0].endswith(" holds no participants")))


_QUERIES = [
    ["stats", "--snapshot", "{snapshot}"],
    ["validate", "--snapshot", "{snapshot}", "--reference", "{reference}"],
    ["export", "--snapshot", "{snapshot}", "--log", "{log}", "--out", "{graph}"],
]


@pytest.mark.parametrize("name", _INPUTS)
def test_query_commands_on_a_mutated_file_name_the_bad_line(tmp_path, capsys, name):
    # The mutated file goes through every command that reads its kind,
    # next to valid copies of the other inputs.
    paths = {"graph": tmp_path / "graph.dot"}
    for role, kind in (("snapshot", "snapshot.csv"), ("reference", "reference.csv"),
                       ("log", "ratings.csv")):
        paths[role] = tmp_path / f"valid-{kind}"
        paths[role].write_text(_INPUTS[kind][0], encoding="utf-8")
    role = {"snapshot.csv": "snapshot", "reference.csv": "reference"}.get(name, "log")
    paths[role] = tmp_path / name
    commands = [[arg.format(**paths) for arg in argv]
                for argv in _QUERIES if f"{{{role}}}" in argv]
    for data in _cases(2020, name, _INPUTS[name][0], 100):
        paths[role].write_bytes(data)
        for argv in commands:
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 3), (data, argv, err)
            if code == 0:
                assert err == "", (data, argv)
            elif code == 1:
                assert _one_error_naming_its_line(err), (data, argv, err)


_CONFIGS = {
    "engine.cfg": (_ENGINE_CONFIG, ["compute", "--log", "{log}", "--window", "tx"]),
    "consensus.cfg": (_CONSENSUS_CONFIG, ["simulate", "--agencies", "4", "--cycles", "2",
                                          "--faulty", "divergent:1", "--delay-max", "2",
                                          "--drop-rate", "0.1"]),
}


@pytest.mark.parametrize("name", _CONFIGS)
def test_a_mutated_config_exits_0_or_2(tmp_path, capsys, name):
    text, command = _CONFIGS[name]
    log = tmp_path / "ratings.csv"
    log.write_text(_CSV_LOG, encoding="utf-8")
    config = tmp_path / name
    argv = [arg.format(log=log) for arg in command]
    argv += ["--config", str(config), "--out", str(tmp_path / "out")]
    for case, data in enumerate([text.encode(), *_cases(2021, name, text, 100)]):
        config.write_bytes(data)
        code = main(argv)
        err = capsys.readouterr().err
        assert code in ((0,) if case == 0 else (0, 2)), (data, err)
        if code == 0:
            assert err == "", data
        else:
            assert len(err.splitlines()) == 1 and err.startswith("error: "), (data, err)
