"""End-to-end checks of the command-line interface.

Every command runs in-process through ``main(argv)`` so exit codes and
printed output are asserted directly.
"""

from __future__ import annotations

import ast
import errno
import gc
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import liquidrank
from liquidrank import cli, consensus, store
from liquidrank.cli import main
from liquidrank.evaluate import distribution_stats, pearson
from liquidrank.store import load_snapshot
from liquidrank.synth import lognormal_transaction_community


_LOG_3 = (
    "alice,bob,stake,,,1.0,1,,100\n"
    "bob,carol,transaction,,,0.5,2,,200\n"
    "carol,alice,transaction,,,-0.25,1,,300\n"
)


def _write(path, text):
    # "\udcff" in ``text`` writes the raw byte 0xff, which is not UTF-8
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _snapshot_names(out_dir):
    return sorted(p.name for p in (out_dir / "snapshots").glob("*.csv"))


def _src_env():
    src = Path(liquidrank.__file__).resolve().parents[1]
    return dict(os.environ, PYTHONPATH=str(src))


def _tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


# -- compute ---------------------------------------------------------------


def test_compute_whole_history_writes_one_snapshot(tmp_path, capsys):
    log = _write(tmp_path / "ratings.csv", _LOG_3)
    out = tmp_path / "out"
    code, stdout, _ = _run(capsys, "compute", "--log", log, "--window", "whole",
                           "--out", str(out))
    assert code == 0
    assert _snapshot_names(out) == [f"{300:020d}.csv"]
    lines = (out / "differentials.jsonl").read_text().splitlines()
    assert len(lines) == 1
    entry = json.loads(lines[0])
    assert set(entry) == {
        "window", "staked", "transactional", "blended", "log_blended", "normalized",
    }
    assert entry["window"] == {"t_origin": 100, "t_prev": 100, "t_now": 300}
    assert entry["log_blended"] is None
    assert len(stdout.splitlines()) == 3


def test_compute_per_transaction_writes_three_snapshots(tmp_path, capsys):
    log = _write(tmp_path / "ratings.csv", _LOG_3)
    out = tmp_path / "out"
    code, _, _ = _run(capsys, "compute", "--log", log, "--window", "tx",
                      "--out", str(out))
    assert code == 0
    assert _snapshot_names(out) == [f"{t:020d}.csv" for t in (100, 200, 300)]
    lines = (out / "differentials.jsonl").read_text().splitlines()
    assert len(lines) == 3


def test_compute_rerun_is_byte_identical(tmp_path, capsys):
    log = _write(tmp_path / "ratings.csv", _LOG_3)
    outputs = []
    for name in ("one", "two"):
        out = tmp_path / name
        code, stdout, _ = _run(capsys, "compute", "--log", log, "--window", "tx",
                               "--out", str(out))
        assert code == 0
        outputs.append((stdout, _tree_bytes(out)))
    assert outputs[0] == outputs[1]


def test_compute_ranking_sorted_by_value_then_id(tmp_path, capsys):
    log = _write(tmp_path / "ratings.csv", _LOG_3)
    out = tmp_path / "out"
    _, stdout, _ = _run(capsys, "compute", "--log", log, "--window", "whole",
                        "--out", str(out))
    rows = [line.split(",", 1) for line in stdout.splitlines()]
    pairs = [(pid, float(raw)) for pid, raw in rows]
    assert {pid for pid, _ in pairs} == {"alice", "bob", "carol"}
    assert pairs == sorted(pairs, key=lambda kv: (-kv[1], kv[0]))
    # stdout agrees with the stored final snapshot
    state = load_snapshot(out / "snapshots" / f"{300:020d}.csv")
    assert dict(pairs) == state.values


def test_compute_stdout_is_utf8_whatever_the_locale(tmp_path):
    # Through the console-script entry point: an ASCII or Latin-1 stdout
    # still gets the UTF-8 ranking, and exit 0; error lines are UTF-8 too.
    good = _write(tmp_path / "ratings.csv", "alé,böb,transaction,,,1.0,1,,100\n")
    bad = _write(tmp_path / "self.csv", "alé,alé,transaction,,,1.0,1,,100\n")
    runs = {}
    for encoding in ("utf-8", "ascii", "latin-1"):
        env = dict(_src_env(), PYTHONIOENCODING=encoding)
        ok, failed = (
            subprocess.run(
                [sys.executable, "-m", "liquidrank.cli", "compute", "--log", log,
                 "--window", "whole", "--out", str(tmp_path / f"{name}-{encoding}")],
                env=env, capture_output=True, timeout=60,
            )
            for name, log in (("good", good), ("bad", bad))
        )
        assert (ok.returncode, ok.stderr) == (0, b""), encoding
        assert (failed.returncode, failed.stdout) == (1, b""), encoding
        runs[encoding] = ok.stdout, failed.stderr
    stdout, stderr = runs["utf-8"]
    assert stdout == "böb,1.0\n".encode("utf-8")
    assert "self-rating by 'alé'".encode("utf-8") in stderr
    assert runs["ascii"] == runs["latin-1"] == runs["utf-8"]


def test_compute_engine_config_enables_log_audit(tmp_path, capsys):
    log = _write(tmp_path / "ratings.csv", _LOG_3)
    cfg = _write(tmp_path / "engine.cfg",
                 "# audit on a log scale\nuse_log_differential = true\n"
                 "aspect_weight.a\x0cb = 2\n")  # a form feed ends no line
    out = tmp_path / "out"
    code, _, _ = _run(capsys, "compute", "--log", log, "--window", "whole",
                      "--out", str(out), "--config", cfg)
    assert code == 0
    entry = json.loads((out / "differentials.jsonl").read_text().splitlines()[0])
    assert isinstance(entry["log_blended"], dict)


def test_compute_unknown_config_key_exits_2(tmp_path, capsys):
    log = _write(tmp_path / "ratings.csv", _LOG_3)
    cfg = _write(tmp_path / "engine.cfg", "frobnicate = 1\n")
    code, _, err = _run(capsys, "compute", "--log", log, "--window", "whole",
                        "--out", str(tmp_path / "out"), "--config", cfg)
    assert code == 2
    assert "frobnicate" in err


@pytest.mark.parametrize("cfg_text", [
    "use_log_financial = maybe\n",
    "aspect_weight. = 0.5\n",
    "blend_stake = lots\n",
    "blend_stake = 1\nblend_transaction = \udcff\n",
])
def test_compute_bad_config_file_exits_2(tmp_path, capsys, cfg_text):
    log = _write(tmp_path / "ratings.csv", _LOG_3)
    cfg = _write(tmp_path / "engine.cfg", cfg_text)
    code, _, err = _run(capsys, "compute", "--log", log, "--window", "whole",
                        "--out", str(tmp_path / "out"), "--config", cfg)
    assert code == 2
    assert err.startswith("error:")
    if "\udcff" in cfg_text:
        assert err.startswith("error: line 2: byte 0xff is not valid UTF-8")


def test_compute_ignores_a_byte_order_mark_on_log_and_config(tmp_path, capsys):
    results = []
    for name, mark in (("plain", ""), ("marked", "\ufeff")):
        log = _write(tmp_path / f"{name}.csv", mark + _LOG_3)
        cfg = _write(tmp_path / f"{name}.cfg", mark + "use_log_financial = true\n")
        out = tmp_path / name
        code, stdout, err = _run(capsys, "compute", "--log", log, "--config", cfg,
                                 "--window", "tx", "--out", str(out))
        assert (code, err) == (0, "")
        results.append((stdout, _tree_bytes(out)))
    assert results[0] == results[1]
    assert results[0][0].startswith(("alice,", "bob,", "carol,"))


def test_compute_bad_window_spec_exits_2(tmp_path, capsys):
    log = _write(tmp_path / "ratings.csv", _LOG_3)
    code, _, err = _run(capsys, "compute", "--log", log, "--window", "daily",
                        "--out", str(tmp_path / "out"))
    assert code == 2
    assert err.startswith("error:")


def test_compute_invalid_record_names_its_line(tmp_path, capsys):
    for bad_row in ("bob,bob,transaction,,,0.5,1,,200\n",
                    "bob,carol,transaction,,,0.5,inf,,200\n",
                    "bob,c\udcffrol,transaction,,,0.5,1,,200\n",
                    "bob,carol,transaction,,,0.5,1,,200\rcarol,bob,stake,,,1,1,,300\n"):
        log = _write(tmp_path / "ratings.csv", "alice,bob,stake,,,1.0,1,,100\n" + bad_row)
        code, _, err = _run(capsys, "compute", "--log", log, "--window", "whole",
                            "--out", str(tmp_path / "out"))
        assert code == 1
        assert "line 2" in err


def test_compute_overflowing_weights_exit_1(tmp_path, capsys):
    # finite weights whose backing total overflows used to print c,0.0
    rows = "".join(f"{rater},c,transaction,,,0.5,1.7e308,,1\n" for rater in "abd")
    log = _write(tmp_path / "ratings.csv", rows + "a,b,transaction,,,0.5,1,,1\n")
    code, stdout, err = _run(capsys, "compute", "--log", log, "--window", "whole",
                             "--out", str(tmp_path / "out"))
    assert code == 1
    assert stdout == ""
    assert "'c'" in err and "t=1" in err


_HUGE = 10**400  # 401 digits: an exact int, but no float holds it


@pytest.mark.parametrize("stamps, origin, window", [
    ((1, _HUGE, _HUGE + 1), None, "tx"),  # a window too long for a float
    ((5, 6, 7), -_HUGE, "tx"),  # an origin too far back
    # too many periods to count: rejected before any window is built
    ((5, 6, 7), -_HUGE, "period:10"),
], ids=["long-window", "far-origin", "far-origin-period"])
def test_compute_overflowing_time_span_exits_1(tmp_path, capsys, stamps, origin, window):
    rows = "".join(
        f"{rater},{ratee},transaction,,,0.5,1,,{t}\n"
        for (rater, ratee), t in zip(("ab", "bc", "ca"), stamps)
    )
    log = _write(tmp_path / "ratings.csv", rows)
    argv = ["compute", "--log", log, "--window", window, "--out", str(tmp_path / "out")]
    if origin is not None:
        argv += ["--origin", str(origin)]
    code, stdout, err = _run(capsys, *argv)
    assert code == 1
    assert stdout == ""
    assert err.startswith("error: window from t=")


def test_failed_compute_rerun_keeps_the_previous_outputs(tmp_path, capsys):
    log = tmp_path / "ratings.csv"
    out = tmp_path / "out"
    _write(log, "a,b,stake,,,1.0,1,,100\nb,a,transaction,,,0.5,1,,200\n")
    code, _, _ = _run(capsys, "compute", "--log", str(log), "--window", "tx", "--out", str(out))
    assert code == 0
    first = _tree_bytes(out)
    assert len(first) == 3 and first["differentials.jsonl"]
    # The first window now folds to a different snapshot than the stored one.
    _write(log, "a,b,stake,,,-1.0,1,,100\nb,a,transaction,,,0.5,1,,200\n")
    code, stdout, err = _run(capsys, "compute", "--log", str(log), "--window", "tx",
                             "--out", str(out))
    assert (code, stdout) == (1, "")
    assert "snapshot at t=100 already exists with different content" in err
    assert _tree_bytes(out) == first


def _overflowing_rows(at):
    # three ratings of 1.7e308 overflow the weighted mean of their window
    return "".join(f"{rater},c,transaction,,,1,1.7e308,,{at}\n" for rater in "abd")


def test_failed_compute_leaves_no_snapshot_and_no_audit(tmp_path, capsys):
    log = _write(tmp_path / "ratings.csv", "x,y,transaction,,,0.5,1,,0\n" + _overflowing_rows(1))
    out = tmp_path / "out"
    code, stdout, err = _run(capsys, "compute", "--log", log, "--window", "tx", "--out", str(out))
    assert (code, stdout) == (1, "")
    assert "ratee 'c': weighted mean overflows in the window from t=0" in err
    assert _tree_bytes(out) == {}


def test_failed_compute_rerun_removes_the_snapshots_it_wrote(tmp_path, capsys):
    good = "x,y,transaction,,,0.5,1,,0\nx,z,transaction,,,0.5,1,,1\n"
    log = tmp_path / "ratings.csv"
    out = tmp_path / "out"
    _write(log, good)
    code, _, _ = _run(capsys, "compute", "--log", str(log), "--window", "tx", "--out", str(out))
    assert code == 0
    first = _tree_bytes(out)
    assert len(first) == 3
    _write(log, good + "p,q,transaction,,,0.5,1,,2\n" + _overflowing_rows(3))
    code, stdout, err = _run(capsys, "compute", "--log", str(log), "--window", "tx",
                             "--out", str(out))
    assert (code, stdout) == (1, "")
    assert "weighted mean overflows" in err
    assert _tree_bytes(out) == first


def test_failed_put_leaves_no_temp_file(tmp_path, capsys, monkeypatch):
    log = _write(tmp_path / "ratings.csv", "a,b,stake,,,1.0,1,,100\nb,a,transaction,,,0.5,1,,200\n")
    out = tmp_path / "out"
    real_replace, calls = store.os.replace, []

    def replace_then_fail(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        real_replace(src, dst)

    monkeypatch.setattr(store.os, "replace", replace_then_fail)
    code, stdout, err = _run(capsys, "compute", "--log", log, "--window", "tx", "--out", str(out))
    assert (code, stdout) == (1, "")
    assert "No space left on device" in err
    assert Path(calls[1]).name == f"{200:020d}.csv"
    assert _tree_bytes(out) == {}


@pytest.mark.parametrize("command, name, text, message", [
    ("compute", "ratings.jsonl",
     '{"rater":"a","ratee":"b","kind":"stake","value":1,"value":-1,"timestamp":1}\n',
     "line 1: repeated field 'value'"),
    ("compute", "ratings.jsonl",
     '{"rater":"a","ratee":"b","kind":"stake","value":1,"timestamp":1}\n["a","b"]\n',
     "line 2: expected a JSON object"),
    pytest.param("compute", "ratings.jsonl", '\n{"value":' + "9" * 4301 + "}\n",
                 "line 2: invalid JSON: an integer has too many digits", id="jsonl-long-int"),
    pytest.param("compute", "ratings.jsonl", "[" * 100_000 + "]" * 100_000 + "\n",
                 "line 1: invalid JSON: nested too deeply", id="jsonl-deep-nesting"),
    ("stats", "snapshot.csv", "10\na,0.9\nb,zero\n", "line 3: reputation 'zero' is not a number"),
    ("stats", "snapshot.csv", "x\na,0.5\n", "line 1: snapshot header 'x' is not a timestamp"),
    ("stats", "snapshot.csv", "+5_0\np, 0.5 \nq,1_0e-1\r\n",
     "line 1: snapshot header '+5_0' is not a timestamp"),
    ("stats", "snapshot.csv", "5\np,0.5\nq,1_0e-1\r\n", r"line 3: reputation '1_0e-1\r' is not a number"),
    ("stats", "snapshot.csv", "\u0665\np,\u0660.5\n", "line 1: snapshot header '\u0665' is not a timestamp"),
    ("stats", "snapshot.csv", "", "line 1: empty snapshot"),
])
def test_bad_data_line_exits_1_with_its_line(tmp_path, capsys, command, name, text, message):
    path = _write(tmp_path / name, text)
    out = tmp_path / "out"
    argv = {
        "compute": ["--log", path, "--window", "tx", "--out", str(out)],
        "stats": ["--snapshot", path],
    }[command]
    code, stdout, err = _run(capsys, command, *argv)
    assert (code, stdout, err) == (1, "", f"error: {message}\n")
    assert not out.exists()


def test_compute_missing_log_exits_1(tmp_path, capsys):
    code, _, err = _run(capsys, "compute", "--log", str(tmp_path / "nope.csv"),
                        "--window", "whole", "--out", str(tmp_path / "out"))
    assert code == 1
    assert err.startswith("error:")


def test_compute_origin_after_records_exits_1(tmp_path, capsys):
    log = _write(tmp_path / "ratings.csv", _LOG_3)
    code, _, err = _run(capsys, "compute", "--log", log, "--window", "whole",
                        "--out", str(tmp_path / "out"), "--origin", "400")
    assert code == 1
    assert err.startswith("error:")


# -- validate / stats / export ----------------------------------------------


def _write_snapshot(path, at, values):
    lines = [str(at)] + [f"{pid},{v!r}" for pid, v in values.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_validate_prints_six_decimal_pearson(tmp_path, capsys):
    snap = _write_snapshot(tmp_path / "snap.csv", 10,
                           {"a": 0.9, "b": 0.1, "c": 0.7})
    ref = _write(tmp_path / "ref.csv", "a,1\nb,0\nc,1\n")
    code, stdout, _ = _run(capsys, "validate", "--snapshot", snap,
                           "--reference", ref)
    assert code == 0
    line = stdout.strip()
    assert re.fullmatch(r"pearson -?\d\.\d{6}", line)
    expected = pearson({"a": 1.0, "b": 0.0, "c": 1.0}, load_snapshot(snap))
    assert line == f"pearson {expected:.6f}"


def test_validate_constant_snapshot_exits_3(tmp_path, capsys):
    snap = _write_snapshot(tmp_path / "snap.csv", 10,
                           {"a": 0.5, "b": 0.5, "c": 0.5})
    ref = _write(tmp_path / "ref.csv", "a,1\nb,0\nc,1\n")
    code, stdout, err = _run(capsys, "validate", "--snapshot", snap,
                             "--reference", ref)
    assert code == 3
    assert stdout == ""
    assert "undefined correlation" in err


def test_validate_strict_missing_excludes_absent_participants(tmp_path, capsys):
    # c is unlabeled-in-snapshot; default mode scores it at 0.5
    snap = _write_snapshot(tmp_path / "snap.csv", 10, {"a": 0.9, "b": 0.1})
    ref = _write(tmp_path / "ref.csv", "a,1\nb,0\nc,1\n")
    code, default_out, _ = _run(capsys, "validate", "--snapshot", snap,
                                "--reference", ref)
    assert code == 0
    code, strict_out, _ = _run(capsys, "validate", "--snapshot", snap,
                               "--reference", ref, "--strict-missing")
    assert code == 0
    assert strict_out == "pearson 1.000000\n"
    assert default_out != strict_out


def test_validate_strict_missing_can_leave_too_few_pairs(tmp_path, capsys):
    snap = _write_snapshot(tmp_path / "snap.csv", 10, {"a": 0.9})
    ref = _write(tmp_path / "ref.csv", "a,1\nb,0\n")
    code, _, err = _run(capsys, "validate", "--snapshot", snap,
                        "--reference", ref, "--strict-missing")
    assert code == 3
    assert "undefined correlation" in err


def test_stats_reports_distribution_lines(tmp_path, capsys):
    values = {"a": 0.8, "b": 0.2, "c": 0.0, "d": 0.4}
    snap = _write_snapshot(tmp_path / "snap.csv", 10, values)
    code, stdout, _ = _run(capsys, "stats", "--snapshot", snap)
    assert code == 0
    got = dict(line.split(" ", 1) for line in stdout.splitlines())
    stats = distribution_stats(load_snapshot(snap))
    assert got["participants"] == "4"
    assert got["gini"] == f"{stats.gini:.6f}"
    assert got["top_share"] == f"{stats.top_share:.6f}"
    assert got["nonzero_fraction"] == "0.750000"


def test_stats_on_snapshot_without_participants_exits_1(tmp_path, capsys):
    # a lone revoked stake leaves the whole-history state empty
    log = _write(tmp_path / "ratings.csv", "a,b,stake,,,0,1,,5\n")
    out = tmp_path / "out"
    code, _, _ = _run(capsys, "compute", "--log", log, "--window", "whole",
                      "--out", str(out))
    assert code == 0
    snap = out / "snapshots" / f"{5:020d}.csv"
    assert snap.read_text() == "5\n"
    code, stdout, err = _run(capsys, "stats", "--snapshot", str(snap))
    assert code == 1
    assert stdout == ""
    assert err.startswith("error:")


def test_export_two_nodes_one_edge(tmp_path, capsys):
    snap = _write_snapshot(tmp_path / "snap.csv", 10, {"a": 0.9, "b": 0.2})
    log = _write(tmp_path / "ratings.csv", "a,b,transaction,,,1.0,1,,5\n")
    dot = tmp_path / "graph.dot"
    code, _, _ = _run(capsys, "export", "--snapshot", snap, "--log", log,
                      "--out", str(dot))
    assert code == 0
    text = dot.read_text()
    assert text == (
        "digraph reputation {\n"
        '  "a" [weight=0.9];\n'
        '  "b" [weight=0.2];\n'
        '  "a" -> "b" [weight=1];\n'
        "}\n"
    )


def test_export_counts_repeat_edges_and_defaults_unknown_nodes(tmp_path, capsys):
    snap = _write_snapshot(tmp_path / "snap.csv", 10, {"a": 0.9})
    log = _write(
        tmp_path / "ratings.csv",
        "a,b,transaction,,,1.0,1,,5\n"
        "a,b,transaction,,,0.5,1,,6\n",
    )
    dot = tmp_path / "graph.dot"
    code, _, _ = _run(capsys, "export", "--snapshot", snap, "--log", log,
                      "--out", str(dot))
    assert code == 0
    text = dot.read_text()
    assert '"a" -> "b" [weight=2];' in text
    assert '"b" [weight=0.5];' in text


def _csv_field(token):
    return '"' + token.replace('"', '""') + '"'


def _dot_by_join(values, records, default):
    """The DOT text built as a list of lines and joined once; ``export``
    writes each line as it renders it and must give the same bytes."""
    def quote(token):
        return '"' + token.replace("\\", "\\\\").replace('"', '\\"') + '"'

    participants = set(values)
    edges = {}
    for rater, ratee in records:
        participants.update((rater, ratee))
        edges[(rater, ratee)] = edges.get((rater, ratee), 0) + 1
    lines = ["digraph reputation {"]
    for pid in sorted(participants):
        lines.append(f"  {quote(pid)} [weight={values.get(pid, default)!r}];")
    for (rater, ratee) in sorted(edges):
        lines.append(f"  {quote(rater)} -> {quote(ratee)} [weight={edges[(rater, ratee)]}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", [3, 17])
def test_export_bytes_match_list_and_join_rendering(tmp_path, capsys, seed):
    rng = random.Random(seed)
    ids = ["a", 'q"uote', "back\\slash", '\\"', "é", "z z", "m\t"] + [f"p{i}" for i in range(30)]
    snapshot_only = ['s"0', "s\\1", "s2"]
    values = {
        pid: rng.choice([0.0, 1.0, rng.random()])
        for pid in rng.sample(ids, 15) + snapshot_only
    }
    # Most ratings fall among the first dozen ids, so edges repeat.
    records = [tuple(rng.sample(ids[:12] if t % 3 else ids, 2)) for t in range(300)]
    log_text = "".join(
        f"{_csv_field(rater)},{_csv_field(ratee)},transaction,,,0.5,1,,{t}\n"
        for t, (rater, ratee) in enumerate(records)
    )
    log_ids = {pid for edge in records for pid in edge}
    assert set(values) - log_ids and log_ids - set(values)  # both kinds of node
    assert len(set(records)) < len(records)
    snap = _write_snapshot(tmp_path / "snap.csv", 10, values)
    log = _write(tmp_path / "ratings.csv", log_text)
    dot = tmp_path / "graph.dot"
    code, stdout, err = _run(capsys, "export", "--snapshot", snap, "--log", log,
                             "--out", str(dot), "--default-reputation", "0.25")
    assert (code, stdout, err) == (0, "", "")
    assert dot.read_bytes() == _dot_by_join(values, records, 0.25).encode("utf-8")


def test_failed_export_keeps_the_previous_graph(tmp_path, capsys, monkeypatch):
    snap = _write_snapshot(tmp_path / "snap.csv", 10, {"a": 0.9, "b": 0.2})
    log = _write(tmp_path / "ratings.csv", "a,b,transaction,,,1.0,1,,5\n")
    dot = tmp_path / "graph.dot"
    argv = ["export", "--snapshot", snap, "--log", log, "--out", str(dot)]
    code, _, _ = _run(capsys, *argv)
    assert code == 0
    first = dot.read_bytes()
    # The second graph would differ, and the disk fills up part way through it.
    _write(Path(log), "a,b,transaction,,,1.0,1,,5\nb,c,transaction,,,1.0,1,,6\n")
    real_quote, calls = cli._dot_quote, []

    def quote_then_fail(token):
        calls.append(token)
        if len(calls) == 4:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_quote(token)

    monkeypatch.setattr(cli, "_dot_quote", quote_then_fail)
    code, stdout, err = _run(capsys, *argv)
    assert (code, stdout) == (1, "")
    assert "No space left on device" in err
    assert dot.read_bytes() == first
    assert sorted(p.name for p in tmp_path.iterdir()) == ["graph.dot", "ratings.csv", "snap.csv"]


@pytest.mark.parametrize("command, bad_file", [
    ("stats", "snapshot"), ("validate", "snapshot"), ("validate", "reference"),
    ("export", "snapshot"), ("export", "log"),
])
def test_undecodable_data_file_names_its_line(tmp_path, capsys, command, bad_file):
    texts = {
        "snapshot": "10\na,0.9\nb,0.2\n",
        "reference": "a,1\nb,0\n",
        "log": "a,b,transaction,,,1.0,1,,5\nb,a,transaction,,,1.0,1,,6\n",
    }
    texts[bad_file] = texts[bad_file].replace("b", "b\udcff", 1)
    paths = {name: _write(tmp_path / f"{name}.csv", text) for name, text in texts.items()}
    argv = {
        "stats": ["--snapshot", paths["snapshot"]],
        "validate": ["--snapshot", paths["snapshot"], "--reference", paths["reference"]],
        "export": ["--snapshot", paths["snapshot"], "--log", paths["log"],
                   "--out", str(tmp_path / "graph.dot")],
    }[command]
    code, stdout, err = _run(capsys, command, *argv)
    assert code == 1
    assert stdout == ""
    line = texts[bad_file][:texts[bad_file].index("\udcff")].count("\n") + 1
    assert err.startswith(f"error: line {line}: byte 0xff is not valid UTF-8")


@pytest.mark.parametrize("command", ["validate", "export"])
@pytest.mark.parametrize("value", ["nan", "inf", "-3", "2"])
def test_bad_default_reputation_exits_2(tmp_path, capsys, command, value):
    snap = _write_snapshot(tmp_path / "snap.csv", 10, {"a": 0.9, "b": 0.1})
    argv = {
        "validate": ["--reference", _write(tmp_path / "ref.csv", "a,1\nb,0\nc,1\n")],
        "export": ["--log", _write(tmp_path / "ratings.csv", "a,c,transaction,,,1.0,1,,5\n"),
                   "--out", str(tmp_path / "graph.dot")],
    }[command]
    code, stdout, err = _run(capsys, command, "--snapshot", snap,
                             "--default-reputation", value, *argv)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: --default-reputation must lie in [0, 1]")
    assert not (tmp_path / "graph.dot").exists()


# -- simulate ----------------------------------------------------------------


def test_simulate_writes_transcript_and_summary(tmp_path, capsys):
    out = tmp_path / "sim"
    code, stdout, _ = _run(capsys, "simulate", "--agencies", "5",
                           "--cycles", "3", "--min-identical", "3",
                           "--out", str(out))
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["agencies"] == ["a00", "a01", "a02", "a03", "a04"]
    assert summary["cycles"] == 3
    assert len(summary["per_cycle"]) == 3
    for row in summary["per_cycle"]:
        assert row["outcomes"]["accepted"] == 5
        assert row["alerts"] == {}
        assert row["divergent"] == []
        assert len(row["rewards"]) == 1
    for line in (out / "transcript.jsonl").read_text().splitlines():
        json.loads(line)


def test_simulate_stdout_table(tmp_path, capsys):
    out = tmp_path / "sim"
    _, stdout, _ = _run(capsys, "simulate", "--agencies", "5", "--cycles", "2",
                        "--out", str(out))
    lines = stdout.splitlines()
    assert lines[0] == "cycle accepted disputed broken undecided alerts rewards"
    assert len(lines) == 3
    for cycle, line in enumerate(lines[1:]):
        fields = line.split(" ")
        assert fields[0] == str(cycle)
        assert fields[1:6] == ["5", "0", "0", "0", "0"]
        assert re.fullmatch(r"a0\d", fields[6])


def test_simulate_rerun_is_byte_identical(tmp_path, capsys):
    outputs = []
    for name in ("one", "two"):
        out = tmp_path / name
        code, stdout, _ = _run(capsys, "simulate", "--agencies", "6",
                               "--cycles", "4", "--seed", "11",
                               "--delay-max", "3", "--drop-rate", "0.2",
                               "--faulty", "divergent:1",
                               "--min-identical", "3",
                               "--max-nonidentical", "6",
                               "--out", str(out))
        assert code == 0
        outputs.append((stdout, _tree_bytes(out)))
    assert outputs[0] == outputs[1]


_real_export = consensus.export_transcript


def _export_50_lines_then_fail(events, path):
    _real_export(events[:50], path)
    raise OSError(errno.ENOSPC, "No space left on device")


def _fail_summary(result):
    raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("name, failing", [
    ("export_transcript", _export_50_lines_then_fail),
    ("summarize", _fail_summary),
])
def test_failed_simulate_rerun_keeps_the_previous_outputs(tmp_path, capsys, monkeypatch,
                                                          name, failing):
    out = tmp_path / "sim"
    argv = ["simulate", "--agencies", "5", "--cycles", "3", "--faulty", "divergent:1",
            "--delay-max", "3", "--drop-rate", "0.1", "--out", str(out)]
    code, _, _ = _run(capsys, *argv, "--seed", "1")
    assert code == 0
    first = _tree_bytes(out)
    assert sorted(first) == ["summary.json", "transcript.jsonl"]
    monkeypatch.setattr(consensus, name, failing)
    code, stdout, err = _run(capsys, *argv, "--seed", "2")
    assert (code, stdout) == (1, "")
    assert "No space left on device" in err
    assert _tree_bytes(out) == first


def test_failed_rename_keeps_the_simulate_pair_whole(tmp_path, capsys, monkeypatch):
    out = tmp_path / "sim"
    argv = ["simulate", "--agencies", "4", "--cycles", "2", "--out", str(out)]
    real_replace, calls = store.os.replace, []

    def replace_second_fails(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        real_replace(src, dst)

    with monkeypatch.context() as patch:
        patch.setattr(store.os, "replace", replace_second_fails)
        assert _run(capsys, *argv, "--seed", "1")[:2] == (1, "")
    # The transcript renamed before the failed summary rename is removed.
    assert _tree_bytes(out) == {}
    assert _run(capsys, *argv, "--seed", "1")[0] == 0
    first = _tree_bytes(out)
    calls.clear()
    monkeypatch.setattr(store.os, "replace", replace_second_fails)
    code, stdout, err = _run(capsys, *argv, "--seed", "2", "--faulty", "divergent:1")
    assert (code, stdout) == (1, "")
    assert "No space left on device" in err
    # The third rename puts the previous transcript back.
    assert [Path(dst).name for dst in calls] == ["transcript.jsonl", "summary.json",
                                                 "transcript.jsonl"]
    assert _tree_bytes(out) == first


def test_simulate_honest_outcomes_ignore_seed(tmp_path, capsys):
    tables = []
    for seed in ("1", "2", "3"):
        out = tmp_path / f"sim{seed}"
        code, _, _ = _run(capsys, "simulate", "--agencies", "5",
                          "--cycles", "4", "--seed", seed,
                          "--delay-max", "4", "--out", str(out))
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        tables.append([row["outcomes"] for row in summary["per_cycle"]])
    assert tables[0] == tables[1] == tables[2]


def test_simulate_names_divergent_agency_every_cycle(tmp_path, capsys):
    out = tmp_path / "sim"
    code, _, _ = _run(capsys, "simulate", "--agencies", "5", "--cycles", "3",
                      "--faulty", "divergent:1", "--min-identical", "3",
                      "--max-nonidentical", "5", "--out", str(out))
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    for row in summary["per_cycle"]:
        assert row["divergent"] == ["a00"]
        assert row["outcomes"]["accepted_with_dispute"] >= 4


def test_simulate_consensus_config_file(tmp_path, capsys):
    cfg = _write(
        tmp_path / "consensus.cfg",
        "min_identical = 3\n"
        "max_nonidentical = 5\n"
        "timeout = 7\n"
        "por_weighted = on\n"
        "agency_reputation.a00 = 0.25\n",
    )
    out = tmp_path / "sim"
    code, _, _ = _run(capsys, "simulate", "--agencies", "5", "--cycles", "2",
                      "--config", cfg, "--out", str(out))
    assert code == 0


@pytest.mark.parametrize("cfg_text", [
    "warp_speed = 9\n",
    "por_weighted = maybe\n",
    "agency_reputation. = 0.5\n",
    "min_identical = lots\n",
    "min_identical = nan\n",
    "max_nonidentical = inf\n",
    "timeout = 5\n# \udcff\n",
])
def test_simulate_bad_config_file_exits_2(tmp_path, capsys, cfg_text):
    cfg = _write(tmp_path / "consensus.cfg", cfg_text)
    code, _, err = _run(capsys, "simulate", "--agencies", "5",
                        "--config", cfg, "--out", str(tmp_path / "sim"))
    assert code == 2
    assert err.startswith("error:")
    if "\udcff" in cfg_text:
        assert err.startswith("error: line 2: byte 0xff is not valid UTF-8")


@pytest.mark.parametrize("spec", ["gremlin:1", "divergent:x", "divergent:-1",
                                  "divergent:9", "bogus:0"])
def test_simulate_bad_fault_spec_exits_2(tmp_path, capsys, spec):
    code, _, err = _run(capsys, "simulate", "--agencies", "5",
                        "--faulty", spec, "--out", str(tmp_path / "sim"))
    assert code == 2
    assert err.startswith("error:")
    kind = spec.partition(":")[0]
    if kind not in consensus.FAULT_KINDS:
        # A kind is checked even when no agency gets it.
        assert err == (f"error: unknown fault kind {kind!r}; "
                       "expected one of silent, divergent, equivocating\n")


def test_simulate_fault_spec_without_count_means_one(tmp_path, capsys):
    out = tmp_path / "sim"
    code, _, _ = _run(capsys, "simulate", "--agencies", "5", "--cycles", "2",
                      "--faulty", "silent", "--out", str(out))
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    # one silent agency out of five cannot block the default quorum of 2
    for row in summary["per_cycle"]:
        assert row["outcomes"]["accepted"] >= 4


@pytest.mark.parametrize("flag", ["--cycles", "--reward-slots"])
def test_simulate_negative_count_exits_2(tmp_path, capsys, flag):
    out = tmp_path / "sim"
    code, stdout, err = _run(capsys, "simulate", "--agencies", "4", flag, "-1",
                             "--out", str(out))
    assert code == 2
    assert err.startswith("error:") and "non-negative" in err
    assert stdout == ""
    assert not out.exists()


# -- config checks -----------------------------------------------------------

# Every check a config runs, reached through a config file: the command, the
# file's text and the whole message the CLI prints.
_BAD_CONFIGS = [
    ("compute", "no equals sign\n", "line 1: expected 'key = value', got 'no equals sign'"),
    ("simulate", "  = 3\n", "line 1: empty key"),
    ("simulate", "timeout = 3\ntimeout = 4\n", "line 2: duplicate key 'timeout'"),
    ("compute", "default_reputation = 1.5\n", "default_reputation must lie in [0, 1], got 1.5"),
    ("compute", "blend_stake = nan\n", "blend_stake must be a finite number, got nan"),
    ("compute", "decay_past = inf\n", "decay_past must be a finite number, got inf"),
    ("compute", "blend_transaction = -1\n", "blend weights must be non-negative"),
    ("compute", "blend_stake = 0\nblend_transaction = 0\n",
     "blend_stake and blend_transaction must not both be zero"),
    ("compute", "blend_stake = 1e308\nblend_transaction = 1e308\n",
     "blend_stake + blend_transaction must be finite"),
    ("compute", "decay_recent = 0\n", "decay coefficients must be positive"),
    ("compute", "decay_past = -1\n", "decay coefficients must be positive"),
    ("compute", "rater_weight_floor = -0.1\n", "rater_weight_floor must be non-negative"),
    ("compute", "default_aspect_weight = 0\n", "default_aspect_weight must be positive"),
    ("compute", "aspect_weight.speed = 0\n", "aspect weight for 'speed' must be positive, got 0.0"),
    ("compute", "aspect_weight.speed = nan\n",
     "aspect weight for 'speed' must be positive, got nan"),
    ("simulate", "min_identical = 2.5\n",
     "min_identical must be an integer without reputation weighting"),
    ("simulate", "max_nonidentical = 1.5\n",
     "max_nonidentical must be an integer without reputation weighting"),
    ("simulate", "por_weighted = true\nmin_identical = 0\n",
     "min_identical weight threshold must be positive"),
    ("simulate", "por_weighted = true\nmax_nonidentical = -0.5\n",
     "max_nonidentical weight threshold must be positive"),
    ("simulate", "min_identical = 1\n", "min_identical must be at least 2"),
    ("simulate", "max_nonidentical = 0\n", "max_nonidentical must be at least 1"),
    ("simulate", "timeout = 0\n", "timeout must be at least 1 tick"),
    ("simulate", "agency_reputation.a01 = 1.5\n",
     "agency reputation for 'a01' must lie in [0, 1], got 1.5"),
]


@pytest.mark.parametrize("command, cfg_text, message", _BAD_CONFIGS)
def test_each_config_check_exits_2_with_its_message(tmp_path, capsys, command, cfg_text,
                                                     message):
    cfg = _write(tmp_path / "run.cfg", cfg_text)
    out = tmp_path / "out"
    argv = {
        "compute": ["--log", _write(tmp_path / "ratings.csv", _LOG_3), "--window", "tx"],
        "simulate": ["--agencies", "5"],
    }[command]
    code, stdout, err = _run(capsys, command, *argv, "--config", cfg, "--out", str(out))
    assert (code, stdout, err) == (2, "", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--min-identical", "1"], "min_identical must be at least 2"),
    (["--min-identical", "2.5"], "min_identical must be an integer without reputation weighting"),
    (["--max-nonidentical", "0"], "max_nonidentical must be at least 1"),
    (["--timeout", "0"], "timeout must be at least 1 tick"),
    (["--por", "--min-identical", "0"], "min_identical weight threshold must be positive"),
    (["--faulty", "bogus:1"],
     "unknown fault kind 'bogus'; expected one of silent, divergent, equivocating"),
    (["--delay-min", "3", "--delay-max", "1"], "need 0 <= delay_min <= delay_max"),
    (["--delay-min", "-1"], "need 0 <= delay_min <= delay_max"),
    (["--drop-rate", "1.0"], "drop_rate must lie in [0, 1)"),
    (["--drop-rate", "-0.1"], "drop_rate must lie in [0, 1)"),
    (["--drop-rate", "nan"], "drop_rate must lie in [0, 1)"),
])
def test_simulate_bad_override_flag_exits_2(tmp_path, capsys, flags, message):
    out = tmp_path / "sim"
    code, stdout, err = _run(capsys, "simulate", "--agencies", "5", *flags, "--out", str(out))
    assert (code, stdout, err) == (2, "", f"error: {message}\n")
    assert not out.exists()


def test_simulate_flags_override_the_config_file(tmp_path, capsys):
    cfg = _write(tmp_path / "consensus.cfg", "min_identical = 5\ntimeout = 9\n")
    flagged = tmp_path / "flagged"
    code, _, err = _run(capsys, "simulate", "--agencies", "5", "--cycles", "2",
                        "--config", cfg, "--min-identical", "3", "--timeout", "4",
                        "--out", str(flagged))
    assert (code, err) == (0, "")
    plain = _write(tmp_path / "plain.cfg", "min_identical = 3\ntimeout = 4\n")
    code, _, _ = _run(capsys, "simulate", "--agencies", "5", "--cycles", "2",
                      "--config", plain, "--out", str(tmp_path / "plain"))
    assert code == 0
    assert _tree_bytes(flagged) == _tree_bytes(tmp_path / "plain")


def test_simulate_huge_delay_range_finishes(tmp_path):
    # The loop visits only ticks with a delivery or a timeout deadline, so
    # a delay range of 10^12 ticks costs what a range of 3 does.
    out = tmp_path / "sim"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "liquidrank.cli", "simulate", "--agencies", "4",
         "--cycles", "3", "--delay-max", "1000000000000", "--out", str(out)],
        env=_src_env(), capture_output=True, text=True, timeout=30,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 10.0
    # Every node times out long before a peer's digest can arrive.
    assert proc.stdout.splitlines()[1:] == [f"{c} 0 0 4 0 4 -" for c in range(3)]
    receives = [json.loads(line) for line in (out / "transcript.jsonl").read_text().splitlines()
                if '"type":"receive"' in line]
    assert len(receives) == 3 * 4 * 4
    assert max(ev["tick"] for ev in receives) > 10**9


# -- argument handling -------------------------------------------------------


def test_missing_required_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--window", "whole"])
    assert exc.value.code == 2


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


# -- the cyclic collector ----------------------------------------------------

# Runs ``main`` with the collector off from the start and prints its exit
# code, what ``gc.collect()`` then finds, and whether the collector is on.
_GC_PROBE = """
import contextlib, gc, io, sys
gc.disable()
from liquidrank.cli import main
gc.collect()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, gc.collect(), gc.isenabled())
"""


def _unreachable_after_main(argv):
    proc = subprocess.run([sys.executable, "-c", _GC_PROBE, *argv], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, found, enabled = proc.stdout.split()
    assert (code, enabled) == ("0", "False")
    return int(found)


@pytest.mark.parametrize("window", ["tx", "period:100"])
def test_compute_builds_no_cycles_that_grow_with_the_log(tmp_path, window):
    # The console script runs with the collector off; that is only safe
    # while the garbage cycles a command leaves do not grow with its input.
    small = _write(tmp_path / "small.csv", _LOG_3)
    records = lognormal_transaction_community(n_participants=200, n_ratings=2000, seed=5)
    large = _write(tmp_path / "large.csv", "".join(
        f"{r.rater},{r.ratee},{r.kind.value},,,{r.value!r},{r.weight!r},,{r.timestamp}\n"
        for r in records
    ))
    found = [
        _unreachable_after_main(["compute", "--log", log, "--window", window,
                                 "--out", str(tmp_path / f"out{i}")])
        for i, log in enumerate((small, large))
    ]
    assert found[0] == found[1]


def test_simulate_builds_no_cycles_that_grow_with_the_run(tmp_path):
    found = [
        _unreachable_after_main(["simulate", "--agencies", "7", "--cycles", cycles,
                                 "--faulty", "divergent:1,equivocating:1,silent:1",
                                 "--delay-max", "3", "--drop-rate", "0.1",
                                 "--out", str(tmp_path / f"sim{cycles}")])
        for cycles in ("2", "40")
    ]
    assert found[0] == found[1]


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        code, _, _ = _run(capsys, "simulate", "--agencies", "4", "--cycles", "2",
                          "--out", str(tmp_path / "sim"))
        assert (code, gc.isenabled()) == (0, enabled)
    finally:
        (gc.enable if was else gc.disable)()


def test_console_script_runs_main_with_the_collector_off():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import gc\n"
         "from liquidrank import cli\n"
         "cli.main = lambda: print(gc.isenabled()) or 0\n"
         "cli.run()\n"],
        env=_src_env(), capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


# -- dependencies ------------------------------------------------------------


def test_import_surface():
    # The package root loads no submodule, and the CLI loads nothing from
    # outside the standard library.
    out = subprocess.run(
        [sys.executable, "-c",
         "import json, sys\n"
         "before = set(sys.modules)\n"
         "import liquidrank\n"
         "root = set(sys.modules) - before\n"
         "import liquidrank.cli\n"
         "print(json.dumps([sorted(root), sorted(set(sys.modules) - before)]))\n"],
        env=_src_env(), check=True, timeout=60, capture_output=True, text=True,
    ).stdout
    root, cli = json.loads(out)
    assert root == ["liquidrank"]
    assert "liquidrank.cli" in cli
    foreign = [
        name for name in cli
        if name.partition(".")[0] not in sys.stdlib_module_names | {"liquidrank"}
    ]
    assert foreign == []


def test_tests_import_only_the_standard_library_pytest_and_the_package():
    # The test extra is pytest alone: no test module may need anything else.
    allowed = sys.stdlib_module_names | {"pytest", "liquidrank", "oracles"}
    foreign = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            foreign += [(path.name, m) for m in modules if m.partition(".")[0] not in allowed]
    assert foreign == []
