"""Golden digests of ``compute`` outputs.

Each scenario folds a log built from ``random.Random(seed)`` and pins the
SHA-256 of its output tree (every snapshot and ``differentials.jsonl``)
and of stdout.  The digests were recorded before the log field table and
the audit-line encoder were rewritten, so they hold ``compute`` to the
bytes it wrote then; a change that means to alter them re-records
``GOLDEN`` from ``run_scenario``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from liquidrank.cli import main

_IDS = ["alice", "bob", "carol", "dané", "émile", "zoë", "u v", "p7", "q8", "r9", "s10"]
_ASPECTS = ["speed", "quality", "price"]
_CATEGORIES = ["food", "tools", "books"]


def _draw(rng: random.Random, i: int) -> dict:
    """One record as a dict of present fields; revoked stakes have value 0."""
    rater, ratee = rng.sample(_IDS, 2)
    stake = rng.random() < 0.35
    rec = {
        "rater": rater, "ratee": ratee,
        "kind": "stake" if stake else "transaction",
        "value": 0.0 if stake and rng.random() < 0.15 else round(rng.uniform(-1.0, 1.0), 3),
        "timestamp": 50 + i // 3 + rng.randrange(3),
    }
    if rng.random() < 0.8:
        rec["weight"] = round(rng.lognormvariate(0.0, 1.5), 4)
    if rng.random() < 0.4:
        rec["aspect"] = rng.choice(_ASPECTS)
    if rng.random() < 0.4:
        rec["category"] = rng.choice(_CATEGORIES)
    if rng.random() < 0.2:
        rec["event"] = f"e{i}"
    return rec


def _csv_log(seed: int, n: int) -> str:
    rng = random.Random(seed)
    order = ["rater", "ratee", "kind", "aspect", "category", "value", "weight",
             "event", "timestamp"]
    lines = []
    for i in range(n):
        rec = _draw(rng, i)
        lines.append(",".join(str(rec.get(name, "")) for name in order))
    return "".join(line + "\n" for line in lines)


def _jsonl_log(seed: int, n: int) -> str:
    rng = random.Random(seed)
    lines = []
    for i in range(n):
        rec = _draw(rng, i)
        if "event" not in rec and rng.random() < 0.3:
            rec["event"] = None
        lines.append(json.dumps(rec))
    return "".join(line + "\n" for line in lines)


_ASPECT_CFG = "aspect_weight.speed = 3\naspect_weight.price = 0.5\n"
_LOG_CFG = "use_log_financial = true\nuse_log_differential = true\n"

# name -> (log file name, log text, window spec, engine config text, extra argv).
SCENARIOS = {
    "tx-csv": ("log.csv", _csv_log(1, 60), "tx", None, []),
    "period-log-csv": ("log.csv", _csv_log(2, 200), "period:7", _LOG_CFG, []),
    "block-mixed-jsonl": ("log.jsonl", _jsonl_log(3, 240), "block:25",
                          _ASPECT_CFG + "decay_recent = 2\n", []),
    "whole-mixed-jsonl": ("log.jsonl", _jsonl_log(4, 240), "whole",
                          _ASPECT_CFG + _LOG_CFG, []),
    "origin-period-jsonl": ("log.jsonl", _jsonl_log(5, 120), "period:11", _ASPECT_CFG,
                            ["--origin", "13"]),
    "empty-log": ("log.csv", "", "tx", None, []),
}

# scenario -> (output tree, stdout) SHA-256.
GOLDEN = {
    "block-mixed-jsonl": (
        "28e1361b363ff9ce74cfa60b260956f69cd2fe4c0f17fc59a2ab823321fc8145",
        "1748957c9a8cca528879cb08bd962f30baf0c36b39ef2bd55a2749cd3a226fd0",
    ),
    "empty-log": (
        "df3dd7f361b003492f85f9a9c54a03b934a96128b03e675f6a16da90b2985967",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "origin-period-jsonl": (
        "831f8d9bfab6ccf58762340f02f9d8965bdfc22068a1756f766e8185e55ce809",
        "ef1f6ddbc3527fa951567a83c9dd654214e28561d7e4582b994c166c91c358cc",
    ),
    "period-log-csv": (
        "6aa43666734fc13ca30bf9a1d6203c3be9f31a463f0f1eacaa8a77d275bf5233",
        "2051d4558398044106b66cb2d36288c875735ba1e0e4484a913ebd84df881cd5",
    ),
    "tx-csv": (
        "c2bce28a066f6123cbc3aa864e452f9492ea60fe876a2ebb29cb51af261be6ef",
        "a553429b0ce9146d719e8a0b19da70b31cee9224c6fd315e6283223b9b512c66",
    ),
    "whole-mixed-jsonl": (
        "443a6d8c1e05c6c1fe581c9198f887700de4009e21a07d51d130adaadeb48d81",
        "3f3e99bd45d5d214aaf0d173fe63693a290c6a636214ae236be4c0f4fcb92f4b",
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tree_digest(root: Path) -> str:
    """SHA-256 over each file's relative path and the SHA-256 of its bytes."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(f"{p.relative_to(root).as_posix()}\0{_sha(p.read_bytes())}\n".encode())
    return h.hexdigest()


def run_scenario(name, tmp_path):
    """Run one scenario through ``main``; return its two output digests."""
    log_name, log_text, window, cfg_text, extra = SCENARIOS[name]
    log = tmp_path / log_name
    log.write_text(log_text, encoding="utf-8")
    out = tmp_path / "out"
    argv = ["compute", "--log", str(log), "--window", window, "--out", str(out), *extra]
    if cfg_text is not None:
        cfg = tmp_path / "engine.cfg"
        cfg.write_text(cfg_text, encoding="utf-8")
        argv += ["--config", str(cfg)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    assert code == 0
    return _tree_digest(out), _sha(stdout.getvalue().encode("utf-8"))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_compute_outputs_match_golden_digests(name, tmp_path):
    assert run_scenario(name, tmp_path) == GOLDEN[name]


def test_scenarios_cover_the_audit_fields(tmp_path):
    """The pinned runs hold log blends, revoked stakes, labels and many windows."""
    run_scenario("period-log-csv", tmp_path)
    lines = (tmp_path / "out" / "differentials.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) > 5
    assert all(json.loads(line)["log_blended"] is not None for line in lines)
    for name in ("block-mixed-jsonl", "whole-mixed-jsonl"):
        recs = [json.loads(line) for line in SCENARIOS[name][1].splitlines()]
        assert any(r["kind"] == "stake" and r["value"] == 0.0 for r in recs)
        assert {r.get("aspect") for r in recs} >= {None, *_ASPECTS}
        assert {r.get("category") for r in recs} >= {None, *_CATEGORIES}
        assert any("event" in r and r["event"] is None for r in recs)
