"""Outputs do not depend on the interpreter's string-hash seed.

``compute`` and ``simulate`` run as fresh subprocesses under several
``PYTHONHASHSEED`` values.  The seed changes the iteration order of sets
and of anything keyed by a hashed string, so every output file and
stdout must still match byte for byte across the runs.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import liquidrank

HASH_SEEDS = ("0", "1", "4242")
_IDS = ["alice", "bob", "carol", "dané", "émile", "zoë", "u v", "p7", "q8", "r9"]


def _mixed_log(path: Path) -> None:
    """Seeded JSONL log of stakes (some revoked), transactions, aspects and categories."""
    rng = random.Random(8)
    lines = []
    for i in range(300):
        rater, ratee = rng.sample(_IDS, 2)
        stake = rng.random() < 0.35
        rec = {
            "rater": rater, "ratee": ratee,
            "kind": "stake" if stake else "transaction",
            "value": 0 if stake and rng.random() < 0.15 else round(rng.uniform(-1.0, 1.0), 3),
            "weight": round(rng.lognormvariate(0.0, 1.0), 4),
            "timestamp": 10 + i // 3,
        }
        if rng.random() < 0.3:
            rec["aspect"] = rng.choice(["speed", "quality"])
        if rng.random() < 0.2:
            rec["category"] = rng.choice(["food", "tools"])
        lines.append(json.dumps(rec))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def _run_cli(argv: list[str], out: Path, hash_seed: str):
    src = Path(liquidrank.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "-m", "liquidrank.cli", *argv, "--out", str(out)],
        env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, proc.stderr, _tree_bytes(out)


def test_compute_and_simulate_match_across_hash_seeds(tmp_path):
    log = tmp_path / "mixed.jsonl"
    _mixed_log(log)
    cfg = tmp_path / "engine.cfg"
    cfg.write_text("use_log_differential = true\naspect_weight.speed = 2\n", encoding="utf-8")
    commands = {
        "compute": ["compute", "--log", str(log), "--window", "block:25",
                    "--config", str(cfg)],
        "simulate": ["simulate", "--agencies", "9", "--cycles", "5", "--seed", "4",
                     "--faulty", "divergent:2,equivocating:2,silent:1",
                     "--delay-max", "3", "--drop-rate", "0.1"],
    }
    for name, argv in commands.items():
        runs = [_run_cli(argv, tmp_path / f"{name}-{h}", h) for h in HASH_SEEDS]
        stdout, _, tree = runs[0]
        assert stdout and tree
        for other in runs[1:]:
            assert other == runs[0], f"{name} output depends on PYTHONHASHSEED"
    snapshots = [p for p in _tree_bytes(tmp_path / "compute-0") if p.startswith("snapshots")]
    assert len(snapshots) > 1
