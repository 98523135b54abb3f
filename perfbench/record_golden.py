"""Record the golden output digests of the fold workloads.

    python3 perfbench/record_golden.py --seeds 0-99

Runs each fold workload once per seed as CLI subprocesses, checks the
outputs with every check except the golden comparison, and stores the
digest of the snapshot tree, ``differentials.jsonl`` and stdout in
``golden.json``.  Run it only on a commit whose outputs are known to be
right: later runs of ``run.py`` fail any fold job whose digest differs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
from workloads import GOLDEN_PATH, WORKLOADS, Fold


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-99")
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) if GOLDEN_PATH.exists() else {}
    env = run.child_env()
    scratch = run.WORK / "golden"
    try:
        for wl in WORKLOADS.values():
            if not isinstance(wl, Fold):
                continue
            for seed in seeds:
                inputs = run.fresh_dir(scratch / "inputs")
                wl.prepare(seed, inputs)
                wl.golden = None
                out = run.fresh_dir(scratch / "job")
                _, argvs, codes = run.subprocess_job(wl, inputs, out, env)
                failures: list[str] = []
                if run.check_all(wl, argvs, out, codes, [None] * len(codes), failures):
                    print(f"{wl.name} seed {seed}: {failures}", file=sys.stderr)
                    return 1
                golden.setdefault(wl.name, {})[str(seed)] = wl.first_digest
                print(f"{wl.name} seed {seed}: {wl.first_digest}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for table in golden.values():
        table_sorted = sorted(table.items(), key=lambda kv: int(kv[0]))
        table.clear()
        table.update(table_sorted)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
