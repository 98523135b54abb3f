"""End-to-end benchmark of the liquidrank CLI, with a traced per-layer run.

    python3 perfbench/run.py --workload fold-tx --seed 1 --seconds 20 --trace 0

Run from the root of a source tree (the program is imported from ``src/``).
It writes the workload's seeded inputs, then for ``--seconds`` repeats the
workload's job and checks its outputs.

``--trace 0`` runs every command as a fresh ``liquidrank`` subprocess into
an empty output directory and reports the end-to-end metrics: ``setup_s``
(median interpreter start plus ``import liquidrank.cli``), and per job
``job_s`` (wall), ``cpu_s`` (user + sys of the children), ``peak_rss_mb``
and ``output_mb``, each the median over the job repeats.

``--trace 1`` runs the same commands in this process through
``liquidrank.cli.main``, alternating untraced jobs with jobs traced by
``tracing.instrument``, and reports the per-layer metrics (medians over the
traced jobs) and the tracing overhead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` (commands, counting a failed output check as a failure) and
``metrics``.  The line before it holds the details: samples, inputs with
their sizes and SHA-256, and the environment.  Both are also written under
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload, sha256_bytes  # noqa: E402

SETUP_PER_REPEAT = 2
SETUP_MIN_SAMPLES = 10
MIN_REPEATS = 3
COMMAND_TIMEOUT_S = 150
# Unpinned BLAS threads make the numpy import spend more CPU than wall time.
PINNED_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
UNITS = {"setup_s": "s", "job_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "output_mb": "MB"}
# What the installed ``liquidrank`` console script runs.
ENTRY = "import sys; from liquidrank.cli import run; sys.argv[0] = 'liquidrank'; run()"


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], stdout_path: Path, stderr_path: Path, env: dict[str, str]) -> Child:
    """Run ``python3 <args>`` to completion and take its rusage from ``wait4``."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def setup_sample(scratch: Path, env: dict[str, str]) -> float:
    """Wall seconds of ``import liquidrank.cli`` in a fresh interpreter."""
    child = run_child(["-c", "import liquidrank.cli"], scratch / "setup.out", scratch / "setup.err", env)
    if child.returncode != 0:
        raise BenchError("import liquidrank.cli failed: "
                         + (scratch / "setup.err").read_text(errors="replace")[-500:])
    return child.wall_s


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def check_all(wl: Workload, argvs: list[list[str]], out: Path, codes: list[int],
              returned: list[dict | None], failures: list[str]) -> int:
    """Check every command's output; returns the number of failed commands."""
    failed = 0
    for i, code in enumerate(codes):
        stdout = (out / f"cmd{i}.stdout").read_bytes()
        if code != 0:
            reason = f"exit {code}: " + (out / f"cmd{i}.stderr").read_text(errors="replace")[-300:]
        else:
            try:
                reason = wl.check(i, out / "data", stdout, returned[i])
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                reason = f"output unreadable: {exc!r}"
        if reason is not None:
            failed += 1
            failures.append(f"{argvs[i][0]}: {reason}")
    return failed


def subprocess_job(wl: Workload, inputs: Path, out: Path, env: dict[str, str]) -> tuple[dict, list[list[str]], list[int]]:
    data = fresh_dir(out / "data")
    argvs = wl.commands(inputs, data)
    children = []
    start = time.perf_counter()
    for i, argv in enumerate(argvs):
        children.append(run_child(["-c", ENTRY, *argv], out / f"cmd{i}.stdout", out / f"cmd{i}.stderr", env))
    wall = time.perf_counter() - start
    stdout_bytes = sum((out / f"cmd{i}.stdout").stat().st_size for i in range(len(argvs)))
    sample = {
        "job_s": wall,
        "cpu_s": sum(c.cpu_s for c in children),
        "peak_rss_mb": max(c.rss_mb for c in children),
        "output_mb": (tree_bytes(data) + stdout_bytes) / 1e6,
    }
    return sample, argvs, [c.returncode for c in children]


def inprocess_job(wl: Workload, inputs: Path, out: Path,
                  rec: tracing.Recorder | None) -> tuple[float, list[list[str]], list[int], list]:
    from liquidrank import cli

    data = fresh_dir(out / "data")
    argvs = wl.commands(inputs, data)
    codes, returned, elapsed = [], [], 0.0
    instrumented = tracing.instrument(rec) if rec is not None else contextlib.nullcontext()
    with instrumented:
        for i, argv in enumerate(argvs):
            if rec is not None:
                rec.results.clear()
            with open(out / f"cmd{i}.stdout", "w", encoding="utf-8") as fh, \
                    open(out / f"cmd{i}.stderr", "w", encoding="utf-8") as eh, \
                    contextlib.redirect_stdout(fh), contextlib.redirect_stderr(eh):
                start = time.perf_counter()
                try:
                    codes.append(cli.main(argv))
                except Exception:  # a crash fails this command, not the whole run
                    traceback.print_exc()
                    codes.append(-1)
                elapsed += time.perf_counter() - start
            returned.append(dict(rec.results) if rec is not None else None)
    return elapsed, argvs, codes, returned


def summarize(samples: list[float]) -> dict:
    return {"n": len(samples), "median": statistics.median(samples),
            "min": min(samples), "max": max(samples), "samples": samples}


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "liquidrank").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": source_sha256(),
        "child_env": PINNED_ENV,
    }


def run_end_to_end(wl: Workload, inputs: Path, scratch: Path, seconds: float) -> tuple[dict, dict, int, int, list[str]]:
    env = child_env()
    setup_sample(scratch, env)  # warm-up: writes the bytecode caches
    samples: dict[str, list[float]] = {k: [] for k in UNITS}
    attempted = failed = 0
    failures: list[str] = []
    deadline = time.perf_counter() + seconds
    while len(samples["job_s"]) < MIN_REPEATS or time.perf_counter() < deadline:
        # Set-up samples are spread over the run, like the jobs, so both see the same machine.
        samples["setup_s"] += [setup_sample(scratch, env) for _ in range(SETUP_PER_REPEAT)]
        out = fresh_dir(scratch / "job")
        sample, argvs, codes = subprocess_job(wl, inputs, out, env)
        attempted += len(codes)
        failed += check_all(wl, argvs, out, codes, [None] * len(codes), failures)
        for key, value in sample.items():
            samples[key].append(value)
    while len(samples["setup_s"]) < SETUP_MIN_SAMPLES:
        samples["setup_s"].append(setup_sample(scratch, env))
    metrics = {k: {"value": statistics.median(v), "unit": UNITS[k]} for k, v in samples.items()}
    details = {k: summarize(v) for k, v in samples.items()}
    return metrics, details, attempted, failed, failures


def run_traced(wl: Workload, inputs: Path, scratch: Path, seconds: float, spans_path: Path) -> tuple[dict, dict, int, int, list[str]]:
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    import liquidrank.cli  # noqa: F401  (imported before timing starts)

    plain: list[float] = []
    traced: list[float] = []
    per_layer: list[dict[str, tuple[float, str]]] = []
    attempted = failed = 0
    failures: list[str] = []
    last = None
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_REPEATS or time.perf_counter() < deadline:
        for rec in (None, tracing.Recorder()):
            out = fresh_dir(scratch / "job")
            elapsed, argvs, codes, returned = inprocess_job(wl, inputs, out, rec)
            attempted += len(codes)
            failed += check_all(wl, argvs, out, codes, returned, failures)
            if rec is None:
                plain.append(elapsed)
            else:
                traced.append(elapsed)
                per_layer.append(tracing.layer_metrics(rec))
                last = rec
    last.dump(spans_path)
    metrics = {
        name: {"value": statistics.median(m[name][0] for m in per_layer), "unit": unit}
        for name, (_, unit) in per_layer[0].items()
    }
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    details = {"inprocess_untraced_s": summarize(plain), "inprocess_traced_s": summarize(traced)}
    return metrics, details, attempted, failed, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "liquidrank" / "cli.py").is_file():
        print(f"error: no liquidrank sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    label = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    scratch = WORK / f"run-{label}-{os.getpid()}"
    results = WORK / "results"
    try:
        inputs = fresh_dir(scratch / "inputs")
        results.mkdir(parents=True, exist_ok=True)
        wl.prepare(args.seed, inputs)
        input_info = {
            p.name: {"bytes": p.stat().st_size, "sha256": sha256_bytes(p.read_bytes())}
            for p in sorted(inputs.iterdir())
        }
        if args.trace:
            run = run_traced(wl, inputs, scratch, args.seconds, results / f"spans-{label}.jsonl")
        else:
            run = run_end_to_end(wl, inputs, scratch, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    metrics, details, attempted, failed, failures = run

    detail = {
        "workload": wl.name, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "error_rate": failed / attempted, "failures": failures[:20],
        "golden": getattr(wl, "golden", None), "inputs": input_info,
        "samples": details, "environment": environment(),
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (results / f"{label}.json").write_text(json.dumps({"details": detail, "result": result}, indent=2) + "\n")
    print(json.dumps({"details": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
