"""In-memory span recorder and the wrappers that attach it to liquidrank.

Spans are recorded from the benchmark side only: :func:`instrument` swaps
each public callable for a timing wrapper at the place where the program
looks the name up (a name bound by ``from .x import y`` must be replaced in
the importing module, or the wrapper would never be called), and puts the
originals back on exit.  Nothing in the program changes.

Each span holds its name, start, end, parent span and request (the CLI
command it belongs to).  Spans stay in memory; :meth:`Recorder.dump` writes
them out once, at the end.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.results: dict[str, object] = {}
        self._stack: list[int] = []
        self._requests = 0

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._requests += 1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._requests))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.results[name] = result
            if on_result is not None:
                on_result(self, result)
            return result
        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """One span per resumption, so the consumer's work between items is not counted."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                idx = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield item
        return traced

    def self_times(self) -> dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, float] = defaultdict(float)
        for span, children in zip(self.spans, child_time):
            out[span.name] += span.end - span.start - children
        return out

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


# --- counters taken from return values ------------------------------------


def _count_records(rec: Recorder, records) -> None:
    rec.counts["ingest.records"] += len(records)


def _count_windows(rec: Recorder, windows) -> None:
    rec.counts["ingest.windows"] += len(windows)


def _count_pipeline(rec: Recorder, result) -> None:
    state, diff = result
    rec.counts["engine.ratees_touched"] += len(diff.normalized)
    rec.counts["engine.rows_rewritten"] += len(state.values)


def _count_put(rec: Recorder, _result) -> None:
    rec.counts["store.puts"] += 1


def _count_serialized(rec: Recorder, data: bytes) -> None:
    if rec.parent_name() == "store.put":
        rec.counts["store.bytes_written"] += len(data)


def _count_simulation(rec: Recorder, result) -> None:
    rec.counts["consensus.events"] += len(result.events)
    rec.counts["consensus.messages_delivered"] += sum(1 for ev in result.events if ev.type == "receive")
    rec.counts["consensus.decisions"] += sum(
        1 for per_agency in result.decisions.values() for d in per_agency if d is not None
    )
    rec.counts["consensus.decision_slots"] += len(result.agency_ids) * result.cycles


@contextmanager
def instrument(rec: Recorder) -> Iterator[None]:
    """Route the CLI's calls into every layer through ``rec`` while active."""
    from liquidrank import cli, consensus, engine, ingest, store

    plain = [
        (cli, "cmd_compute", "cli.cmd_compute", None),
        (cli, "cmd_simulate", "cli.cmd_simulate", None),
        (cli, "cmd_validate", "cli.cmd_validate", None),
        (cli, "cmd_stats", "cli.cmd_stats", None),
        (cli, "cmd_export", "cli.cmd_export", None),
        (cli, "load_log", "ingest.load_log", None),
        (cli, "load_snapshot", "store.load_snapshot", None),
        (cli, "pearson", "evaluate.pearson", None),
        (cli, "distribution_stats", "evaluate.distribution_stats", None),
        (ingest, "parse_log", "ingest.parse_log", _count_records),
        (ingest, "partition", "ingest.partition", _count_windows),
        (engine, "differential_staked", "engine.differential_staked", None),
        (engine, "differential_transactional", "engine.differential_transactional", None),
        (engine, "blend", "engine.blend", None),
        (engine, "log_differential", "engine.log_differential", None),
        (engine, "normalize_window", "engine.normalize_window", None),
        (engine, "update_state", "engine.update_state", None),
        (engine, "run_pipeline", "engine.run_pipeline", _count_pipeline),
        (store, "serialize_state", "store.serialize_state", _count_serialized),
        (store, "deserialize_state", "store.deserialize_state", None),
        (store.LocalFileStore, "put", "store.put", _count_put),
        (consensus, "state_digest", "store.state_digest", None),
        (consensus, "run_simulation", "consensus.run_simulation", _count_simulation),
        (consensus, "summarize", "consensus.summarize", None),
        (consensus, "export_transcript", "consensus.export_transcript", None),
    ]
    saved = []
    try:
        for owner, attr, name, on_result in plain:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, rec.wrap(name, original, on_result))
        saved.append((cli, "run_windows", cli.run_windows))
        cli.run_windows = rec.wrap_generator("engine.run_windows", cli.run_windows)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# --- per-layer metrics -----------------------------------------------------

# metric -> span names whose self times it sums
SELF_TIME_METRICS = {
    "ingest.parse_s": ("ingest.load_log", "ingest.parse_log"),
    "ingest.partition_s": ("ingest.partition",),
    "engine.differentials_s": ("engine.differential_staked", "engine.differential_transactional"),
    "engine.blend_normalize_s": ("engine.blend", "engine.log_differential", "engine.normalize_window"),
    "engine.update_state_s": ("engine.update_state",),
    "engine.pipeline_self_s": ("engine.run_windows", "engine.run_pipeline"),
    "store.put_s": ("store.put",),
    "store.serialize_s": ("store.serialize_state",),
    "store.digest_s": ("store.state_digest",),
    "store.deserialize_s": ("store.load_snapshot", "store.deserialize_state"),
    "consensus.run_simulation_s": ("consensus.run_simulation",),
    "consensus.summarize_s": ("consensus.summarize",),
    "consensus.export_s": ("consensus.export_transcript",),
    "evaluate.pearson_s": ("evaluate.pearson",),
    "evaluate.stats_s": ("evaluate.distribution_stats",),
    "cli.self_s": ("cli.cmd_compute", "cli.cmd_simulate", "cli.cmd_validate",
                   "cli.cmd_stats", "cli.cmd_export"),
}

COUNT_METRICS = (
    "ingest.records", "ingest.windows", "engine.ratees_touched", "engine.rows_rewritten",
    "store.puts", "store.bytes_written", "consensus.events", "consensus.messages_delivered",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(samples: list[float], pct: int) -> float:
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def layer_metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced job, as name -> (value, unit)."""
    self_time = rec.self_times()
    out = {
        metric: (sum(self_time.get(name, 0.0) for name in names), "s")
        for metric, names in SELF_TIME_METRICS.items()
    }
    for name in COUNT_METRICS:
        out[name] = (rec.counts.get(name, 0.0), "count")
    windows_ms = [d * 1e3 for d in rec.durations("engine.run_pipeline")]
    out["engine.window_ms_p50"] = (_percentile(windows_ms, 50), "ms")
    out["engine.window_ms_p99"] = (_percentile(windows_ms, 99), "ms")
    out["engine.window_samples"] = (float(len(windows_ms)), "count")
    out["engine.touch_ratio"] = (
        _ratio(rec.counts.get("engine.ratees_touched", 0.0), rec.counts.get("engine.rows_rewritten", 0.0)),
        "ratio",
    )
    out["consensus.decided_ratio"] = (
        _ratio(rec.counts.get("consensus.decisions", 0.0), rec.counts.get("consensus.decision_slots", 0.0)),
        "ratio",
    )
    return out
