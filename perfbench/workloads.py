"""The benchmark workloads: seeded inputs, the CLI commands, and output checks.

Every check here is independent of ``liquidrank``: snapshots are parsed
and re-encoded by hand, statistics are recomputed in pure Python, and fold
outputs are compared with golden digests recorded from the seed commit.
A check returns ``None`` when the command's output is correct and a
one-line reason otherwise; a failed check counts the command as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import gen

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_digest(root: Path, stdout: bytes) -> str:
    """SHA-256 over every file under ``root`` (relative path and bytes) plus stdout."""
    h = hashlib.sha256()
    files = sorted((p for p in root.rglob("*") if p.is_file()), key=lambda p: p.relative_to(root).as_posix())
    for path in files:
        data = path.read_bytes()
        h.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode("utf-8"))
        h.update(data)
    h.update(f"<stdout>\0{len(stdout)}\0".encode("utf-8"))
    h.update(stdout)
    return h.hexdigest()


def parse_snapshot(data: bytes) -> tuple[int, dict[str, float]]:
    """Parse the canonical snapshot encoding; every value must be finite and in [0, 1]."""
    lines = data.decode("utf-8").split("\n")
    if lines[-1] != "":
        raise ValueError("snapshot does not end with a newline")
    at = int(lines[0])
    values: dict[str, float] = {}
    for row in lines[1:-1]:
        pid, sep, raw = row.partition(",")
        value = float(raw)
        if not sep or not pid or pid in values:
            raise ValueError(f"malformed row {row!r}")
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            raise ValueError(f"value {raw!r} of {pid!r} is not finite in [0, 1]")
        values[pid] = value
    return at, values


def gini_top_nonzero(values: list[float]) -> tuple[float, float, float]:
    """Gini, top-1% share and nonzero fraction, as the CLI defines them."""
    v = sorted(values)
    n = len(v)
    total = math.fsum(v)
    if total == 0.0:
        return 0.0, 0.0, 0.0
    gini = 2.0 * math.fsum(i * x for i, x in enumerate(v, start=1)) / (n * total) - (n + 1) / n
    top_n = math.ceil(n * 0.01)
    top_share = math.fsum(v[n - top_n:]) / total
    return gini, top_share, sum(1 for x in v if x != 0.0) / n


def pearson(labels: dict[str, float], values: dict[str, float], default: float = 0.5) -> float:
    pairs = [(labels[pid], values.get(pid, default)) for pid in sorted(labels)]
    n = len(pairs)
    mx = math.fsum(p[0] for p in pairs) / n
    my = math.fsum(p[1] for p in pairs) / n
    sxy = math.fsum((x - mx) * (y - my) for x, y in pairs)
    sxx = math.fsum((x - mx) ** 2 for x, _ in pairs)
    syy = math.fsum((y - my) ** 2 for _, y in pairs)
    return sxy / math.sqrt(sxx * syy)


def _printed_matches(printed: str, exact: float) -> bool:
    # The CLI prints six decimals; allow the rounding and 1e-9 on top.
    return abs(float(printed) - exact) <= 0.5e-6 + 1e-9


class Workload:
    name = ""
    why = ""

    def prepare(self, seed: int, inputs: Path) -> None:
        """Write the inputs for ``seed`` into ``inputs`` and reset per-run state."""
        raise NotImplementedError

    def commands(self, inputs: Path, out: Path) -> list[list[str]]:
        """The CLI argument lists of one job, writing under the empty ``out``."""
        raise NotImplementedError

    def check(self, index: int, out: Path, stdout: bytes, returned: dict | None) -> str | None:
        """Check command ``index``; ``returned`` holds traced return values, if any."""
        raise NotImplementedError


class Fold(Workload):
    """``compute`` over a lognormal transaction log."""

    def __init__(self, name: str, why: str, *, participants: int, ratings: int,
                 periods: int, period_length: int, window: str, config: str | None):
        self.name, self.why = name, why
        self.participants, self.ratings = participants, ratings
        self.periods, self.period_length = periods, period_length
        self.window, self.config = window, config

    def prepare(self, seed: int, inputs: Path) -> None:
        ratings = gen.lognormal_transactions(
            self.participants, self.ratings, self.periods, self.period_length, seed,
        )
        (inputs / "log.csv").write_bytes(gen.log_bytes(ratings))
        if self.config is not None:
            (inputs / "engine.cfg").write_text(self.config, encoding="utf-8")
        stamps = sorted({r.timestamp for r in ratings})
        if self.window == "tx":
            self.expected_windows = len(stamps)
        else:
            length = int(self.window.partition(":")[2])
            self.expected_windows = (stamps[-1] - stamps[0]) // length + 1
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        self.golden = golden.get(self.name, {}).get(str(seed))
        self.first_digest: str | None = None

    def commands(self, inputs: Path, out: Path) -> list[list[str]]:
        argv = ["compute", "--log", str(inputs / "log.csv"), "--window", self.window,
                "--out", str(out / "run")]
        if self.config is not None:
            argv += ["--config", str(inputs / "engine.cfg")]
        return [argv]

    def check(self, index: int, out: Path, stdout: bytes, returned: dict | None) -> str | None:
        run = out / "run"
        snapshots = sorted((run / "snapshots").iterdir())
        if len(snapshots) != self.expected_windows:
            return f"{len(snapshots)} snapshots for {self.expected_windows} windows"
        digest = tree_digest(run, stdout)
        if self.first_digest is None:
            try:
                for path in snapshots:
                    at, values = parse_snapshot(path.read_bytes())
            except ValueError as exc:
                return f"{path.name}: {exc}"
            if gen.snapshot_bytes(at, values) != snapshots[-1].read_bytes():
                return "final snapshot does not round-trip byte for byte"
            ranking = sorted(f"{pid},{v!r}" for pid, v in values.items())
            if sorted(stdout.decode("utf-8").splitlines()) != ranking:
                return "stdout ranking differs from the final snapshot"
            with open(run / "differentials.jsonl", "rb") as fh:
                audit_rows = sum(1 for _ in fh)
            if audit_rows != self.expected_windows:
                return f"{audit_rows} audit rows for {self.expected_windows} windows"
            self.first_digest = digest
        elif digest != self.first_digest:
            return "outputs differ from the first repeat of this run"
        if self.golden is not None and digest != self.golden:
            return f"output digest {digest[:12]} differs from the golden {self.golden[:12]}"
        return None


class Simulate(Workload):
    """``simulate`` with one agency of each fault kind, lossy delayed links."""

    name = "simulate"
    why = ("consensus only: 20 agencies x 150 cycles with every fault kind, delays 1-3 "
           "and 5% drops; per-cycle summary work grows with the transcript")
    agencies = 20
    cycles = 150
    faulty = "divergent:1,equivocating:1,silent:1"
    n_faulty = 3

    def prepare(self, seed: int, inputs: Path) -> None:
        self.seed = seed
        params = {"agencies": self.agencies, "cycles": self.cycles, "faulty": self.faulty,
                  "delay": [1, 3], "drop_rate": 0.05, "seed": seed}
        (inputs / "params.json").write_text(json.dumps(params, sort_keys=True) + "\n", encoding="utf-8")
        width = max(2, len(str(self.agencies - 1)))
        self.honest = [f"a{i:0{width}d}" for i in range(self.n_faulty, self.agencies)]
        self.first_digest: str | None = None

    def commands(self, inputs: Path, out: Path) -> list[list[str]]:
        return [[
            "simulate", "--agencies", str(self.agencies), "--cycles", str(self.cycles),
            "--faulty", self.faulty, "--delay-min", "1", "--delay-max", "3",
            "--drop-rate", "0.05", "--seed", str(self.seed), "--out", str(out / "sim"),
        ]]

    def check(self, index: int, out: Path, stdout: bytes, returned: dict | None) -> str | None:
        transcript = (out / "sim" / "transcript.jsonl").read_bytes()
        digest = sha256_bytes(transcript)
        if self.first_digest is not None:
            return None if digest == self.first_digest else "transcript differs from the first repeat"
        if len(stdout.decode("utf-8").splitlines()) != self.cycles + 1:
            return "stdout does not have one row per cycle"
        summary = json.loads((out / "sim" / "summary.json").read_text(encoding="utf-8"))
        if summary["cycles"] != self.cycles:
            return "summary.json has the wrong cycle count"
        decided: dict[int, dict[str, str | None]] = {c: {} for c in range(self.cycles)}
        honest = set(self.honest)
        for line in transcript.splitlines():
            ev = json.loads(line)
            if ev["type"] == "decision" and ev["sender"] in honest:
                if ev["sender"] in decided[ev["cycle"]]:
                    return f"{ev['sender']} decided twice in cycle {ev['cycle']}"
                decided[ev["cycle"]][ev["sender"]] = ev.get("digest")
        for cycle, by_agency in decided.items():
            if set(by_agency) != honest:
                return f"cycle {cycle}: honest agencies {sorted(honest - set(by_agency))} did not decide"
            digests = set(by_agency.values())
            if len(digests) != 1 or None in digests:
                return f"cycle {cycle}: honest agencies decided {len(digests)} digests"
        self.first_digest = digest
        return None


class Query(Workload):
    """``stats``, ``validate`` and ``export`` against a planted-truth population."""

    name = "query"
    why = ("stats, validate and export on a 100k-participant snapshot, labels and log: "
           "store reads, evaluate at 100k and the log parse")
    participants = 100_000
    ratings_per_member = 1
    at = 500

    def prepare(self, seed: int, inputs: Path) -> None:
        ratings, labels = gen.planted_truth(self.participants, self.ratings_per_member, 5, 100, seed)
        values = gen.planted_snapshot(labels, self.at, seed)
        (inputs / "snapshot.csv").write_bytes(gen.snapshot_bytes(self.at, values))
        (inputs / "labels.csv").write_bytes(gen.labels_bytes(labels))
        (inputs / "log.csv").write_bytes(gen.log_bytes(ratings))
        self.stats = gini_top_nonzero(list(values.values()))
        self.n_values = len(values)
        self.pearson = pearson(labels, values)
        nodes = set(values)
        for r in ratings:
            nodes.add(r.rater)
            nodes.add(r.ratee)
        self.nodes = len(nodes)
        self.edges = len({(r.rater, r.ratee) for r in ratings})

    def commands(self, inputs: Path, out: Path) -> list[list[str]]:
        snapshot = str(inputs / "snapshot.csv")
        return [
            ["stats", "--snapshot", snapshot],
            ["validate", "--snapshot", snapshot, "--reference", str(inputs / "labels.csv")],
            ["export", "--snapshot", snapshot, "--log", str(inputs / "log.csv"),
             "--out", str(out / "graph.dot")],
        ]

    def check(self, index: int, out: Path, stdout: bytes, returned: dict | None) -> str | None:
        returned = returned or {}
        fields = dict(line.split(" ", 1) for line in stdout.decode("utf-8").splitlines())
        if index == 0:
            if int(fields.get("participants", -1)) != self.n_values:
                return "wrong participant count"
            for key, exact in zip(("gini", "top_share", "nonzero_fraction"), self.stats):
                if key not in fields or not _printed_matches(fields[key], exact):
                    return f"{key} {fields.get(key)} is not {exact!r}"
            stats = returned.get("evaluate.distribution_stats")
            if stats is not None and any(
                abs(got - exact) > 1e-9
                for got, exact in zip((stats.gini, stats.top_share, stats.nonzero_fraction), self.stats)
            ):
                return "returned values differ from the pure-Python ones by more than 1e-9"
        elif index == 1:
            if "pearson" not in fields or not _printed_matches(fields["pearson"], self.pearson):
                return f"pearson {fields.get('pearson')} is not {self.pearson!r}"
            r = returned.get("evaluate.pearson")
            if r is not None and abs(r - self.pearson) > 1e-9:
                return "returned pearson differs from the pure-Python one by more than 1e-9"
        else:
            lines = (out / "graph.dot").read_text(encoding="utf-8").split("\n")
            if lines[0] != "digraph reputation {" or lines[-2:] != ["}", ""]:
                return "not a complete digraph"
            edges = sum(1 for line in lines if " -> " in line)
            nodes = len(lines) - 3 - edges
            if (nodes, edges) != (self.nodes, self.edges):
                return f"{nodes} nodes, {edges} edges; expected {self.nodes}, {self.edges}"
        return None


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Fold(
            "fold-tx",
            "compute --window tx: ~900 one-timestamp windows over a persistent 1k state, "
            "so per-window overhead (put scan, full-state update, serialize) dominates",
            participants=1000, ratings=1000, periods=5, period_length=1000,
            window="tx", config=None,
        ),
        Fold(
            "fold-period",
            "compute --window period:1000: 50 large windows over 10k participants with both "
            "log compressions on, so parse and differentials dominate",
            participants=10_000, ratings=80_000, periods=50, period_length=1000,
            window="period:1000", config="use_log_financial = true\nuse_log_differential = true\n",
        ),
        Simulate(),
        Query(),
    )
}
