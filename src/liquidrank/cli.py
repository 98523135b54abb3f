"""Command-line interface.

Subcommands:

  compute   fold a rating log into reputation snapshots window by window
  simulate  run the agency-consensus simulator and export its transcript
  validate  correlate a snapshot against a labeled reference list
  stats     concentration statistics of a snapshot
  export    render a snapshot plus its rating log as a DOT graph

Exit codes: 0 success, 1 invalid input data, 2 configuration errors,
3 undefined correlation.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import consensus
from .config import (
    ConsensusConfig,
    EngineConfig,
    check_reputation,
    load_consensus_config,
    load_engine_config,
)
from .engine import run_windows
from .errors import (
    ConfigError,
    CorrelationUndefinedError,
    LiquidRankError,
    RecordError,
)
from .evaluate import distribution_stats, load_reference_list, pearson
from .ingest import load_log, window_mode_from_spec
from .model import ReputationState
from .store import LocalFileStore, load_snapshot, replacing


def cmd_compute(args: argparse.Namespace) -> int:
    cfg = load_engine_config(args.config) if args.config else EngineConfig()
    mode = window_mode_from_spec(args.window)
    records = load_log(args.log)
    t_origin = args.origin
    if t_origin is None:
        t_origin = min((rec.timestamp for rec in records), default=0)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    store = LocalFileStore(out_dir / "snapshots")
    final = ReputationState(at=t_origin, values={})
    # The audit replaces the previous run's only once the whole fold has
    # succeeded, and a failed run removes the snapshots it wrote.
    written = []
    try:
        with (replacing(out_dir / "differentials.jsonl") as (staged,),
              open(staged, "w", encoding="utf-8") as audit):
            for _, state, diff in run_windows(records, mode, t_origin, cfg):
                written.append(store.put(state, diff.normalized))
                final = state
                audit.write(json.dumps({**vars(diff), "window": vars(diff.window)}, sort_keys=True))
                audit.write("\n")
    except BaseException:
        for path in filter(None, written):
            path.unlink()
        raise

    ranking = sorted(final.values.items(), key=lambda kv: (-kv[1], kv[0]))
    sys.stdout.write("".join(f"{pid},{value!r}\n" for pid, value in ranking))
    return 0


def _parse_faulty_spec(spec: str, ids: list[str]) -> dict[str, str]:
    """Fault spec: comma-separated kind[:count]; assigned to the lowest ids."""
    out: dict[str, str] = {}
    if not spec or spec == "none":
        return out
    next_idx = 0
    for part in spec.split(","):
        kind, sep, count_raw = part.partition(":")
        kind = kind.strip()
        consensus.check_fault_kind(kind)
        if sep:
            try:
                count = int(count_raw)
            except ValueError:
                raise ConfigError(f"fault count {count_raw!r} is not an integer") from None
            if count < 0:
                raise ConfigError("fault count must be non-negative")
        else:
            count = 1
        for _ in range(count):
            if next_idx >= len(ids):
                raise ConfigError("more faulty agencies than agencies")
            out[ids[next_idx]] = kind
            next_idx += 1
    return out


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_consensus_config(args.config) if args.config else ConsensusConfig()
    flags = {"min_identical": args.min_identical, "max_nonidentical": args.max_nonidentical,
             "timeout": args.timeout, "por_weighted": True if args.por else None}
    cfg = replace(cfg, **{name: v for name, v in flags.items() if v is not None})
    network = consensus.NetworkModel(
        delay_min=args.delay_min, delay_max=args.delay_max, drop_rate=args.drop_rate,
    )
    ids = consensus.agency_ids(args.agencies)
    faulty = _parse_faulty_spec(args.faulty, ids)
    result = consensus.run_simulation(
        n_agencies=args.agencies,
        faulty=faulty,
        cycles=args.cycles,
        cfg=cfg,
        network=network,
        seed=args.seed,
        reward_slots=args.reward_slots,
    )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # Both files replace the previous run's only once both are complete.
    with replacing(out_dir / "transcript.jsonl", out_dir / "summary.json") as staged:
        consensus.export_transcript(result.events, staged[0])
        summary = consensus.summarize(result)
        staged[1].write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8")

    print("cycle accepted disputed broken undecided alerts rewards")
    for row in summary["per_cycle"]:
        outcomes = row["outcomes"]
        total_alerts = sum(row["alerts"].values())
        rewards = "+".join(row["rewards"]) if row["rewards"] else "-"
        print(
            f"{row['cycle']} {outcomes['accepted']} "
            f"{outcomes['accepted_with_dispute']} {outcomes['broken']} "
            f"{outcomes['undecided']} {total_alerts} {rewards}"
        )
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    check_reputation("--default-reputation", args.default_reputation)
    state = load_snapshot(args.snapshot)
    reference = load_reference_list(args.reference)
    r = pearson(
        reference, state,
        default_reputation=args.default_reputation,
        include_missing=not args.strict_missing,
    )
    print(f"pearson {r:.6f}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    state = load_snapshot(args.snapshot)
    if not state.values:
        raise RecordError(f"snapshot {args.snapshot} holds no participants")
    stats = distribution_stats(state)
    print(f"participants {len(state.values)}")
    print(f"gini {stats.gini:.6f}")
    print(f"top_share {stats.top_share:.6f}")
    print(f"nonzero_fraction {stats.nonzero_fraction:.6f}")
    return 0


def _dot_quote(token: str) -> str:
    return '"' + token.replace("\\", "\\\\").replace('"', '\\"') + '"'


def cmd_export(args: argparse.Namespace) -> int:
    check_reputation("--default-reputation", args.default_reputation)
    state = load_snapshot(args.snapshot)
    records = load_log(args.log)
    values = state.values
    edges: dict[tuple[str, str], int] = {}
    # Popping frees each record as it is counted, so the edge keys reuse its
    # memory instead of adding to the log's.
    while records:
        rec = records.pop()
        edge = (rec.rater, rec.ratee)
        edges[edge] = edges.get(edge, 0) + 1
    log_only = {pid for edge in edges for pid in edge if pid not in values}

    # Each line goes to the file as it is rendered, so the graph is never
    # held whole; the file opens only once both inputs have parsed.
    with replacing(args.out) as (staged,), open(staged, "w", encoding="utf-8") as out:
        out.write("digraph reputation {\n")
        for pid in sorted([*values, *log_only]):
            weight = values.get(pid, args.default_reputation)
            out.write(f"  {_dot_quote(pid)} [weight={weight!r}];\n")
        for edge in sorted(edges):
            rater, ratee = edge
            out.write(f"  {_dot_quote(rater)} -> {_dot_quote(ratee)} [weight={edges[edge]}];\n")
        out.write("}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liquidrank",
        description="Rating-based reputation engine and consensus simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="fold a rating log into reputation snapshots")
    p.add_argument("--log", required=True, help="rating log (.csv or .jsonl)")
    p.add_argument("--config", help="engine config file (flat key = value)")
    p.add_argument("--window", required=True,
                   help="window mode: whole | tx | period:<N> | block:<N>")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--origin", type=int,
                   help="history origin epoch (default: earliest record timestamp)")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("simulate", help="run the consensus simulator")
    p.add_argument("--agencies", type=int, required=True)
    p.add_argument("--faulty", default="",
                   help="fault spec, e.g. divergent:1,silent:2 (assigned to lowest agency ids)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--cycles", type=int, default=10)
    p.add_argument("--config", help="consensus config file (flat key = value)")
    p.add_argument("--min-identical", dest="min_identical", type=float)
    p.add_argument("--max-nonidentical", dest="max_nonidentical", type=float)
    p.add_argument("--timeout", type=int)
    p.add_argument("--por", action="store_true",
                   help="weight receipts by agency reputation")
    p.add_argument("--reward-slots", dest="reward_slots", type=int, default=1)
    p.add_argument("--delay-min", dest="delay_min", type=int, default=1)
    p.add_argument("--delay-max", dest="delay_max", type=int, default=1)
    p.add_argument("--drop-rate", dest="drop_rate", type=float, default=0.0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="correlate a snapshot with a reference list")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--default-reputation", dest="default_reputation",
                   type=float, default=0.5)
    p.add_argument("--strict-missing", dest="strict_missing", action="store_true",
                   help="compare only participants present in both maps")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stats", help="distribution statistics of a snapshot")
    p.add_argument("--snapshot", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("export", help="write a DOT graph of a snapshot and its log")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--default-reputation", dest="default_reputation",
                   type=float, default=0.5)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CorrelationUndefinedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LiquidRankError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    # The ranking and the error lines are written in UTF-8 whatever the
    # locale: the same log gives the same bytes, and a non-ASCII id cannot
    # fail once the files are out.
    sys.stdout.reconfigure(encoding="utf-8")
    sys.stderr.reconfigure(encoding="utf-8", errors="backslashreplace")
    # No command leaves more than a fixed few reference cycles, whatever
    # its input, so the cyclic collector's passes are pure cost here.
    # main() itself leaves the collector alone.
    gc.disable()
    sys.exit(main())


if __name__ == "__main__":
    run()
