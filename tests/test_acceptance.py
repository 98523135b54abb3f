"""Full-volume acceptance runs.

Each test exercises one advertised guarantee end to end and prints a
single ``ACCEPTANCE n: PASS`` line when it holds (run with ``pytest -s``
to see the lines).  The per-module suites cover the same ground with
smaller loops; volumes and tolerances here are the binding ones.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import replace

from liquidrank import consensus
from liquidrank.cli import main
from liquidrank.config import EngineConfig
from liquidrank.engine import (
    differential_staked,
    differential_transactional,
    faceted_differentials,
    log_differential,
    normalize_window,
    run_windows,
    update_state,
)
from liquidrank.evaluate import distribution_stats, pearson
from liquidrank.ingest import PerBlock, Periodic, partition, window_mode_from_spec
from liquidrank.model import Kind, RatingRecord, ReputationState, TimeWindow
from liquidrank.store import deserialize_state, serialize_state, state_digest
from liquidrank.synth import lognormal_transaction_community, planted_truth_community

from oracles import (
    assert_maps_close,
    faceted_oracle,
    random_instance,
    simplified_staked_oracle,
    staked_oracle,
    transactional_oracle,
)


def test_acceptance_1_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(0xACC1)
    window = TimeWindow(t_origin=0, t_prev=0, t_now=200)
    for _ in range(1000):
        records, prev, cfg = random_instance(rng)
        stakes = [rec for rec in records if rec.kind is Kind.STAKE]
        txs = [rec for rec in records if rec.kind is Kind.TRANSACTION]
        assert_maps_close(
            differential_staked(stakes, prev, cfg),
            staked_oracle(stakes, prev.values, cfg),
        )
        assert_maps_close(
            differential_transactional(txs, prev, cfg),
            transactional_oracle(txs, prev.values, cfg),
        )
        got = faceted_differentials(txs, window, prev, cfg)
        by_cat, by_asp, by_asp_cat = faceted_oracle(txs, prev.values, cfg)
        assert_maps_close(got.by_category, by_cat)
        assert_maps_close(got.by_aspect, by_asp)
        assert_maps_close(got.by_aspect_category, by_asp_cat)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 1: PASS (1000 instances vs brute-force oracle, {elapsed:.2f}s)")


def test_acceptance_2_reduction_identity():
    rng = random.Random(0xACC2)
    for _ in range(100):
        records, prev, cfg = random_instance(rng, kinds=(Kind.STAKE,), with_aspects=False)
        cfg = replace(cfg, aspect_weights={"k0": 1.0}, default_aspect_weight=1.0)
        labeled = [rec._replace(aspect="k0") for rec in records]
        via_aspect = differential_staked(labeled, prev, cfg)
        via_plain = differential_staked(records, prev, cfg)
        assert via_aspect == via_plain  # bitwise
        assert_maps_close(via_aspect, simplified_staked_oracle(records, prev.values, cfg))
    print("ACCEPTANCE 2: PASS (aspect path == plain path bitwise on 100 instances)")


def _check_stake_scale(rng):
    records, prev, cfg = random_instance(
        rng, kinds=(Kind.STAKE,), max_participants=6, max_ratings=12,
    )
    base = differential_staked(records, prev, cfg)
    doubled = [rec._replace(weight=rec.weight * 2.0) for rec in records]
    assert differential_staked(doubled, prev, cfg) == base
    factor = rng.uniform(0.1, 30.0)
    scaled = [rec._replace(weight=rec.weight * factor) for rec in records]
    assert_maps_close(differential_staked(scaled, prev, cfg), base)


def _check_zero_weight_rater(rng):
    records, prev, cfg = random_instance(
        rng, kinds=(Kind.STAKE,), max_participants=6, max_ratings=12,
    )
    cfg = replace(cfg, rater_weight_floor=0.0)
    prev.values["mute"] = 0.0
    base = differential_staked(records, prev, cfg)
    extra = [
        RatingRecord(
            rater="mute", ratee=ratee, kind=Kind.STAKE,
            value=rng.uniform(-1.0, 1.0), weight=rng.uniform(0.1, 5.0),
            aspect="novel-aspect",
        )
        for ratee in sorted({rec.ratee for rec in records})[:2]
    ]
    assert differential_staked(records + extra, prev, cfg) == base


def _check_bounded(rng):
    records, prev, cfg = random_instance(rng, max_participants=6, max_ratings=12)
    stakes = [rec for rec in records if rec.kind is Kind.STAKE]
    txs = [rec for rec in records if rec.kind is Kind.TRANSACTION]
    for out in (
        differential_staked(stakes, prev, cfg),
        differential_transactional(txs, prev, cfg),
    ):
        for value in out.values():
            assert -1.0 <= value <= 1.0


def _check_unit_max(rng):
    n = rng.randint(1, 12)
    values = {f"p{i}": rng.uniform(-3.0, 3.0) for i in range(n)}
    out = normalize_window(values)
    peak = max(abs(v) for v in out.values())
    assert math.isclose(peak, 1.0, rel_tol=0.0, abs_tol=2e-16)


def _check_log_monotone(rng):
    n = rng.randint(2, 12)
    values = {f"p{i}": rng.uniform(-1.0, 1.0) for i in range(n)}
    out = log_differential(values)
    for pid, v in values.items():
        assert math.copysign(1.0, out[pid]) == math.copysign(1.0, v) or v == 0.0
    ordered = sorted(values, key=values.get)
    for a, b in zip(ordered, ordered[1:]):
        if values[a] < values[b]:
            assert out[a] < out[b]
        else:
            assert out[a] == out[b]


def _check_update_convex(rng):
    t_prev = rng.randint(1, 50)
    window = TimeWindow(t_origin=0, t_prev=t_prev, t_now=t_prev + rng.randint(1, 50))
    base = rng.random()
    target = rng.uniform(-1.0, 1.0)
    cfg = EngineConfig(decay_recent=rng.uniform(0.1, 5.0), decay_past=rng.uniform(0.1, 5.0))
    prev = ReputationState(at=t_prev, values={"i": base})
    new = update_state(prev, {"i": target}, window, cfg)
    lo, hi = min(base, target), max(base, target)
    assert lo - 1e-15 <= new.values["i"] <= hi + 1e-15


def test_acceptance_3_invariant_suite():
    checks = [
        _check_stake_scale,
        _check_zero_weight_rater,
        _check_bounded,
        _check_unit_max,
        _check_log_monotone,
        _check_update_convex,
    ]
    for check in checks:
        rng = random.Random(0xACC3)
        for _ in range(10_000):
            check(rng)
    print("ACCEPTANCE 3: PASS (6 invariants x 10000 randomized cases, 0 failures)")


def _fold(records, cfg, mode=Periodic(100), origin=0):
    final = ReputationState(at=origin, values={})
    for _, state, _ in run_windows(records, mode, origin, cfg):
        final = state
    return final


def test_acceptance_4_log_scaling_lowers_gini():
    start = time.perf_counter()
    records = lognormal_transaction_community(
        n_participants=200, n_ratings=5000, sigma=2.0, seed=3,
    )
    plain_cfg = EngineConfig(decay_recent=5.0)
    log_cfg = EngineConfig(
        decay_recent=5.0, use_log_financial=True, use_log_differential=True,
    )
    gini_plain = distribution_stats(_fold(records, plain_cfg)).gini
    gini_log = distribution_stats(_fold(records, log_cfg)).gini
    elapsed = time.perf_counter() - start
    assert gini_log < gini_plain
    assert gini_plain - gini_log >= 0.05
    assert elapsed < 5.0
    print(
        f"ACCEPTANCE 4: PASS (gini {gini_plain:.4f} -> {gini_log:.4f} with log scaling, "
        f"gap {gini_plain - gini_log:.4f}, {elapsed:.2f}s)"
    )


def test_acceptance_5_planted_truth_correlation():
    start = time.perf_counter()
    records, labels = planted_truth_community(n_participants=100, seed=11)
    final = _fold(records, EngineConfig())
    r = pearson(labels, final)
    elapsed = time.perf_counter() - start
    assert r > 0.5
    assert elapsed < 5.0
    print(f"ACCEPTANCE 5: PASS (pearson {r:.4f} vs planted labels, {elapsed:.2f}s)")


def _transcript_bytes(tmp_path, tag, events):
    path = tmp_path / f"{tag}.jsonl"
    consensus.export_transcript(events, path)
    return path.read_bytes()


def test_acceptance_6_consensus_scenarios(tmp_path):
    start = time.perf_counter()

    # (a) five honest agencies, lossless network, twenty cycles
    runs = [
        consensus.run_simulation(n_agencies=5, cycles=20, seed=1) for _ in range(2)
    ]
    result = runs[0]
    for aid in result.agency_ids:
        for decision in result.decisions[aid]:
            assert decision.outcome is consensus.Outcome.ACCEPTED
    assert [ev for ev in result.events if ev.type == "alert"] == []
    assert _transcript_bytes(tmp_path, "a0", runs[0].events) == \
        _transcript_bytes(tmp_path, "a1", runs[1].events)

    # (b) one divergent agency among five, quorum of three
    cfg = consensus.ConsensusConfig(min_identical=3, max_nonidentical=5)
    runs = [
        consensus.run_simulation(
            n_agencies=5, faulty={"a00": consensus.DIVERGENT}, cycles=10,
            cfg=cfg, seed=2,
        )
        for _ in range(2)
    ]
    result = runs[0]
    for aid in result.agency_ids:
        for decision in result.decisions[aid]:
            assert decision.outcome is consensus.Outcome.ACCEPTED_WITH_DISPUTE
            assert decision.divergent == ("a00",)
    assert _transcript_bytes(tmp_path, "b0", runs[0].events) == \
        _transcript_bytes(tmp_path, "b1", runs[1].events)

    # (c) three silent agencies among five, timeout of ten ticks
    cfg = consensus.ConsensusConfig(min_identical=3, timeout=10)
    faulty = {aid: consensus.SILENT for aid in ("a00", "a01", "a02")}
    runs = [
        consensus.run_simulation(n_agencies=5, faulty=faulty, cycles=3, cfg=cfg, seed=3)
        for _ in range(2)
    ]
    result = runs[0]
    for aid in result.agency_ids:
        for decision in result.decisions[aid]:
            assert decision.outcome is consensus.Outcome.BROKEN
    for cycle in range(3):
        checks = [
            ev for ev in result.events
            if ev.type == "alert" and ev.cycle == cycle
            and ev.alert.kind == consensus.SYSTEM_CHECK
        ]
        assert len(checks) == 5
    assert _transcript_bytes(tmp_path, "c0", runs[0].events) == \
        _transcript_bytes(tmp_path, "c1", runs[1].events)

    # (d) all-1.0 reputation weighting degenerates to plain counting
    network = consensus.NetworkModel(delay_min=1, delay_max=2, drop_rate=0.25)
    plain = consensus.run_simulation(
        n_agencies=5, cycles=10,
        cfg=consensus.ConsensusConfig(min_identical=3, max_nonidentical=5),
        network=network, seed=4,
    )
    por = consensus.run_simulation(
        n_agencies=5, cycles=10,
        cfg=consensus.ConsensusConfig(
            min_identical=3, max_nonidentical=5, por_weighted=True,
            agency_reputations={aid: 1.0 for aid in consensus.agency_ids(5)},
        ),
        network=network, seed=4,
    )
    assert _transcript_bytes(tmp_path, "d0", plain.events) == \
        _transcript_bytes(tmp_path, "d1", por.events)

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 6: PASS (4 consensus scenarios, {elapsed:.2f}s)")


_LOG_3 = (
    "alice,bob,stake,,,1.0,1,,100\n"
    "bob,carol,transaction,,,0.5,2,,200\n"
    "carol,alice,transaction,,,-0.25,1,,300\n"
)


def _run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def _tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_acceptance_7_determinism_and_roundtrips(tmp_path, capsys):
    log = tmp_path / "ratings.csv"
    log.write_text(_LOG_3, encoding="utf-8")
    reference = tmp_path / "reference.csv"
    reference.write_text("alice,1\nbob,0\ncarol,1\n", encoding="utf-8")

    # every CLI command, run twice, byte for byte
    compute_outputs = []
    for name in ("c1", "c2"):
        out = tmp_path / name
        stdout = _run_cli(capsys, "compute", "--log", str(log), "--window", "tx",
                          "--out", str(out))
        compute_outputs.append((stdout, _tree_bytes(out)))
    assert compute_outputs[0] == compute_outputs[1]

    simulate_outputs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        stdout = _run_cli(capsys, "simulate", "--agencies", "5", "--cycles", "4",
                          "--seed", "11", "--delay-max", "3", "--drop-rate", "0.2",
                          "--faulty", "divergent:1", "--min-identical", "3",
                          "--max-nonidentical", "5", "--out", str(out))
        simulate_outputs.append((stdout, _tree_bytes(out)))
    assert simulate_outputs[0] == simulate_outputs[1]

    snapshot = sorted((tmp_path / "c1" / "snapshots").glob("*.csv"))[-1]
    assert _run_cli(capsys, "validate", "--snapshot", str(snapshot),
                    "--reference", str(reference)) == \
        _run_cli(capsys, "validate", "--snapshot", str(snapshot),
                 "--reference", str(reference))
    assert _run_cli(capsys, "stats", "--snapshot", str(snapshot)) == \
        _run_cli(capsys, "stats", "--snapshot", str(snapshot))
    dots = []
    for name in ("g1.dot", "g2.dot"):
        path = tmp_path / name
        _run_cli(capsys, "export", "--snapshot", str(snapshot), "--log", str(log),
                 "--out", str(path))
        dots.append(path.read_bytes())
    assert dots[0] == dots[1]

    # store round-trip identity
    rng = random.Random(0xACC7)
    for _ in range(100):
        n = rng.randint(0, 12)
        state = ReputationState(
            at=rng.randint(0, 10**9),
            values={f"p{i}": rng.random() for i in range(n)},
        )
        back = deserialize_state(serialize_state(state))
        assert back == state
        assert state_digest(back) == state_digest(state)

    # partition-is-a-partition for all four window modes
    for _ in range(200):
        n = rng.randint(1, 40)
        records = [
            RatingRecord(
                rater=f"p{i % 7}", ratee=f"q{i % 5}", kind=Kind.TRANSACTION,
                value=0.5, timestamp=rng.randint(0, 60),
            )
            for i in range(n)
        ]
        ordered = sorted(records, key=lambda rec: rec.timestamp)
        modes = [
            window_mode_from_spec("whole"),
            window_mode_from_spec("tx"),
            Periodic(rng.randint(1, 25)),
            PerBlock(rng.randint(1, 10)),
        ]
        for mode in modes:
            out = partition(records, mode, 0)
            merged = [rec for _, chunk in out for rec in chunk]
            assert sorted(merged, key=lambda rec: rec.timestamp) == ordered
            assert len(merged) == len(records)
            t_prev = 0
            for window, chunk in out:
                assert window.t_origin == 0
                assert window.t_prev == t_prev
                t_prev = window.t_now
                for rec in chunk:
                    assert window.t_prev <= rec.timestamp <= window.t_now

    print("ACCEPTANCE 7: PASS (CLI reruns byte-identical, store round-trip, partition property)")
