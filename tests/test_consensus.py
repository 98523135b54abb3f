"""Protocol state machine and simulator behavior."""

from __future__ import annotations

import json
import random

import pytest

from liquidrank.consensus import (
    DISPUTED_SET,
    DIVERGENT,
    DIVERGENT_SENDERS,
    EQUIVOCATING,
    FAULT_KINDS,
    SILENT,
    SYSTEM_CHECK,
    AgencyNode,
    Alert,
    ConsensusConfig,
    NetworkModel,
    Outcome,
    StateDigest,
    TranscriptEvent,
    agency_ids,
    export_transcript,
    mining_reward,
    run_simulation,
    summarize,
)
from liquidrank.errors import ConfigError


def _node(agency="n0", cycle=0, **cfg_kw):
    cfg_kw.setdefault("min_identical", 2)
    cfg_kw.setdefault("max_nonidentical", 3)
    return AgencyNode(agency, ConsensusConfig(**cfg_kw), cycle=cycle)


def _msg(digest, sender, cycle=0):
    return StateDigest(cycle=cycle, digest=digest, sender=sender)


# --- receive ladder -------------------------------------------------------

def test_accept_on_second_identical_receipt():
    node = _node(min_identical=2)
    decision, alerts = node.receive(_msg("D", "a"), now=0)
    assert decision is None and alerts == []
    decision, alerts = node.receive(_msg("D", "b"), now=1)
    assert decision is not None
    assert decision.outcome is Outcome.ACCEPTED
    assert decision.digest == "D"
    assert alerts == []
    # further receipts are ignored
    decision, alerts = node.receive(_msg("X", "c"), now=2)
    assert decision is None and alerts == []
    assert node.decision.outcome is Outcome.ACCEPTED


def test_conflicting_receipt_disputes_then_majority_accepts():
    node = _node(min_identical=2, max_nonidentical=3)
    node.receive(_msg("D", "a"), now=0)
    decision, alerts = node.receive(_msg("X", "b"), now=1)
    assert decision is None
    assert [a.kind for a in alerts] == [DISPUTED_SET]
    assert alerts[0].senders == ("b",)
    # the deciding receipt still differs from X, so it re-alerts the dispute
    decision, alerts = node.receive(_msg("D", "c"), now=2)
    assert decision.outcome is Outcome.ACCEPTED_WITH_DISPUTE
    assert decision.digest == "D"
    assert decision.divergent == ("b",)
    assert [a.kind for a in alerts] == [DISPUTED_SET, DIVERGENT_SENDERS]
    assert alerts[-1].senders == ("b",)


def test_duplicate_sender_counted_once():
    node = _node(min_identical=2)
    node.receive(_msg("D", "a"), now=0)
    decision, alerts = node.receive(_msg("D", "a"), now=1)
    assert decision is None and alerts == []
    assert node.decision is None


def _assert_other_cycle_dropped(other):
    # a node decides its own cycle only: receipts for any other are dropped
    node = _node(min_identical=2, cycle=3)
    assert node.receive(_msg("D", "a", cycle=other), now=0) == (None, [])
    assert node.receive(_msg("D", "b", cycle=other), now=0) == (None, [])
    assert node.decision is None
    assert node.deadline is None
    return node


def test_later_cycle_buffered_until_advance():
    # nodes keep no buffer: a later-cycle receipt is dropped, not held for
    # replay, so the node holds no state for it afterwards
    node = _assert_other_cycle_dropped(4)
    assert not hasattr(node, "advance_cycle")
    assert not hasattr(node, "_buffer")


def test_earlier_cycle_ignored():
    _assert_other_cycle_dropped(2)


# --- timeout ---------------------------------------------------------------

def test_no_receipts_never_times_out():
    node = _node(timeout=5)
    assert node.tick(now=10**6) == (None, [])
    assert node.decision is None


def test_timeout_breaks_cycle():
    node = _node(min_identical=2, timeout=10)
    node.receive(_msg("D", "a"), now=5)
    assert node.tick(now=14) == (None, [])
    decision, alerts = node.tick(now=15)
    assert decision.outcome is Outcome.BROKEN
    assert decision.digest is None
    assert [a.kind for a in alerts] == [SYSTEM_CHECK]
    assert alerts[0].senders == (node.agency_id,)


def test_tick_after_decision_is_noop():
    node = _node(min_identical=2, timeout=10)
    node.receive(_msg("D", "a"), now=0)
    node.receive(_msg("D", "b"), now=7)
    assert node.tick(now=100) == (None, [])
    assert node.decision.outcome is Outcome.ACCEPTED


# --- forced resolution at the receipt cap ----------------------------------
# Unreachable through receive(): any digest at or above min_identical decides
# the cycle the moment its own receipt lands, so the cap rung is exercised
# directly.

def test_forced_resolution_majority_and_tie_break():
    node = _node(min_identical=2, max_nonidentical=4)
    node.receive(_msg("B", "a"), now=0)
    node.receive(_msg("A", "b"), now=1)
    node._digest_weights = {"B": 2.0, "A": 2.0}
    node._digest_senders = {"B": ["a", "c"], "A": ["b", "d"]}
    decision = node._forced_resolution()
    assert decision.outcome is Outcome.ACCEPTED_WITH_DISPUTE
    assert decision.digest == "A"  # lexicographic tie-break
    assert decision.divergent == ("a", "c")
    assert "tie" in decision.alerts[0].note


def test_forced_resolution_clear_leader():
    node = _node(min_identical=2, max_nonidentical=4)
    node._digest_weights = {"B": 3.0, "A": 1.0}
    node._digest_senders = {"B": ["a", "b", "c"], "A": ["d"]}
    decision = node._forced_resolution()
    assert decision.digest == "B"
    assert decision.divergent == ("d",)
    assert "tie" not in decision.alerts[0].note


# --- reputation-weighted voting ---------------------------------------------

def test_por_weight_threshold_acceptance():
    cfg = ConsensusConfig(
        min_identical=1.7, max_nonidentical=3.0, por_weighted=True,
        agency_reputations={"x": 0.9, "y": 0.9, "z": 0.1},
    )
    node = AgencyNode("x", cfg)
    assert node.receive(_msg("D", "x"), now=0)[0] is None   # 0.9
    assert node.receive(_msg("D", "z"), now=1)[0] is None   # 1.0
    decision, _ = node.receive(_msg("D", "y"), now=2)       # 1.9
    assert decision.outcome is Outcome.ACCEPTED


def test_por_low_reputation_divergent_cannot_block():
    cfg = ConsensusConfig(
        min_identical=1.7, max_nonidentical=3.0, por_weighted=True,
        agency_reputations={"x": 0.9, "y": 0.9, "z": 0.1},
    )
    node = AgencyNode("x", cfg)
    node.receive(_msg("D", "x"), now=0)
    _, alerts = node.receive(_msg("ZZZ", "z"), now=1)
    assert [a.kind for a in alerts] == [DISPUTED_SET]
    decision, _ = node.receive(_msg("D", "y"), now=2)
    assert decision.outcome is Outcome.ACCEPTED_WITH_DISPUTE
    assert decision.divergent == ("z",)


def test_por_unknown_sender_weighs_one():
    cfg = ConsensusConfig(
        min_identical=2.0, max_nonidentical=4.0, por_weighted=True,
        agency_reputations={},
    )
    node = AgencyNode("x", cfg)
    assert node.receive(_msg("D", "p"), now=0)[0] is None
    decision, _ = node.receive(_msg("D", "q"), now=1)
    assert decision.outcome is Outcome.ACCEPTED


# --- config validation ----------------------------------------------------

def test_config_rejects_unweighted_fractional_thresholds():
    with pytest.raises(ConfigError):
        ConsensusConfig(min_identical=1.5).validate()
    with pytest.raises(ConfigError):
        ConsensusConfig(max_nonidentical=2.5).validate()


def test_config_rejects_small_quorum():
    with pytest.raises(ConfigError):
        ConsensusConfig(min_identical=1).validate()


def test_config_rejects_bad_timeout_and_reputation():
    with pytest.raises(ConfigError):
        ConsensusConfig(timeout=0).validate()
    with pytest.raises(ConfigError):
        ConsensusConfig(agency_reputations={"a": 1.5}).validate()


def test_network_model_validation():
    with pytest.raises(ConfigError):
        NetworkModel(delay_min=3, delay_max=1)
    with pytest.raises(ConfigError):
        NetworkModel(drop_rate=1.0)
    NetworkModel(delay_min=0, delay_max=0, drop_rate=0.0)


# --- mining reward -----------------------------------------------------------

def _send(tick, sender, digest):
    return TranscriptEvent(tick=tick, type="send", cycle=0, sender=sender, digest=digest)


def test_mining_reward_first_sender():
    events = [_send(0, "a", "D"), _send(1, "b", "D"), _send(2, "c", "D")]
    assert mining_reward(events, "D", 1) == ["a"]


def test_mining_reward_skips_divergent_sender():
    events = [_send(0, "a", "D"), _send(0, "b", "X"), _send(0, "c", "D")]
    assert mining_reward(events, "D", 2) == ["a", "c"]


def test_mining_reward_broken_cycle_pays_nobody():
    events = [_send(0, "a", "D")]
    assert mining_reward(events, None, 3) == []


def test_mining_reward_tie_broken_by_id_then_dedup():
    events = [
        _send(5, "b", "D"), _send(5, "a", "D"), _send(6, "a", "D"),
    ]
    assert mining_reward(events, "D", 2) == ["a", "b"]


# --- simulation scenarios ---------------------------------------------------

def _collect_outcomes(result):
    return {
        aid: [d.outcome if d is not None else None for d in result.decisions[aid]]
        for aid in result.agency_ids
    }


def test_agency_id_naming():
    assert agency_ids(5) == ["a00", "a01", "a02", "a03", "a04"]
    assert agency_ids(150)[0] == "a000"
    assert agency_ids(150)[-1] == "a149"


def test_all_honest_agencies_agree_without_alerts():
    cfg = ConsensusConfig(min_identical=3, max_nonidentical=5)
    result = run_simulation(5, cycles=4, cfg=cfg, seed=1)
    for aid, outcomes in _collect_outcomes(result).items():
        assert outcomes == [Outcome.ACCEPTED] * 4
    assert not [ev for ev in result.events if ev.type == "alert"]
    for cycle in range(4):
        digests = {result.decisions[aid][cycle].digest for aid in result.agency_ids}
        assert len(digests) == 1
    # digests differ across cycles
    assert len({result.decisions["a00"][c].digest for c in range(4)}) == 4


def test_one_divergent_agency_is_named_by_everyone():
    cfg = ConsensusConfig(min_identical=3, max_nonidentical=5)
    result = run_simulation(5, faulty={"a00": DIVERGENT}, cycles=3, cfg=cfg, seed=2)
    honest = [aid for aid in result.agency_ids if aid != "a00"]
    for aid in honest:
        for decision in result.decisions[aid]:
            assert decision.outcome is Outcome.ACCEPTED_WITH_DISPUTE
            assert decision.divergent == ("a00",)
    assert any(ev.type == "alert" and ev.alert.kind == DISPUTED_SET for ev in result.events)


def test_three_silent_agencies_break_consensus():
    cfg = ConsensusConfig(min_identical=3, max_nonidentical=5, timeout=10)
    faulty = {"a00": SILENT, "a01": SILENT, "a02": SILENT}
    result = run_simulation(5, faulty=faulty, cycles=3, cfg=cfg, seed=3)
    for aid, outcomes in _collect_outcomes(result).items():
        assert outcomes == [Outcome.BROKEN] * 3
    checks = [ev for ev in result.events if ev.type == "alert" and ev.alert.kind == SYSTEM_CHECK]
    assert len(checks) == 5 * 3
    assert result.rewards == [[], [], []]


def test_equivocating_agency_disputes_every_honest_node():
    cfg = ConsensusConfig(min_identical=3, max_nonidentical=5)
    result = run_simulation(5, faulty={"a00": EQUIVOCATING}, cycles=2, cfg=cfg, seed=4)
    for aid in ("a01", "a02", "a03", "a04"):
        for decision in result.decisions[aid]:
            assert decision.outcome is Outcome.ACCEPTED_WITH_DISPUTE
            assert decision.divergent == ("a00",)


def test_rewards_follow_send_order_and_skip_divergent():
    cfg = ConsensusConfig(min_identical=3, max_nonidentical=5)
    honest = run_simulation(5, cycles=2, cfg=cfg, seed=5, reward_slots=2)
    assert honest.rewards == [["a00", "a01"], ["a00", "a01"]]
    forked = run_simulation(
        5, faulty={"a00": DIVERGENT}, cycles=2, cfg=cfg, seed=5, reward_slots=2,
    )
    assert forked.rewards == [["a01", "a02"], ["a01", "a02"]]


def test_transcript_deterministic_under_seed(tmp_path):
    cfg = ConsensusConfig(min_identical=3, max_nonidentical=5)
    network = NetworkModel(delay_min=1, delay_max=4, drop_rate=0.2)
    kw = dict(
        faulty={"a01": DIVERGENT}, cycles=5, cfg=cfg, network=network, seed=99,
    )
    a = run_simulation(6, **kw)
    b = run_simulation(6, **kw)
    path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    export_transcript(a.events, path_a)
    export_transcript(b.events, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    assert summarize(a) == summarize(b)


def test_seed_changes_lossy_delivery_pattern(tmp_path):
    cfg = ConsensusConfig(min_identical=3, max_nonidentical=5)
    network = NetworkModel(delay_min=1, delay_max=4, drop_rate=0.4)
    a = run_simulation(6, cycles=4, cfg=cfg, network=network, seed=1)
    b = run_simulation(6, cycles=4, cfg=cfg, network=network, seed=2)
    receipts_a = [(ev.tick, ev.sender, ev.receiver) for ev in a.events if ev.type == "receive"]
    receipts_b = [(ev.tick, ev.sender, ev.receiver) for ev in b.events if ev.type == "receive"]
    assert receipts_a != receipts_b


def test_por_degeneracy_matches_unweighted_counts(tmp_path):
    base_cfg = ConsensusConfig(min_identical=3, max_nonidentical=5)
    por_cfg = ConsensusConfig(
        min_identical=3, max_nonidentical=5, por_weighted=True,
        agency_reputations={aid: 1.0 for aid in agency_ids(5)},
    )
    network = NetworkModel(delay_min=1, delay_max=3, drop_rate=0.25)
    kw = dict(faulty={"a00": DIVERGENT}, cycles=6, network=network, seed=11)
    plain = run_simulation(5, cfg=base_cfg, **kw)
    weighted = run_simulation(5, cfg=por_cfg, **kw)
    path_a, path_b = tmp_path / "plain.jsonl", tmp_path / "por.jsonl"
    export_transcript(plain.events, path_a)
    export_transcript(weighted.events, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_timeout_monotonicity():
    network = NetworkModel(delay_min=1, delay_max=6, drop_rate=0.25)
    for seed in (0, 1, 2, 3):
        long_cfg = ConsensusConfig(min_identical=3, max_nonidentical=5, timeout=12)
        short_cfg = ConsensusConfig(min_identical=3, max_nonidentical=5, timeout=3)
        kw = dict(faulty={"a04": SILENT}, cycles=4, network=network, seed=seed)
        long_run = run_simulation(5, cfg=long_cfg, **kw)
        short_run = run_simulation(5, cfg=short_cfg, **kw)
        for aid in long_run.agency_ids:
            for cycle in range(4):
                long_d = long_run.decisions[aid][cycle]
                short_d = short_run.decisions[aid][cycle]
                if short_d is not None and short_d.outcome is not Outcome.BROKEN:
                    assert long_d is not None
                    assert long_d.outcome == short_d.outcome
                    assert long_d.digest == short_d.digest
                if long_d is not None and long_d.outcome is Outcome.BROKEN:
                    assert short_d is None or short_d.outcome is Outcome.BROKEN


def test_alert_completeness_for_divergent_senders():
    network = NetworkModel(delay_min=1, delay_max=4, drop_rate=0.3)
    cfg = ConsensusConfig(min_identical=3, max_nonidentical=7, timeout=12)
    for seed in range(6):
        result = run_simulation(
            7, faulty={"a02": DIVERGENT, "a05": DIVERGENT},
            cycles=3, cfg=cfg, network=network, seed=seed,
        )
        for cycle in range(3):
            for aid in result.agency_ids:
                decision = result.decisions[aid][cycle]
                if decision is None or decision.digest is None:
                    continue
                decision_idx = next(
                    i for i, ev in enumerate(result.events)
                    if ev.type == "decision" and ev.cycle == cycle and ev.sender == aid
                )
                alerted = {
                    s for ev in result.events[:decision_idx]
                    if ev.type == "alert" and ev.cycle == cycle
                    and ev.sender == aid and ev.alert.kind == DISPUTED_SET
                    for s in ev.alert.senders
                }
                for i, ev in enumerate(result.events[:decision_idx]):
                    if (ev.type == "receive" and ev.cycle == cycle
                            and ev.receiver == aid
                            and ev.sender in ("a02", "a05")):
                        assert (ev.sender in decision.divergent
                                or ev.sender in alerted), (seed, cycle, aid, ev.sender)


def test_every_cycle_event_lands_inside_its_period():
    """Nodes live one cycle: nothing of cycle c happens outside its period."""
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randint(2, 6)
        kinds = [rng.choice(FAULT_KINDS) for _ in range(rng.randint(0, n - 1))]
        faulty = dict(zip(agency_ids(n), kinds))
        delay_min = rng.randint(0, 6)
        delay_max = delay_min + rng.choice([0, 0, 1, 4, 9])
        network = NetworkModel(delay_min, delay_max, rng.choice([0.0, 0.1, 0.5]))
        cfg = ConsensusConfig(
            min_identical=rng.randint(2, 4), max_nonidentical=rng.randint(1, 6),
            timeout=rng.randint(1, 12),
        )
        result = run_simulation(n, faulty, 3, cfg, network, seed=rng.randrange(10**6))
        # the last agency is never faulty, so every cycle starts with a send
        period = next(ev.tick for ev in result.events if ev.type == "send" and ev.cycle == 1)
        for ev in result.events:
            if ev.type in ("receive", "decision", "alert"):
                assert ev.cycle * period <= ev.tick < (ev.cycle + 1) * period, (ev, cfg, network)


def _random_simulation(rng):
    n = rng.randint(1, 9)
    kinds = [rng.choice(FAULT_KINDS) for _ in range(rng.randint(0, n))]
    faulty = dict(zip(rng.sample(agency_ids(n), len(kinds)), kinds))
    delay_min = rng.randint(0, 3)
    network = NetworkModel(delay_min, delay_min + rng.randint(0, 4), rng.choice([0.0, 0.1, 0.3]))
    if rng.random() < 0.5:
        reputations = {aid: rng.choice([0.0, 0.3, 1.0, rng.random()]) for aid in agency_ids(n)}
        cfg = ConsensusConfig(
            min_identical=rng.uniform(0.2, 3.0), max_nonidentical=rng.uniform(0.2, 5.0),
            timeout=rng.randint(1, 8), por_weighted=True, agency_reputations=reputations,
        )
    else:
        cfg = ConsensusConfig(
            min_identical=rng.randint(2, 4), max_nonidentical=rng.randint(1, 6),
            timeout=rng.randint(1, 8),
        )
    return run_simulation(n, faulty, rng.randint(1, 3), cfg, network, seed=rng.randrange(10**6))


def test_receipts_come_in_send_order_and_disputes_follow_digest_counts():
    """Checked from the transcript alone, over random configurations."""
    rng = random.Random(47)
    for _ in range(200):
        result = _random_simulation(rng)
        events = result.events
        # Within a (cycle, tick): senders by id, each sender's own receipt
        # before its receivers in id order.
        last_key = {}
        for ev in events:
            if ev.type == "receive":
                key = (ev.sender, ev.receiver != ev.sender, ev.receiver)
                prev = last_key.get((ev.cycle, ev.tick))
                assert prev is None or prev < key, (prev, ev)
                last_key[ev.cycle, ev.tick] = key
        # Replay each node's receipts: a disputed_set alert follows a receipt
        # exactly when the node already holds a different digest.
        held = {}
        decided = set()
        for i, ev in enumerate(events):
            if ev.type == "receive":
                node = (ev.cycle, ev.receiver)
                digests = held.setdefault(node, set())
                after = events[i + 1] if i + 1 < len(events) else None
                disputed = (after is not None and after.type == "alert"
                            and after.sender == ev.receiver
                            and after.alert.kind == DISPUTED_SET)
                expected = node not in decided and bool(digests - {ev.digest})
                assert disputed == expected, (ev, digests)
                if node not in decided:
                    digests.add(ev.digest)
            elif ev.type == "decision":
                node = (ev.cycle, ev.sender)
                decided.add(node)
                digests = held[node]
                if ev.decision.outcome is not Outcome.BROKEN:
                    assert (ev.decision.outcome is Outcome.ACCEPTED_WITH_DISPUTE) == (
                        len(digests) >= 2
                    ), (ev, digests)


def test_summary_shape_and_counts():
    cfg = ConsensusConfig(min_identical=3, max_nonidentical=5)
    result = run_simulation(5, faulty={"a00": DIVERGENT}, cycles=2, cfg=cfg, seed=6)
    summary = summarize(result)
    assert summary["agencies"] == agency_ids(5)
    assert summary["cycles"] == 2
    for row in summary["per_cycle"]:
        assert row["outcomes"]["accepted_with_dispute"] == 5
        assert row["outcomes"]["accepted"] == 0
        assert row["outcomes"]["undecided"] == 0
        assert row["divergent"] == ["a00"]
        assert row["alerts"][DISPUTED_SET] > 0

    # per-cycle alert counts against a brute-force count over the transcript
    faulty = {"a00": DIVERGENT, "a01": EQUIVOCATING, "a02": SILENT}
    network = NetworkModel(delay_min=1, delay_max=3, drop_rate=0.2)
    result = run_simulation(8, faulty=faulty, cycles=12, cfg=cfg, network=network, seed=5)
    summary = summarize(result)
    seen = set()
    for cycle, row in enumerate(summary["per_cycle"]):
        expected = {}
        for ev in result.events:
            if ev.type == "alert" and ev.cycle == cycle:
                expected[ev.alert.kind] = expected.get(ev.alert.kind, 0) + 1
        assert row["alerts"] == expected
        seen.update(expected)
    assert seen == {DISPUTED_SET, DIVERGENT_SENDERS, SYSTEM_CHECK}


def test_transcript_jsonl_is_parseable(tmp_path):
    cfg = ConsensusConfig(min_identical=3, max_nonidentical=5)
    result = run_simulation(5, cycles=1, cfg=cfg, seed=7)
    path = tmp_path / "events.jsonl"
    export_transcript(result.events, path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(result.events)
    parsed = [json.loads(line) for line in lines]
    assert {p["type"] for p in parsed} == {"send", "receive", "decision"}
    sends = [p for p in parsed if p["type"] == "send"]
    assert len(sends) == 5


def test_simulation_rejects_bad_setup():
    with pytest.raises(ConfigError):
        run_simulation(0)
    with pytest.raises(ConfigError):
        run_simulation(3, faulty={"zzz": DIVERGENT})
    with pytest.raises(ConfigError):
        run_simulation(3, faulty={"a00": "weird"})


def test_single_agency_cannot_reach_quorum():
    cfg = ConsensusConfig(min_identical=2, max_nonidentical=3, timeout=4)
    result = run_simulation(1, cycles=2, cfg=cfg, seed=8)
    assert _collect_outcomes(result)["a00"] == [Outcome.BROKEN, Outcome.BROKEN]
