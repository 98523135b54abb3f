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
    agency_ids,
    export_transcript,
    run_simulation,
    summarize,
)
from liquidrank.errors import ConfigError


def _node(agency="n0", **cfg_kw):
    cfg_kw.setdefault("min_identical", 2)
    cfg_kw.setdefault("max_nonidentical", 3)
    return AgencyNode(agency, ConsensusConfig(**cfg_kw))


def _msg(digest, sender):
    return StateDigest(digest=digest, sender=sender)


# --- receive ladder -------------------------------------------------------

def test_accept_on_second_identical_receipt():
    node = _node(min_identical=2)
    decision, alerts = node.receive(_msg("D", "a"))
    assert decision is None and alerts == []
    decision, alerts = node.receive(_msg("D", "b"))
    assert decision is not None
    assert decision.outcome is Outcome.ACCEPTED
    assert decision.digest == "D"
    assert alerts == []


def test_conflicting_receipt_disputes_then_majority_accepts():
    node = _node(min_identical=2, max_nonidentical=3)
    node.receive(_msg("D", "a"))
    decision, alerts = node.receive(_msg("X", "b"))
    assert decision is None
    assert [a.kind for a in alerts] == [DISPUTED_SET]
    assert alerts[0].senders == ("b",)
    # the deciding receipt still differs from X, so it re-alerts the dispute
    decision, alerts = node.receive(_msg("D", "c"))
    assert decision.outcome is Outcome.ACCEPTED_WITH_DISPUTE
    assert decision.digest == "D"
    assert decision.divergent == ("b",)
    assert [a.kind for a in alerts] == [DISPUTED_SET, DIVERGENT_SENDERS]
    assert alerts[-1].senders == ("b",)


# --- timeout ---------------------------------------------------------------

def test_timeout_breaks_cycle():
    node = _node(min_identical=2)
    node.receive(_msg("D", "a"))
    decision, alerts = node.time_out()
    assert decision.outcome is Outcome.BROKEN
    assert decision.digest is None
    assert [a.kind for a in alerts] == [SYSTEM_CHECK]
    assert alerts[0].senders == (node.agency_id,)
    assert node.decision is decision


def test_time_out_after_decision_is_noop():
    node = _node(min_identical=2)
    node.receive(_msg("D", "a"))
    node.receive(_msg("D", "b"))
    assert node.time_out() == (None, [])
    assert node.decision.outcome is Outcome.ACCEPTED


# --- forced resolution at the receipt cap ----------------------------------
# Unreachable through receive(): any digest at or above min_identical decides
# the cycle the moment its own receipt lands, so the cap rung is exercised
# directly.

def test_forced_resolution_majority_and_tie_break():
    node = _node(min_identical=2, max_nonidentical=4)
    node.receive(_msg("B", "a"))
    node.receive(_msg("A", "b"))
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
    assert node.receive(_msg("D", "x"))[0] is None   # 0.9
    assert node.receive(_msg("D", "z"))[0] is None   # 1.0
    decision, _ = node.receive(_msg("D", "y"))       # 1.9
    assert decision.outcome is Outcome.ACCEPTED


def test_por_low_reputation_divergent_cannot_block():
    cfg = ConsensusConfig(
        min_identical=1.7, max_nonidentical=3.0, por_weighted=True,
        agency_reputations={"x": 0.9, "y": 0.9, "z": 0.1},
    )
    node = AgencyNode("x", cfg)
    node.receive(_msg("D", "x"))
    _, alerts = node.receive(_msg("ZZZ", "z"))
    assert [a.kind for a in alerts] == [DISPUTED_SET]
    decision, _ = node.receive(_msg("D", "y"))
    assert decision.outcome is Outcome.ACCEPTED_WITH_DISPUTE
    assert decision.divergent == ("z",)


def test_por_unknown_sender_weighs_one():
    cfg = ConsensusConfig(
        min_identical=2.0, max_nonidentical=4.0, por_weighted=True,
        agency_reputations={},
    )
    node = AgencyNode("x", cfg)
    assert node.receive(_msg("D", "p"))[0] is None
    decision, _ = node.receive(_msg("D", "q"))
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


def test_cycle_reward_goes_to_the_first_senders_of_the_accepted_digest():
    # Drops break some cycles at every agency; the rest accept the honest
    # digest, whose first senders in agency-id order skip divergent a00.
    cfg = ConsensusConfig(min_identical=3, max_nonidentical=5, timeout=4)
    kw = dict(faulty={"a00": DIVERGENT}, cycles=12, cfg=cfg,
              network=NetworkModel(delay_min=1, delay_max=3, drop_rate=0.6), seed=0)
    result = run_simulation(5, reward_slots=2, **kw)
    all_broken = [
        all(result.decisions[aid][cycle].outcome is Outcome.BROKEN for aid in result.agency_ids)
        for cycle in range(12)
    ]
    assert 0 < sum(all_broken) < 12
    assert result.rewards == [[] if broken else ["a01", "a02"] for broken in all_broken]
    assert run_simulation(5, reward_slots=0, **kw).rewards == [[]] * 12


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


@pytest.mark.parametrize("width", [1, 2, 3, 5, 10, 10**12])
def test_delays_and_drops_replay_from_the_seed(width):
    # The rule run_simulation's docstring states, replayed from a fresh
    # stream: per send to another agency, in send order, the first
    # getrandbits(k) below the width, then one random() for the drop.
    delay_min, drop_rate, seed, cycles = 2, 0.3, 1000 + width, 4
    network = NetworkModel(delay_min, delay_min + width - 1, drop_rate)
    faulty = {"a00": SILENT, "a01": EQUIVOCATING, "a02": DIVERGENT}
    result = run_simulation(6, faulty=faulty, cycles=cycles, network=network, seed=seed)
    t0: dict[int, int] = {}
    receipts = {}
    for ev in result.events:
        if ev.type == "send":
            t0.setdefault(ev.cycle, ev.tick)
        elif ev.type == "receive" and ev.sender != ev.receiver:
            receipts[ev.cycle, ev.sender, ev.receiver] = ev.tick

    rng = random.Random(seed)
    k = width.bit_length()
    expected = {}
    sends = 0
    for cycle in range(cycles):
        for sender in result.agency_ids:
            if faulty.get(sender) == SILENT:
                continue
            for receiver in result.agency_ids:
                if receiver == sender:
                    continue
                sends += 1
                r = rng.getrandbits(k)
                while r >= width:
                    r = rng.getrandbits(k)
                if rng.random() >= drop_rate:
                    expected[cycle, sender, receiver] = t0[cycle] + delay_min + r
    assert receipts == expected
    assert 0 < len(expected) < sends


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
    result = run_simulation(n, faulty, rng.randint(1, 3), cfg, network,
                            seed=rng.randrange(10**6))
    return result, cfg


def test_receipts_come_in_send_order_and_disputes_follow_digest_counts():
    """Checked from the transcript alone, over random configurations."""
    rng = random.Random(47)
    for _ in range(200):
        result, _ = _random_simulation(rng)
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
        # The simulator's side of receive's contract: one receipt per
        # (cycle, receiver, sender), and a node decides at most once.
        receipts = [(ev.cycle, ev.receiver, ev.sender) for ev in events if ev.type == "receive"]
        assert len(receipts) == len(set(receipts))
        verdicts = [(ev.cycle, ev.sender) for ev in events if ev.type == "decision"]
        assert len(verdicts) == len(set(verdicts))
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


def test_timeouts_fall_on_first_receipt_plus_timeout():
    """Checked from the transcript alone, over random configurations."""
    rng = random.Random(53)
    fired = {False: 0, True: 0}
    for _ in range(200):
        result, cfg = _random_simulation(rng)
        first = {}
        decided_at = {}
        checks = {}
        # (cycle, tick) -> its ("receive" or alert kind, agency) pairs, in log order
        ticks = {}
        for ev in result.events:
            if ev.type == "receive":
                first.setdefault((ev.cycle, ev.receiver), ev.tick)
                ticks.setdefault((ev.cycle, ev.tick), []).append((ev.type, ev.receiver))
            elif ev.type == "decision" and ev.decision.outcome is not Outcome.BROKEN:
                decided_at[ev.cycle, ev.sender] = ev.tick
            elif ev.type == "alert" and ev.alert.kind == SYSTEM_CHECK:
                assert (ev.cycle, ev.sender) not in checks, ev
                checks[ev.cycle, ev.sender] = ev.tick
                ticks.setdefault((ev.cycle, ev.tick), []).append((ev.type, ev.sender))
        # A node times out at its first receipt's tick plus the timeout,
        # exactly when no receipt up to and including that tick decided it.
        expected = {
            node: tick + cfg.timeout for node, tick in first.items()
            if decided_at.get(node, tick + cfg.timeout + 1) > tick + cfg.timeout
        }
        assert checks == expected
        fired[cfg.por_weighted] += len(checks)
        # Within a tick, every receipt comes before the timeouts, and those
        # go in agency-id order.
        for seq in ticks.values():
            kinds = [kind for kind, _ in seq]
            n_receipts = kinds.count("receive")
            assert kinds[:n_receipts] == ["receive"] * n_receipts, seq
            timed_out = [aid for _, aid in seq[n_receipts:]]
            assert timed_out == sorted(timed_out), seq
    assert min(fired.values()) > 100, fired


def test_summary_counts_a_silent_agency_undecided():
    result = run_simulation(1, faulty={"a00": SILENT}, cycles=2)
    assert result.events == []
    assert [row["outcomes"]["undecided"] for row in summarize(result)["per_cycle"]] == [1, 1]


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
