"""Reputation-consensus protocol among agencies, plus a simulator.

Each cycle every agency broadcasts the digest of its canonical state
snapshot and independently decides from the receipts it sees.  A node
accepts once enough identical digests arrive; a receipt that conflicts
with earlier ones marks the cycle disputed and raises an alert; and a
node that cannot decide within the timeout declares the cycle broken and
requests a system check.  ``receive`` tests the receipt cap only while
every digest is below ``min_identical``, so today the cap never resolves
a cycle (ROADMAP item 8).  Receipts may be weighted by the sender
agency's own reputation; both thresholds are then weight sums.

The simulator drives a set of nodes over a lossy, delayed network with
configurable fault models and produces a deterministic event transcript:
same inputs and seed, same transcript bytes.
"""

from __future__ import annotations

import enum
import heapq
import json
import random
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

from .config import ConsensusConfig
from .errors import ConfigError
from .model import ReputationState
from .store import state_digest

# Alert kinds.
DISPUTED_SET = "disputed_set"
DIVERGENT_SENDERS = "divergent_senders"
SYSTEM_CHECK = "system_check"

# Fault models.
SILENT = "silent"
DIVERGENT = "divergent"
EQUIVOCATING = "equivocating"
FAULT_KINDS = (SILENT, DIVERGENT, EQUIVOCATING)

AgencyId = str


class Outcome(str, enum.Enum):
    ACCEPTED = "accepted"
    ACCEPTED_WITH_DISPUTE = "accepted_with_dispute"
    BROKEN = "broken"


class StateDigest(NamedTuple):
    """One agency's claim about the canonical state for a cycle."""

    cycle: int
    digest: str
    sender: AgencyId


@dataclass(frozen=True)
class Alert:
    kind: str
    cycle: int
    senders: tuple[AgencyId, ...] = ()
    note: str = ""

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "cycle": self.cycle,
            "senders": list(self.senders),
            "note": self.note,
        }


@dataclass(frozen=True)
class AgencyDecision:
    outcome: Outcome
    cycle: int
    digest: str | None = None
    divergent: tuple[AgencyId, ...] = ()
    alerts: tuple[Alert, ...] = ()

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome.value,
            "cycle": self.cycle,
            "digest": self.digest,
            "divergent": list(self.divergent),
        }


class AgencyNode:
    """Per-agency decision state machine for one cycle.

    The simulator builds fresh nodes for every cycle: a cycle lasts long
    enough for every delivery and deadline of that cycle to land inside
    it, so no receipt crosses a cycle boundary.  Receipts for another
    cycle and from duplicate senders are ignored, and after a decision
    the node ignores further receipts.
    """

    def __init__(self, agency_id: AgencyId, cfg: ConsensusConfig, cycle: int = 0):
        self.agency_id = agency_id
        self.cfg = cfg
        self.cycle = cycle
        self.decision: AgencyDecision | None = None
        self._digest_senders: dict[str, list[AgencyId]] = {}
        self._digest_weights: dict[str, float] = {}
        self._seen_senders: set[AgencyId] = set()
        self._total_weight = 0.0
        self._first_receipt: int | None = None

    def _sender_weight(self, sender: AgencyId) -> float:
        if not self.cfg.por_weighted:
            return 1.0
        return self.cfg.agency_reputations.get(sender, 1.0)

    def receive(self, msg: StateDigest, now: int) -> tuple[AgencyDecision | None, list[Alert]]:
        """Process one digest receipt; returns (decision, alerts emitted)."""
        if (msg.cycle != self.cycle or self.decision is not None
                or msg.sender in self._seen_senders):
            return None, []
        self._seen_senders.add(msg.sender)
        if self._first_receipt is None:
            self._first_receipt = now

        alerts: list[Alert] = []
        self._digest_senders.setdefault(msg.digest, []).append(msg.sender)
        weight = self._sender_weight(msg.sender)
        self._digest_weights[msg.digest] = self._digest_weights.get(msg.digest, 0.0) + weight
        self._total_weight += weight
        # Every other digest came earlier: more than one is a conflict.
        if len(self._digest_senders) > 1:
            alerts.append(Alert(
                kind=DISPUTED_SET,
                cycle=self.cycle,
                senders=(msg.sender,),
                note="digest conflicts with earlier receipts",
            ))

        decision = None
        if self._digest_weights[msg.digest] >= self.cfg.min_identical:
            decision = self._accept(msg.digest)
        elif (self._total_weight >= self.cfg.max_nonidentical
              and max(self._digest_weights.values()) >= self.cfg.min_identical):
            decision = self._forced_resolution()
        if decision is not None:
            self.decision = decision
            alerts.extend(decision.alerts)
        return decision, alerts

    def _other_senders(self, digest: str) -> tuple[AgencyId, ...]:
        others = [
            sender
            for d, senders in self._digest_senders.items() if d != digest
            for sender in senders
        ]
        return tuple(sorted(others))

    def _accept(self, digest: str) -> AgencyDecision:
        if len(self._digest_senders) == 1:
            return AgencyDecision(Outcome.ACCEPTED, self.cycle, digest)
        divergent = self._other_senders(digest)
        alert = Alert(
            kind=DIVERGENT_SENDERS,
            cycle=self.cycle,
            senders=divergent,
            note="quorum reached in a disputed cycle",
        )
        return AgencyDecision(
            Outcome.ACCEPTED_WITH_DISPUTE, self.cycle, digest,
            divergent=divergent, alerts=(alert,),
        )

    def _forced_resolution(self) -> AgencyDecision:
        """Resolve at the receipt cap for the best-supported digest.

        Ties go to the lexicographically smallest digest and are called
        out in the alert.  Never called today: ``receive`` tests the cap
        only while every digest is below ``min_identical`` (ROADMAP item 8).
        """
        best = max(self._digest_weights.values())
        leaders = sorted(d for d, w in self._digest_weights.items() if w == best)
        winner = leaders[0]
        divergent = self._other_senders(winner)
        note = "receipt cap reached"
        if len(leaders) > 1:
            note += f"; tie between {len(leaders)} digests broken lexicographically"
        alert = Alert(
            kind=DIVERGENT_SENDERS,
            cycle=self.cycle,
            senders=divergent,
            note=note,
        )
        return AgencyDecision(
            Outcome.ACCEPTED_WITH_DISPUTE, self.cycle, winner,
            divergent=divergent, alerts=(alert,),
        )

    @property
    def deadline(self) -> int | None:
        """Tick at which ``tick`` breaks the cycle, or None if it never will."""
        if self.decision is not None or self._first_receipt is None:
            return None
        return self._first_receipt + self.cfg.timeout

    def tick(self, now: int) -> tuple[AgencyDecision | None, list[Alert]]:
        """Check the cycle timeout; may declare the cycle broken.

        The clock runs from the first receipt of the cycle; a node that
        never received anything never times out.
        """
        deadline = self.deadline
        if deadline is not None and now >= deadline:
            alert = Alert(
                kind=SYSTEM_CHECK,
                cycle=self.cycle,
                senders=(self.agency_id,),
                note="no quorum before timeout",
            )
            decision = AgencyDecision(Outcome.BROKEN, self.cycle, alerts=(alert,))
            self.decision = decision
            return decision, [alert]
        return None, []


# --- simulation -----------------------------------------------------------


class TranscriptEvent(NamedTuple):
    tick: int
    type: str
    cycle: int
    sender: AgencyId | None = None
    receiver: AgencyId | None = None
    digest: str | None = None
    decision: AgencyDecision | None = None
    alert: Alert | None = None

    def to_json(self) -> dict:
        out: dict = {"tick": self.tick, "type": self.type, "cycle": self.cycle}
        if self.sender is not None:
            out["sender"] = self.sender
        if self.receiver is not None:
            out["receiver"] = self.receiver
        if self.digest is not None:
            out["digest"] = self.digest
        if self.decision is not None:
            out["decision"] = self.decision.to_json()
        if self.alert is not None:
            out["alert"] = self.alert.to_json()
        return out


@dataclass(frozen=True)
class NetworkModel:
    """Per-link delivery model: uniform integer delay plus a drop chance."""

    delay_min: int = 1
    delay_max: int = 1
    drop_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.delay_min <= self.delay_max:
            raise ConfigError("need 0 <= delay_min <= delay_max")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ConfigError("drop_rate must lie in [0, 1)")


@dataclass
class SimulationResult:
    agency_ids: list[AgencyId]
    cycles: int
    events: list[TranscriptEvent]
    decisions: dict[AgencyId, list[AgencyDecision | None]]
    rewards: list[list[AgencyId]]


def mining_reward(
    events: list[TranscriptEvent],
    accepted_digest: str | None,
    reward_slots: int,
) -> list[AgencyId]:
    """First senders of the accepted digest, in send order.

    Returns up to ``reward_slots`` distinct senders ordered by send tick
    with ties broken by agency id.  A broken cycle (no accepted digest)
    rewards nobody.
    """
    if accepted_digest is None or reward_slots <= 0:
        return []
    sends = sorted(
        (ev for ev in events if ev.type == "send" and ev.digest == accepted_digest),
        key=lambda ev: (ev.tick, ev.sender),
    )
    winners: list[AgencyId] = []
    for ev in sends:
        if ev.sender not in winners:
            winners.append(ev.sender)
            if len(winners) == reward_slots:
                break
    return winners


def agency_ids(n_agencies: int) -> list[AgencyId]:
    width = max(2, len(str(n_agencies - 1)))
    return [f"a{i:0{width}d}" for i in range(n_agencies)]


def _cycle_base_state(cycle: int) -> ReputationState:
    # Small synthetic state that changes every cycle so digests do too.
    values = {f"m{j}": ((cycle * 3 + j * 5) % 11) / 10.0 for j in range(3)}
    return ReputationState(at=cycle, values=values)


def _perturbed_digest(cycle: int, tag: str) -> str:
    state = _cycle_base_state(cycle)
    state.values[f"fork-{tag}"] = 1.0
    return state_digest(state)


def run_simulation(
    n_agencies: int,
    faulty: dict[AgencyId, str] | None = None,
    cycles: int = 10,
    cfg: ConsensusConfig | None = None,
    network: NetworkModel | None = None,
    seed: int = 0,
    reward_slots: int = 1,
) -> SimulationResult:
    """Simulate ``cycles`` consensus rounds and return the full transcript.

    ``faulty`` maps agency ids to fault kinds: silent agencies send
    nothing, divergent ones broadcast a digest of a forked state, and
    equivocating ones send a different forked digest to every peer.
    Delivery order is deterministic: events are processed by (tick,
    send order), and all randomness comes from ``seed``.  Only
    ticks that hold a delivery or a node's timeout deadline are visited,
    so the cost follows the messages, not the width of the delay range.
    """
    if n_agencies < 1:
        raise ConfigError("need at least one agency")
    if cycles < 0:
        raise ConfigError("cycles must be non-negative")
    if reward_slots < 0:
        raise ConfigError("reward_slots must be non-negative")
    cfg = cfg if cfg is not None else ConsensusConfig()
    cfg.validate()
    network = network if network is not None else NetworkModel()
    faulty = dict(faulty) if faulty else {}
    ids = agency_ids(n_agencies)
    for agency, kind in faulty.items():
        if agency not in ids:
            raise ConfigError(f"unknown faulty agency {agency!r}")
        if kind not in FAULT_KINDS:
            raise ConfigError(f"unknown fault kind {kind!r}")

    rng = random.Random(seed)
    # randint(a, b) is randrange(a, b + 1): the same draws, one call less.
    randrange, draw = rng.randrange, rng.random
    delay_lo, delay_hi = network.delay_min, network.delay_max + 1
    drop_rate = network.drop_rate
    events: list[TranscriptEvent] = []
    log = events.append
    decisions: dict[AgencyId, list[AgencyDecision | None]] = {aid: [] for aid in ids}
    rewards: list[list[AgencyId]] = []
    period = cfg.timeout + network.delay_max + 2

    def log_node_output(now, aid, decision, alerts):
        for alert in alerts:
            log(TranscriptEvent(now, "alert", alert.cycle, aid, alert=alert))
        if decision is not None:
            log(TranscriptEvent(
                now, "decision", decision.cycle, aid,
                digest=decision.digest, decision=decision,
            ))

    for cycle in range(cycles):
        t0 = cycle * period
        nodes = {aid: AgencyNode(aid, cfg, cycle) for aid in ids}
        base_digest = state_digest(_cycle_base_state(cycle))
        cycle_events_start = len(events)
        # tick -> (receiver, msg) in send order: senders by zero-padded id,
        # each sender's own receipt before its receivers in id order.
        deliveries: dict[int, list[tuple[AgencyId, StateDigest]]] = {}

        for sender in ids:
            fault = faulty.get(sender)
            if fault == SILENT:
                continue
            if fault == DIVERGENT:
                own_digest = _perturbed_digest(cycle, sender)
            elif fault == EQUIVOCATING:
                own_digest = _perturbed_digest(cycle, f"{sender}->{sender}")
            else:
                own_digest = base_digest
            own_msg = StateDigest(cycle, own_digest, sender)
            if fault != EQUIVOCATING:
                log(TranscriptEvent(t0, "send", cycle, sender, digest=own_digest))

            # A sender's own digest counts as a receipt at send time.
            deliveries.setdefault(t0, []).append((sender, own_msg))
            for receiver in ids:
                if receiver == sender:
                    continue
                msg = own_msg
                if fault == EQUIVOCATING:
                    digest = _perturbed_digest(cycle, f"{sender}->{receiver}")
                    msg = StateDigest(cycle, digest, sender)
                    log(TranscriptEvent(t0, "send", cycle, sender, receiver, digest))
                at = t0 + randrange(delay_lo, delay_hi)
                if draw() < drop_rate:
                    continue
                deliveries.setdefault(at, []).append((receiver, msg))

        # Only ticks holding a delivery or a deadline are visited, each once
        # (a new deadline lies after ``now``): deliveries, then tick() by id.
        pending = sorted(deliveries)
        while pending:
            now = heapq.heappop(pending)
            for receiver, msg in deliveries.pop(now):
                log(TranscriptEvent(now, "receive", cycle, msg.sender, receiver, msg.digest))
                decision, alerts = nodes[receiver].receive(msg, now)
                log_node_output(now, receiver, decision, alerts)
            for aid in ids:
                node = nodes[aid]
                decision, alerts = node.tick(now)
                log_node_output(now, aid, decision, alerts)
                deadline = node.deadline
                if deadline is not None and deadline not in deliveries:
                    deliveries[deadline] = []
                    heapq.heappush(pending, deadline)

        cycle_events = events[cycle_events_start:]
        accepted: dict[str, int] = {}
        for aid in ids:
            decision = nodes[aid].decision
            decisions[aid].append(decision)
            if decision is not None and decision.digest is not None:
                accepted[decision.digest] = accepted.get(decision.digest, 0) + 1
        if accepted:
            best = max(accepted.values())
            accepted_digest = min(d for d, c in accepted.items() if c == best)
        else:
            accepted_digest = None
        rewards.append(mining_reward(cycle_events, accepted_digest, reward_slots))

    return SimulationResult(
        agency_ids=ids, cycles=cycles, events=events,
        decisions=decisions, rewards=rewards,
    )


def summarize(result: SimulationResult) -> dict:
    """Per-cycle outcome counts, alert counts, named divergents, rewards."""
    alerts_by_cycle: list[dict[str, int]] = [{} for _ in range(result.cycles)]
    for ev in result.events:
        if ev.type == "alert":
            alerts = alerts_by_cycle[ev.cycle]
            alerts[ev.alert.kind] = alerts.get(ev.alert.kind, 0) + 1
    per_cycle = []
    for cycle in range(result.cycles):
        outcomes = {o.value: 0 for o in Outcome}
        outcomes["undecided"] = 0
        divergent: set[AgencyId] = set()
        for aid in result.agency_ids:
            decision = result.decisions[aid][cycle]
            if decision is None:
                outcomes["undecided"] += 1
            else:
                outcomes[decision.outcome.value] += 1
                divergent.update(decision.divergent)
        per_cycle.append({
            "cycle": cycle,
            "outcomes": outcomes,
            "alerts": dict(sorted(alerts_by_cycle[cycle].items())),
            "divergent": sorted(divergent),
            "rewards": result.rewards[cycle],
        })
    return {
        "agencies": result.agency_ids,
        "cycles": result.cycles,
        "per_cycle": per_cycle,
    }


_encode_nested = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def transcript_line(ev: TranscriptEvent) -> str:
    """``ev.to_json()`` as compact JSON with sorted keys and ASCII escapes.

    Byte for byte ``json.dumps(ev.to_json(), sort_keys=True,
    separators=(",", ":")) + "\\n"``, written key by key: the top-level
    keys in sorted order, strings quoted by the encoder's own
    ``encode_basestring_ascii`` and the nested decision and alert objects
    through one shared encoder.
    """
    tick, type_, cycle, sender, receiver, digest, decision, alert = ev
    line = "{"
    if alert is not None:
        line += '"alert":' + _encode_nested(alert.to_json()) + ","
    line += f'"cycle":{cycle}'
    if decision is not None:
        line += ',"decision":' + _encode_nested(decision.to_json())
    if digest is not None:
        line += ',"digest":' + encode_basestring_ascii(digest)
    if receiver is not None:
        line += ',"receiver":' + encode_basestring_ascii(receiver)
    if sender is not None:
        line += ',"sender":' + encode_basestring_ascii(sender)
    return line + f',"tick":{tick},"type":{encode_basestring_ascii(type_)}}}\n'


def export_transcript(events: list[TranscriptEvent], path: str | Path) -> None:
    """Write one ``transcript_line`` per event, in transcript order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(map(transcript_line, events))
