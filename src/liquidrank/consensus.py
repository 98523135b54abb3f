"""Reputation-consensus protocol among agencies, plus a simulator.

Each cycle every agency broadcasts the digest of its canonical state
snapshot and independently decides from the receipts it sees.  A node
accepts once enough identical digests arrive; a receipt that conflicts
with earlier ones marks the cycle disputed and raises an alert; and a
node that cannot decide within the timeout declares the cycle broken and
requests a system check.  ``receive`` tests the receipt cap only while
every digest is below ``min_identical``, so today the cap never resolves
a cycle.  Receipts may be weighted by the sender agency's own
reputation; both thresholds are then weight sums.

The simulator drives a set of nodes over a lossy, delayed network with
configurable fault models and produces a deterministic event transcript:
same inputs and seed, same transcript bytes.
"""

from __future__ import annotations

import enum
import functools
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
    """One agency's claim about the canonical state, in the receiver's cycle."""

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
    it, so no receipt crosses a cycle boundary.  The simulator alone
    chooses which receipts reach a node; ``receive`` states its contract.

    The node keeps no clock: the simulator files each deadline and calls
    ``time_out`` when it falls, and it files deadlines only for nodes
    that received something, so a node that receives nothing never times
    out.
    """

    def __init__(self, agency_id: AgencyId, cfg: ConsensusConfig, cycle: int = 0):
        self.agency_id = agency_id
        self.cfg = cfg
        self.cycle = cycle
        self.decision: AgencyDecision | None = None
        self._digest_senders: dict[str, list[AgencyId]] = {}
        self._digest_weights: dict[str, float] = {}
        self._total_weight = 0.0

    def _sender_weight(self, sender: AgencyId) -> float:
        if not self.cfg.por_weighted:
            return 1.0
        return self.cfg.agency_reputations.get(sender, 1.0)

    def receive(self, msg: StateDigest) -> tuple[AgencyDecision | None, list[Alert]]:
        """Process one digest receipt; returns (decision, alerts emitted).

        Call it only while the node is undecided, with at most one digest per
        sender, all from the node's own cycle; the node checks none of this.
        """
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
        only while every digest is below ``min_identical``.
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

    def time_out(self) -> tuple[AgencyDecision | None, list[Alert]]:
        """Declare the cycle broken and request a system check, unless decided."""
        if self.decision is not None:
            return None, []
        alert = Alert(
            kind=SYSTEM_CHECK,
            cycle=self.cycle,
            senders=(self.agency_id,),
            note="no quorum before timeout",
        )
        self.decision = AgencyDecision(Outcome.BROKEN, self.cycle, alerts=(alert,))
        return self.decision, [alert]


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


# Builds a TranscriptEvent from all eight fields in one tuple, in C: the
# NamedTuple's own ``__new__`` is a Python function with keyword defaults.
_event = functools.partial(tuple.__new__, TranscriptEvent)


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


def check_fault_kind(kind: str) -> None:
    """Raise ConfigError unless ``kind`` is one of ``FAULT_KINDS``."""
    if kind not in FAULT_KINDS:
        expected = ", ".join(FAULT_KINDS)
        raise ConfigError(f"unknown fault kind {kind!r}; expected one of {expected}")


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
    send order), and all randomness comes from ``random.Random(seed)``.
    Each send to another agency, in send order, draws two things:

    - first its delay, ``delay_min + r``.  With ``w = delay_max -
      delay_min + 1`` and ``k = w.bit_length()``, ``r`` is the first
      ``getrandbits(k)`` below ``w``.  That is the loop
      ``Random.randrange(w)`` runs on CPython 3.10-3.13, so the stream
      is the one ``randint(delay_min, delay_max)`` draws there;
    - then one ``random()``, which drops the message when it is below
      ``drop_rate``.

    A node's deadline is its first delivery plus ``cfg.timeout``, so only
    the ticks holding a delivery or a deadline are visited: each delivers
    to its undecided receivers in send order, then times out, in
    agency-id order, the nodes whose deadline it is.

    A cycle's reward goes to the first ``reward_slots`` senders of the
    digest most agencies accepted (ties to the smallest digest), in
    agency-id order, since every send of a cycle happens at its first
    tick.  An equivocator's own digest is never sent, so it never earns a
    reward; a cycle where no agency accepted rewards nobody.
    """
    if n_agencies < 1:
        raise ConfigError("need at least one agency")
    if cycles < 0:
        raise ConfigError("cycles must be non-negative")
    if reward_slots < 0:
        raise ConfigError("reward_slots must be non-negative")
    cfg = cfg if cfg is not None else ConsensusConfig()
    network = network if network is not None else NetworkModel()
    faulty = dict(faulty) if faulty else {}
    ids = agency_ids(n_agencies)
    for agency, kind in faulty.items():
        if agency not in ids:
            raise ConfigError(f"unknown faulty agency {agency!r}")
        check_fault_kind(kind)

    rng = random.Random(seed)
    getrandbits, draw = rng.getrandbits, rng.random
    width = network.delay_max - network.delay_min + 1
    bits = width.bit_length()
    drop_rate = network.drop_rate
    events: list[TranscriptEvent] = []
    log = events.append
    decisions: dict[AgencyId, list[AgencyDecision | None]] = {aid: [] for aid in ids}
    rewards: list[list[AgencyId]] = []
    period = cfg.timeout + network.delay_max + 2

    def log_node_output(now, aid, decision, alerts):
        for alert in alerts:
            log(_event((now, "alert", alert.cycle, aid, None, None, None, alert)))
        if decision is not None:
            log(_event((
                now, "decision", decision.cycle, aid, None, decision.digest, decision, None,
            )))

    for cycle in range(cycles):
        t0 = cycle * period
        t_lo = t0 + network.delay_min
        nodes = {aid: AgencyNode(aid, cfg, cycle) for aid in ids}
        base_digest = state_digest(_cycle_base_state(cycle))
        # digest -> the agencies that sent it, in send order (agency-id order).
        senders_of: dict[str, list[AgencyId]] = {}
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
            own_msg = StateDigest(own_digest, sender)
            if fault != EQUIVOCATING:
                log(_event((t0, "send", cycle, sender, None, own_digest, None, None)))
                senders_of.setdefault(own_digest, []).append(sender)

            # A sender's own digest counts as a receipt at send time.
            deliveries.setdefault(t0, []).append((sender, own_msg))
            for receiver in ids:
                if receiver == sender:
                    continue
                msg = own_msg
                if fault == EQUIVOCATING:
                    digest = _perturbed_digest(cycle, f"{sender}->{receiver}")
                    msg = StateDigest(digest, sender)
                    log(_event((t0, "send", cycle, sender, receiver, digest, None, None)))
                    senders_of.setdefault(digest, []).append(sender)
                r = getrandbits(bits)  # randrange(width), inlined: see above
                while r >= width:
                    r = getrandbits(bits)
                if draw() < drop_rate:
                    continue
                deliveries.setdefault(t_lo + r, []).append((receiver, msg))

        # A node's first delivery starts its clock, so each deadline is
        # filed, by agency id, before the first receipt.
        first: dict[AgencyId, int] = {}
        for now in sorted(deliveries):
            for receiver, _ in deliveries[now]:
                first.setdefault(receiver, now)
        due: dict[int, list[AgencyId]] = {}
        for aid, at in sorted(first.items()):
            due.setdefault(at + cfg.timeout, []).append(aid)
        for now in sorted(deliveries.keys() | due.keys()):
            for receiver, msg in deliveries.get(now, ()):
                log(_event((now, "receive", cycle, msg.sender, receiver, msg.digest, None, None)))
                node = nodes[receiver]
                if node.decision is not None:
                    continue
                decision, alerts = node.receive(msg)
                if decision is not None or alerts:
                    log_node_output(now, receiver, decision, alerts)
            for aid in due.get(now, ()):
                decision, alerts = nodes[aid].time_out()
                if decision is not None:
                    log_node_output(now, aid, decision, alerts)

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
        rewards.append(senders_of.get(accepted_digest, [])[:reward_slots])

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


def _alert_json(alert: Alert, quote) -> str:
    return (f'{{"cycle":{alert.cycle},"kind":{quote(alert.kind)},"note":{quote(alert.note)},'
            f'"senders":[{",".join(map(quote, alert.senders))}]}}')


def _decision_json(decision: AgencyDecision, quote) -> str:
    digest = "null" if decision.digest is None else quote(decision.digest)
    return (f'{{"cycle":{decision.cycle},"digest":{digest},'
            f'"divergent":[{",".join(map(quote, decision.divergent))}],'
            f'"outcome":{quote(decision.outcome.value)}}}')


# Key prefixes for the optional fields; an f-string expression cannot hold
# a backslash or, before Python 3.12, its own quote character.
_ALERT, _DECISION, _DIGEST = '{"alert":', ',"decision":', ',"digest":'
_RECEIVER, _SENDER = ',"receiver":', ',"sender":'


def _line(ev: TranscriptEvent, quote) -> str:
    tick, type_, cycle, sender, receiver, digest, decision, alert = ev
    # Every receipt and every equivocating send has this one shape.
    if (receiver is not None and sender is not None and digest is not None
            and decision is None and alert is None):
        return (f'{{"cycle":{cycle},"digest":{quote(digest)},"receiver":{quote(receiver)},'
                f'"sender":{quote(sender)},"tick":{tick},"type":{quote(type_)}}}\n')
    return (
        f'{"{" if alert is None else _ALERT + _alert_json(alert, quote) + ","}"cycle":{cycle}'
        f'{"" if decision is None else _DECISION + _decision_json(decision, quote)}'
        f'{"" if digest is None else _DIGEST + quote(digest)}'
        f'{"" if receiver is None else _RECEIVER + quote(receiver)}'
        f'{"" if sender is None else _SENDER + quote(sender)}'
        f',"tick":{tick},"type":{quote(type_)}}}\n'
    )


class _QuoteOnce(dict):
    """str -> its ``encode_basestring_ascii`` form, computed on first use."""

    def __missing__(self, text: str) -> str:
        quoted = self[text] = encode_basestring_ascii(text)
        return quoted


_CHUNK_LINES = 4096


def export_transcript(events: list[TranscriptEvent], path: str | Path) -> None:
    """Write each event as the line ``json.dumps(ev.to_json(), sort_keys=True,
    separators=(",", ":")) + "\\n"``, byte for byte, in transcript order.

    Each distinct string is quoted once per call by the encoder's own
    ``encode_basestring_ascii`` and reused from a table dropped when the
    call returns; lines go to the file in chunks of ``_CHUNK_LINES``.
    """
    quote = _QuoteOnce().__getitem__
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(0, len(events), _CHUNK_LINES):
            fh.write("".join([_line(ev, quote) for ev in events[i:i + _CHUNK_LINES]]))
