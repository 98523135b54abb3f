"""Golden digests of ``simulate`` outputs, and the transcript line contract.

Each scenario's ``transcript.jsonl``, ``summary.json`` and stdout are
pinned by SHA-256.  The digests were recorded before the transcript
encoder and the tick loop were rewritten, so they hold the simulator to
the bytes it wrote then; a change that means to alter them re-records
``GOLDEN`` from ``run_scenario``.  Each exported file is also checked
against the ``json.dumps`` form the transcript contract is written in.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

import pytest

from liquidrank import consensus
from liquidrank.cli import main

# (extra argv, optional consensus config text) per scenario.
SCENARIOS = {
    "all-faults": ([
        "--agencies", "7", "--cycles", "6", "--seed", "3",
        "--faulty", "divergent:1,equivocating:1,silent:1",
        "--delay-min", "1", "--delay-max", "3", "--drop-rate", "0.05",
    ], None),
    "por": ([
        "--agencies", "6", "--cycles", "5", "--seed", "5", "--por",
        "--min-identical", "1.5", "--max-nonidentical", "3",
        "--faulty", "divergent:1", "--delay-max", "2", "--drop-rate", "0.1",
    ], "agency_reputation.a00 = 0.25\nagency_reputation.a01 = 0.5\n"),
    "delay-min-0": ([
        "--agencies", "5", "--cycles", "5", "--seed", "7",
        "--faulty", "equivocating:2", "--delay-min", "0", "--delay-max", "2",
    ], None),
    "drops-0.4": ([
        "--agencies", "6", "--cycles", "6", "--seed", "9",
        "--faulty", "silent:1", "--delay-max", "3", "--drop-rate", "0.4",
    ], None),
    "timeout-2": ([
        "--agencies", "5", "--cycles", "6", "--seed", "13", "--timeout", "2",
        "--faulty", "divergent:1", "--delay-max", "4", "--drop-rate", "0.2",
    ], None),
    "reward-slots-3": ([
        "--agencies", "8", "--cycles", "5", "--seed", "17", "--reward-slots", "3",
        "--faulty", "divergent:1,silent:1", "--delay-max", "3",
    ], None),
    "delay-max-60": ([
        "--agencies", "6", "--cycles", "4", "--seed", "23", "--timeout", "30",
        "--faulty", "divergent:1,silent:1", "--delay-min", "5", "--delay-max", "60",
        "--drop-rate", "0.1",
    ], None),
}

# scenario -> (transcript.jsonl, summary.json, stdout) SHA-256.
GOLDEN = {
    "all-faults": (
        "9f6a8e3ef92e7484531978fe90c4e65465139a697da76909af8b39f23fb7f799",
        "9cb0fe95b0101f177da279cc522462e32fac1ede79596de9332d41a6a1291262",
        "5d3f41c2c698ea30500a93b8fb5e3834830a339e78455362d4a97190a81f8fc1",
    ),
    "por": (
        "83debcc0fdc25b15dd53f83f3176259a2077d34b1617a3eba3db34de178933d2",
        "8c49e8e28cfa344034644199f73e7df3f867082945904606cf75ee49ffbb340f",
        "f9738677bda987ba046908806515e644adefda7f1229c90f63a7689ea096dc9e",
    ),
    "delay-min-0": (
        "1ae1a75c9d8ba67ef0bc92fed7087af796e978a3ec7f0e467d57fe32311a4c50",
        "ef8a7d3ef95bd245c81957c41cb861168fdd99fd068c59997b8b479454d63931",
        "061748e59cfb85d40bbc57311b4151fb7b28b38b10497fd4c384404993b88afd",
    ),
    "drops-0.4": (
        "f42c5f1924d258b6635889f9f23eb75acf93c230e84e3193998b95e93ec92404",
        "82dc4cfa29754a58c63ebdbd6393332b205a7e049ede6738b1e1a98182dc5bd6",
        "6b4ab15007f20fe1e3929f4183e0f0ea04cc649d7b6a54ec98bdafd334ea294c",
    ),
    "timeout-2": (
        "b0a8257f26efd4bdb9e2ee87e866dd8d563ba7a96fa296702dff76ac7883b416",
        "e0f38f0794ae76db4d787f9cfbaeed8373f9743ef8ff1d8b5b070a19b2300d6e",
        "887d783e3e9c8617b950ebde9ae8e9c2cafd23bf1afd8eb50c9e27d769792a79",
    ),
    "reward-slots-3": (
        "b50403137d9f1a3646baafdb01c7859698d012dd66919c901184dfba180881c3",
        "04d0843331564132c7b81490f4b344456758735510e1bd901661b69cc5cb2172",
        "fafcbd1281d008095de192a1e8048004979ba68cba847a13cda5f11b60711519",
    ),
    "delay-max-60": (
        "916a7a6c5d7d501369e589e911395b082f9cc5434442975a148d3cb851fd7eb7",
        "cc55da6575488f8b98f5ff33b64fc030f3dfbd6fc91049494b9dbf21650c4c46",
        "d1282ab9257b7ab0f224f4bcac9d695aade96376c9d96d4fc9090f802b43c180",
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_scenario(name, tmp_path):
    """Run one scenario through ``main``; return its three output digests."""
    argv, cfg_text = SCENARIOS[name]
    out = tmp_path / name
    argv = ["simulate", *argv, "--out", str(out)]
    if cfg_text is not None:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(cfg_text, encoding="utf-8")
        argv += ["--config", str(cfg)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    assert code == 0
    return (
        _sha((out / "transcript.jsonl").read_bytes()),
        _sha((out / "summary.json").read_bytes()),
        _sha(stdout.getvalue().encode("utf-8")),
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_simulate_outputs_match_golden_digests(name, tmp_path):
    assert run_scenario(name, tmp_path) == GOLDEN[name]


def _reference_line(ev) -> str:
    return json.dumps(ev.to_json(), sort_keys=True, separators=(",", ":")) + "\n"


def _assert_encoded(events, path):
    reference = "".join(map(_reference_line, events))
    assert path.read_bytes() == reference.encode("ascii")


def test_line_encoder_matches_json_dumps_on_a_seeded_run(tmp_path, monkeypatch):
    result = consensus.run_simulation(
        7, faulty={"a00": consensus.DIVERGENT, "a01": consensus.EQUIVOCATING,
                   "a02": consensus.SILENT},
        cycles=80, network=consensus.NetworkModel(0, 3, 0.2), seed=21,
    )
    kinds = {ev.type for ev in result.events}
    assert kinds == {"send", "receive", "decision", "alert"}
    # The export writes in chunks; this run spans more than one.
    assert len(result.events) > consensus._CHUNK_LINES
    path = tmp_path / "seeded.jsonl"
    consensus.export_transcript(result.events, path)
    _assert_encoded(result.events, path)

    # Each golden scenario, through the CLI: its events and the file it wrote.
    runs = []
    real_run = consensus.run_simulation
    monkeypatch.setattr(consensus, "run_simulation",
                        lambda *a, **kw: runs.append(real_run(*a, **kw)) or runs[-1])
    for name in sorted(SCENARIOS):
        run_scenario(name, tmp_path)
        _assert_encoded(runs[-1].events, tmp_path / name / "transcript.jsonl")
    assert len(runs) == len(SCENARIOS)


def test_line_encoder_matches_json_dumps_on_odd_strings(tmp_path):
    odd = 'é"\\ \x00\U0001f600/\t'
    alert = consensus.Alert(consensus.SYSTEM_CHECK, 2, (odd, "b"), note=odd)
    broken = consensus.AgencyDecision(consensus.Outcome.BROKEN, 2, alerts=(alert,))
    disputed = consensus.AgencyDecision(
        consensus.Outcome.ACCEPTED_WITH_DISPUTE, 2, odd, divergent=(odd,),
    )
    events = [
        consensus.TranscriptEvent(0, "send", 0, sender=odd, digest=odd),
        consensus.TranscriptEvent(1, "receive", 0, sender="a", receiver=odd, digest="d"),
        consensus.TranscriptEvent(5, "decision", 2, sender=odd, digest=None, decision=broken),
        consensus.TranscriptEvent(5, "decision", 2, sender="a", digest=odd, decision=disputed),
        consensus.TranscriptEvent(5, "alert", 2, sender=odd, alert=alert),
        consensus.TranscriptEvent(-3, "tick", -1),
    ]
    # The odd string repeats, so later lines take its quoted form from the table.
    path = tmp_path / "odd.jsonl"
    consensus.export_transcript(events, path)
    _assert_encoded(events, path)


def _random_run(rng):
    """One seeded ``run_simulation`` over a random network, fault mix and config."""
    n = rng.randint(1, 9)
    ids = consensus.agency_ids(n)
    kinds = (None, *consensus.FAULT_KINDS)
    faulty = {aid: kind for aid in ids if (kind := rng.choice(kinds)) is not None}
    delay_min = rng.randint(0, 7)
    network = consensus.NetworkModel(
        delay_min, rng.randint(delay_min, 7), rng.choice([0.0, rng.uniform(0.0, 0.4)]),
    )
    if rng.random() < 0.5:
        reputations = {
            aid: rng.choice([0.0, 0.25, 0.5, 1.0, rng.random()])
            for aid in ids if rng.random() < 0.8
        }
        cfg = consensus.ConsensusConfig(
            min_identical=rng.uniform(0.1, 3.5), max_nonidentical=rng.uniform(0.1, 5.0),
            timeout=rng.randint(1, 12), por_weighted=True, agency_reputations=reputations,
        )
    else:
        cfg = consensus.ConsensusConfig(
            min_identical=rng.randint(2, 5), max_nonidentical=rng.randint(1, 7),
            timeout=rng.randint(1, 12),
        )
    return consensus.run_simulation(
        n, faulty, rng.randint(1, 3), cfg, network,
        seed=rng.randrange(10**6), reward_slots=rng.randint(0, 3),
    )


# SHA-256 over the transcript file and summary of every ``_random_run`` of
# ``random.Random(2017)``, recorded before the tick loop skipped no-op node
# calls and the export quoted each token once.
RANDOM_RUNS_DIGEST = "e9f91830458d8368c06bad7081d119f8d3e70b6ce2bc5c7084d337b985190077"


def test_random_runs_keep_their_recorded_bytes(tmp_path):
    rng = random.Random(2017)
    path = tmp_path / "transcript.jsonl"
    h = hashlib.sha256()
    for _ in range(200):
        result = _random_run(rng)
        consensus.export_transcript(result.events, path)
        h.update(path.read_bytes())
        h.update(json.dumps(consensus.summarize(result), sort_keys=True).encode())
    assert h.hexdigest() == RANDOM_RUNS_DIGEST
