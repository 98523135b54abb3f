"""
Agency consensus under four fault models
========================================

Five reputation agencies exchange state digests each cycle.  We run the
same network with no faults, one agency publishing a forked state, one
agency telling every peer a different story, and three agencies gone
silent, and print what the survivors decide.
"""

from liquidrank import consensus

SCENARIOS = [
    ("all honest", {}),
    ("one divergent", {"a00": consensus.DIVERGENT}),
    ("one equivocating", {"a00": consensus.EQUIVOCATING}),
    ("three silent", {"a00": consensus.SILENT,
                      "a01": consensus.SILENT,
                      "a02": consensus.SILENT}),
]

cfg = consensus.ConsensusConfig(min_identical=3, max_nonidentical=5, timeout=10)

for title, faulty in SCENARIOS:
    result = consensus.run_simulation(
        n_agencies=5, faulty=faulty, cycles=4, cfg=cfg, seed=42,
    )
    summary = consensus.summarize(result)
    print(title)
    print("  cycle  accepted  disputed  broken  alerts  divergent       reward")
    for row in summary["per_cycle"]:
        o = row["outcomes"]
        alerts = sum(row["alerts"].values())
        divergent = ",".join(row["divergent"]) or "-"
        reward = ",".join(row["rewards"]) or "-"
        print(f"  {row['cycle']:5d}  {o['accepted']:8d}  "
              f"{o['accepted_with_dispute']:8d}  {o['broken']:6d}  "
              f"{alerts:6d}  {divergent:14s}  {reward}")
    print()

# the reward goes to the first senders, in agency-id order, of the digest
# that won, so a forked agency never mines even when the round still settles
