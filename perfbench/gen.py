"""Seeded input generator for the benchmark workloads.

Stands alone: it imports nothing from ``liquidrank``, so the inputs do not
change when the program under test does.  The two generators replay the
random draws of ``liquidrank.synth`` call for call (same seed, same
parameters, same records), and the files use the documented formats: rating
logs as headerless nine-column CSV, snapshots in the canonical encoding
(timestamp line, then ``participant,value`` rows sorted by UTF-8 bytes with
shortest-roundtrip floats), reference lists as ``participant,label`` CSV.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Rating:
    rater: str
    ratee: str
    value: float
    weight: float
    timestamp: int

    def csv_row(self) -> str:
        return (
            f"{self.rater},{self.ratee},transaction,,,"
            f"{self.value!r},{self.weight!r},,{self.timestamp}\n"
        )


def lognormal_transactions(
    n_participants: int,
    n_ratings: int,
    n_windows: int,
    window_length: int,
    seed: int,
    sigma: float = 2.0,
    value_scale: float = 100.0,
) -> list[Rating]:
    """Same draws as ``synth.lognormal_transaction_community``."""
    rng = random.Random(seed)
    participants = [f"p{i:03d}" for i in range(n_participants)]
    span = n_windows * window_length
    out = []
    for _ in range(n_ratings):
        rater = participants[rng.randrange(n_participants)]
        ratee = participants[int(rng.random() ** 2 * n_participants)]
        while ratee == rater:
            ratee = participants[int(rng.random() ** 2 * n_participants)]
        weight = rng.lognormvariate(0.0, sigma)
        value = min(1.0, weight / value_scale)
        out.append(Rating(rater, ratee, value, weight, rng.randrange(span)))
    return out


def planted_truth(
    n_participants: int,
    ratings_per_member: int,
    n_windows: int,
    window_length: int,
    seed: int,
    reputable_fraction: float = 0.6,
) -> tuple[list[Rating], dict[str, float]]:
    """Same draws as ``synth.planted_truth_community``: log and 0/1 labels."""
    rng = random.Random(seed)
    n_reputable = int(n_participants * reputable_fraction)
    reputable = [f"g{i:03d}" for i in range(n_reputable)]
    scam = [f"s{i:03d}" for i in range(n_participants - n_reputable)]
    labels = {pid: 1.0 for pid in reputable}
    labels.update({pid: 0.0 for pid in scam})

    def pick_other(pool: list[str], not_this: str) -> str:
        choice = pool[rng.randrange(len(pool))]
        while choice == not_this:
            choice = pool[rng.randrange(len(pool))]
        return choice

    span = n_windows * window_length
    out = []
    for rater in reputable:
        for _ in range(ratings_per_member):
            if scam and rng.random() < 0.4:
                ratee = scam[rng.randrange(len(scam))]
                value = -rng.uniform(0.6, 1.0)
            else:
                ratee = pick_other(reputable, rater)
                value = rng.uniform(0.6, 1.0)
            out.append(Rating(rater, ratee, value, rng.uniform(1.0, 5.0), rng.randrange(span)))
    for rater in scam:
        for _ in range(ratings_per_member):
            ratee = pick_other(scam, rater)
            out.append(Rating(
                rater, ratee, rng.uniform(0.6, 1.0), rng.uniform(1.0, 5.0), rng.randrange(span),
            ))
    return out, labels


def planted_snapshot(labels: dict[str, float], at: int, seed: int) -> dict[str, float]:
    """A reputation map that tracks the labels with noise.

    Reputable members draw from [0.3, 1], scam members from [0, 0.5], and
    one in ten of either is exactly 0, so Pearson is clearly positive and
    the nonzero fraction is below 1.
    """
    rng = random.Random(f"snapshot-{seed}-{at}")
    values = {}
    for pid in sorted(labels):
        if rng.random() < 0.1:
            values[pid] = 0.0
        elif labels[pid] == 1.0:
            values[pid] = rng.uniform(0.3, 1.0)
        else:
            values[pid] = rng.uniform(0.0, 0.5)
    return values


def log_bytes(ratings: list[Rating]) -> bytes:
    return "".join(r.csv_row() for r in ratings).encode("utf-8")


def snapshot_bytes(at: int, values: dict[str, float]) -> bytes:
    rows = [str(at)]
    for pid in sorted(values, key=lambda p: p.encode("utf-8")):
        rows.append(f"{pid},{values[pid]!r}")
    return ("\n".join(rows) + "\n").encode("utf-8")


def labels_bytes(labels: dict[str, float]) -> bytes:
    return "".join(f"{pid},{int(label)}\n" for pid, label in sorted(labels.items())).encode("utf-8")
