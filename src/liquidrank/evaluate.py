"""Evaluation of computed reputations against ground truth.

The reference-list methodology labels known-good participants 1.0 and
known-bad ones 0.0, then scores a computed state by the Pearson
correlation between labels and reputations.  A reference list is a
``participant,label`` CSV; its ids obey the same rule as every other id
(``model.check_participant_id``).  Distribution statistics
(Gini coefficient, top-1% share, nonzero fraction) quantify how
concentrated the computed reputations are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import CorrelationUndefinedError, RecordError
from .model import ParticipantId, ReputationState, check_participant_id, csv_rows, decode_input


def pearson(
    reference: dict[ParticipantId, float],
    computed: ReputationState,
    *,
    default_reputation: float = 0.5,
    include_missing: bool = True,
) -> float:
    """Pearson correlation between reference labels and computed values.

    With ``include_missing`` (the default) every reference participant
    counts: those absent from the computed state are scored at
    ``default_reputation``, so bad actors that never earned a reputation
    still weigh against the reference.  With ``include_missing=False``
    only participants present in both maps are compared.  A constant
    series on either side leaves the correlation undefined.
    """
    pairs = []
    for pid in reference:
        if pid in computed.values:
            pairs.append((reference[pid], computed.values[pid]))
        elif include_missing:
            pairs.append((reference[pid], default_reputation))
    if len(pairs) < 2:
        raise CorrelationUndefinedError(
            f"undefined correlation: need at least 2 comparable participants, got {len(pairs)}"
        )
    n = len(pairs)
    # math.fsum is correctly rounded, so r does not depend on the order of
    # ``reference`` or of the computed map.
    mean_x = math.fsum(x for x, _ in pairs) / n
    mean_y = math.fsum(y for _, y in pairs) / n
    dx = [x - mean_x for x, _ in pairs]
    dy = [y - mean_y for _, y in pairs]
    sx = math.fsum(d * d for d in dx)
    sy = math.fsum(d * d for d in dy)
    if sx == 0.0 or sy == 0.0:
        raise CorrelationUndefinedError("undefined correlation: constant series")
    return math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(sx * sy)


@dataclass(frozen=True)
class DistributionStats:
    gini: float
    top_share: float
    nonzero_fraction: float


def distribution_stats(state: ReputationState) -> DistributionStats:
    """Concentration statistics of a reputation state.

    ``top_share`` is the share of total reputation held by the top 1% of
    participants, with the count rounded up so it is never empty.  An
    all-zero state counts as perfectly equal.
    """
    if not state.values:
        raise ValueError("distribution_stats needs a non-empty state")
    values = sorted(state.values.values())
    n = len(values)
    total = math.fsum(values)
    nonzero_fraction = sum(1 for v in values if v != 0.0) / n
    if total == 0.0:
        return DistributionStats(gini=0.0, top_share=0.0, nonzero_fraction=0.0)
    ranked_sum = math.fsum(rank * v for rank, v in enumerate(values, start=1))
    gini = 2.0 * ranked_sum / (n * total) - (n + 1) / n
    top_n = math.ceil(n * 0.01)
    top_share = math.fsum(values[n - top_n:]) / total
    return DistributionStats(gini=gini, top_share=top_share, nonzero_fraction=nonzero_fraction)


def load_reference_list(path: str | Path) -> dict[ParticipantId, float]:
    """Read a ``participant,label`` CSV where labels are exactly 0 or 1."""
    return parse_reference_list(decode_input(Path(path).read_bytes()))


def parse_reference_list(text: str) -> dict[ParticipantId, float]:
    """Labels by participant; a bad row is a record error naming its line."""
    labels: dict[ParticipantId, float] = {}
    for line, row in csv_rows(text):
        if len(row) != 2:
            raise RecordError(f"expected 'participant,label', got {row!r}", line)
        pid, raw = row
        check_participant_id(pid, "participant", line)
        if pid in labels:
            raise RecordError(f"duplicate participant {pid!r}", line)
        try:
            label = float(raw)
        except ValueError:
            raise RecordError(f"label {raw!r} is not a number", line) from None
        if label not in (0.0, 1.0):
            raise RecordError(f"label must be 0 or 1, got {raw!r}", line)
        labels[pid] = label
    return labels
