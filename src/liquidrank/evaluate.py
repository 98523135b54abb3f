"""Evaluation of computed reputations against ground truth.

The reference-list methodology labels known-good participants 1.0 and
known-bad ones 0.0, then scores a computed state by the Pearson
correlation between labels and reputations.  A reference list is a
``participant,label`` CSV; its ids obey the same rule as every other id
(``model.check_participant_id``).  Distribution statistics
(Gini coefficient, top-1% share, nonzero fraction) quantify how
concentrated the computed reputations are.

A reference list is read like a CSV log (see ``liquidrank.ingest``): whole
slices through ``model.plain_csv_columns`` when they are plain, and
otherwise the per-row loop, the only code that raises, from line 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import mul, sub
from pathlib import Path

from .errors import CorrelationUndefinedError, RecordError
from .model import (
    ParticipantId,
    ReputationState,
    check_participant_id,
    csv_rows,
    decode_input,
    plain_csv_columns,
)


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
    values = computed.values
    if include_missing:
        xs = list(reference.values())
        ys = list(map(values.get, reference, repeat(default_reputation)))
    else:
        common = [pid for pid in reference if pid in values]
        xs = list(map(reference.__getitem__, common))
        ys = list(map(values.__getitem__, common))
    n = len(xs)
    if n < 2:
        raise CorrelationUndefinedError(
            f"undefined correlation: need at least 2 comparable participants, got {n}"
        )
    # math.fsum is correctly rounded, so r does not depend on the order of
    # ``reference`` or of the computed map.
    dx = list(map(sub, xs, repeat(math.fsum(xs) / n)))
    dy = list(map(sub, ys, repeat(math.fsum(ys) / n)))
    sx = math.fsum(map(mul, dx, dx))
    sy = math.fsum(map(mul, dy, dy))
    if sx == 0.0 or sy == 0.0:
        raise CorrelationUndefinedError("undefined correlation: constant series")
    return math.fsum(map(mul, dx, dy)) / math.sqrt(sx * sy)


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
    nonzero_fraction = (n - values.count(0.0)) / n
    if total == 0.0:
        return DistributionStats(gini=0.0, top_share=0.0, nonzero_fraction=0.0)
    ranked_sum = math.fsum(map(mul, range(1, n + 1), values))
    gini = 2.0 * ranked_sum / (n * total) - (n + 1) / n
    top_n = math.ceil(n * 0.01)
    top_share = math.fsum(values[n - top_n:]) / total
    return DistributionStats(gini=gini, top_share=top_share, nonzero_fraction=nonzero_fraction)


def load_reference_list(path: str | Path) -> dict[ParticipantId, float]:
    """Read a ``participant,label`` CSV where labels are exactly 0 or 1."""
    return parse_reference_list(decode_input(Path(path).read_bytes()))


# The labels a plain slice may hold, as float() reads them.
_PLAIN_LABELS = {"0": 0.0, "1": 1.0, "0.0": 0.0, "1.0": 1.0}


def parse_reference_list(text: str) -> dict[ParticipantId, float]:
    """Labels by participant; a bad row is a record error naming its line."""
    labels: dict[ParticipantId, float] = {}
    for columns in plain_csv_columns(text, 2):
        if columns is None or not _add_plain_labels(labels, *columns):
            return _reference_rows(text)
    return labels


def _add_plain_labels(labels: dict[ParticipantId, float], ids, raws) -> bool:
    """Add one slice's labels; False where a row might fail.

    ``model.plain_csv_columns`` has ruled out a comma, line break or lone
    surrogate in an id.
    """
    if not all(ids) or not _PLAIN_LABELS.keys() >= set(raws):
        return False
    size = len(labels)
    labels.update(zip(ids, map(_PLAIN_LABELS.__getitem__, raws)))
    return len(labels) == size + len(ids)  # no id repeated


def _reference_rows(text: str) -> dict[ParticipantId, float]:
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
            label = None
        if label is not None and label not in (0.0, 1.0):
            raise RecordError(f"label must be 0 or 1, got {raw!r}", line)
        # float() also takes "+", "_", other scripts' digits and surrounding
        # space: a label is read only as written, as a snapshot value is.
        if (label is None or not raw.isascii() or "+" in raw or "_" in raw
                or raw != raw.strip()):
            raise RecordError(f"label {raw!r} is not a number", line)
        labels[pid] = label
    return labels
