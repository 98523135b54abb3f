"""Core domain types: rating records, time windows, reputation states.

Participants are identified by opaque non-empty string tokens.  Identifiers
may not contain a comma, line feed or carriage return because they are
embedded verbatim in the canonical snapshot serialization, whose rows end
at a line feed (see ``liquidrank.store``).  They must also encode as UTF-8,
so a lone surrogate is rejected: snapshots are UTF-8 text, and their row
order relies on code-point order matching UTF-8 byte order.
:func:`check_participant_id` is that rule; rating records, snapshot rows
and reference lists all go through it.  :func:`decode_input` decodes every
input file, data and config alike, and translates no line ending;
:func:`text_lines` splits each log, snapshot, reference list and config
into lines and :func:`csv_rows` splits the CSV ones into rows.
:func:`plain_csv_columns` is the bulk form of ``csv_rows`` for logs and
reference lists that need no quoting rules; see its docstring for when it
applies.
"""

from __future__ import annotations

import codecs
import csv
import enum
import math
import re
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple

from .errors import LiquidRankError, RecordError

ParticipantId = str


def decode_input(data: bytes, error: type[LiquidRankError] = RecordError) -> str:
    """Strict UTF-8 text of input bytes, less one leading byte-order mark.

    A bad byte is ``error`` naming its line.  The mark is cut from the bytes
    rather than decoded as "utf-8-sig", whose error offsets skip it.
    """
    start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:
        return data[start:].decode("utf-8")
    except UnicodeDecodeError as exc:
        at = start + exc.start
        line = data.count(b"\n", 0, at) + 1
        raise error(f"byte {data[at]:#04x} is not valid UTF-8", line) from None


_LINE = re.compile(r"[^\n]*\n|[^\n]+")
_SLICE = 1 << 16  # characters per findall call, rounded up to a line end


def text_slices(text: str, start: int = 0) -> Iterator[tuple[int, int]]:
    """Bounds of the slices of ``text`` from ``start``, each ending at a line end.

    A slice holds ``_SLICE`` characters, rounded up to the next "\\n" or
    to the end of ``text``, so every line lies in exactly one slice.
    """
    size = len(text)
    while start < size:
        end = text.find("\n", start + _SLICE - 1) + 1 or size
        yield start, end
        start = end


def text_lines(text: str) -> Iterator[str]:
    """The lines of ``text`` one at a time, each with its "\\n" if it has one.

    Lines end at "\\n" only, as in ``io.StringIO(text).readlines()``, but
    with no 4-byte-a-character copy of ``text``: one slice of lines at a time.
    """
    for start, end in text_slices(text):
        yield from _LINE.findall(text, start, end)


def csv_rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """Each non-empty CSV row of ``text`` with its line; rows end at "\\n" only."""
    reader = csv.reader(text_lines(text))
    try:
        yield from ((reader.line_num, row) for row in reader if row)
    except csv.Error as exc:  # its advice after " - " is about opening files
        reason = str(exc).partition(" - ")[0]
        raise RecordError(f"malformed CSV row: {reason}", reader.line_num) from None


_SURROGATE = re.compile(r"[\ud800-\udfff]")


def plain_csv_columns(text: str, width: int) -> Iterator[list[tuple[str, ...]] | None]:
    """The columns of each slice of ``text``, while it reads as plain CSV.

    Plain CSV holds no '"', CR, NUL or lone surrogate, no slice of it is
    longer than ``csv.field_size_limit()``, and each of its non-blank lines
    has ``width`` fields.  On such text :func:`csv_rows` gives exactly the
    non-blank lines split at every ",", so that is what this yields: one
    list of ``width`` columns per slice, each column a tuple of fields in
    line order.  A slice that is not plain yields ``None`` and ends the
    iteration; the caller then reads the whole text through ``csv_rows``.
    """
    limit = csv.field_size_limit()
    for start, end in text_slices(text):
        chunk = text[start:end]
        if (end - start > limit or '"' in chunk or "\r" in chunk or "\0" in chunk
                or not chunk.isascii() and _SURROGATE.search(chunk)):
            break
        rows = list(map(str.split, filter(None, chunk.split("\n")), repeat(",")))
        if not rows:  # blank lines only
            continue
        if set(map(len, rows)) != {width}:
            break
        yield list(zip(*rows))
    else:
        return
    yield None  # after a break: this slice is not plain


def check_participant_id(token: str, role: str, line: int | None = None) -> None:
    """Reject an id that breaks the rule above; ``line`` is its input line."""
    if not token:
        raise RecordError(f"{role} id must be a non-empty token", line)
    if "," in token or "\n" in token or "\r" in token:
        raise RecordError(f"{role} id {token!r} contains a comma or line break", line)
    if not token.isascii():
        try:
            token.encode("utf-8")
        except UnicodeEncodeError:
            raise RecordError(f"{role} id {token!r} is not valid UTF-8 text", line) from None


class Kind(str, enum.Enum):
    """How a rating was expressed."""

    STAKE = "stake"
    TRANSACTION = "transaction"


# A NamedTuple class may not define its own __new__, so RatingRecord adds
# the checks in a subclass of this one.
class _RatingFields(NamedTuple):
    rater: ParticipantId
    ratee: ParticipantId
    kind: Kind
    value: float
    weight: float
    aspect: str | None
    category: str | None
    event: str | None
    timestamp: int


class RatingRecord(_RatingFields):
    """One rating event from the input log.

    ``value`` is the rating itself, in [-1, 1].  ``weight`` is the financial
    backing: staked amount for :data:`Kind.STAKE`, transaction value for
    :data:`Kind.TRANSACTION`.  A stake counts only in its own window; one with
    value 0 contributes nothing and revokes no earlier stake (ROADMAP item 10).

    A record is a named tuple, because a log holds one per line: the CSV
    reader checks whole columns and then builds records in C with
    ``tuple.__new__``.  Every other way in checks its fields in ``__new__``;
    ``_make``, and so ``_replace``, go through it too.
    """

    __slots__ = ()

    def __new__(
        cls,
        rater: ParticipantId,
        ratee: ParticipantId,
        kind: Kind,
        value: float,
        weight: float = 1.0,
        aspect: str | None = None,
        category: str | None = None,
        event: str | None = None,
        timestamp: int = 0,
    ) -> RatingRecord:
        check_participant_id(rater, "rater")
        check_participant_id(ratee, "ratee")
        if rater == ratee:
            raise RecordError(f"self-rating by {rater!r} is not allowed")
        if not isinstance(kind, Kind):
            raise RecordError(f"unknown rating kind {kind!r}")
        if not -1.0 <= value <= 1.0:
            raise RecordError(f"rating value {value!r} outside [-1, 1]")
        if not (math.isfinite(weight) and weight >= 0.0):
            raise RecordError(f"rating weight {weight!r} must be finite and non-negative")
        return tuple.__new__(
            cls, (rater, ratee, kind, value, weight, aspect, category, event, timestamp),
        )

    @classmethod
    def _make(cls, iterable: Iterable) -> RatingRecord:
        return cls(*iterable)


@dataclass(frozen=True)
class TimeWindow:
    """Half-open slice of the rating history used for one update step.

    ``t_origin`` is the epoch the whole history starts at, ``t_prev`` the end
    of the previous window and ``t_now`` the end of this one.  Zero-length
    windows (``t_prev == t_now``) are legal; they carry no time weight in the
    state update.
    """

    t_origin: int
    t_prev: int
    t_now: int

    def __post_init__(self) -> None:
        if not self.t_origin <= self.t_prev <= self.t_now:
            raise ValueError(
                f"window bounds must satisfy t_origin <= t_prev <= t_now, "
                f"got ({self.t_origin}, {self.t_prev}, {self.t_now})"
            )


@dataclass
class ReputationState:
    """Reputation values of all known participants as of time ``at``."""

    at: int
    values: dict[ParticipantId, float] = field(default_factory=dict)


@dataclass
class DifferentialReputation:
    """Per-window intermediate results, kept for audit.

    ``staked`` and ``transactional`` are the raw weighted-mean differentials
    per ratee, ``blended`` their combination, ``log_blended`` the optional
    log-compressed blend (``None`` when log compression is disabled) and
    ``normalized`` the final unit-max map fed into the state update.

    The fields are the keys of a ``differentials.jsonl`` audit line, which
    ``compute`` writes from this record with ``window`` as an object of the
    window's three bounds.
    """

    window: TimeWindow
    staked: dict[ParticipantId, float]
    transactional: dict[ParticipantId, float]
    blended: dict[ParticipantId, float]
    normalized: dict[ParticipantId, float]
    log_blended: dict[ParticipantId, float] | None = None


@dataclass
class FacetedDifferential:
    """Differentials broken down by category, aspect, and both.

    Keys use ``None`` for records that carry no aspect or category label.
    """

    window: TimeWindow
    by_category: dict[tuple[ParticipantId, str | None], float]
    by_aspect: dict[tuple[ParticipantId, str | None], float]
    by_aspect_category: dict[tuple[ParticipantId, str | None, str | None], float]
