"""Rating-log parsing and window partitioning.

Two log formats are supported.  CSV rows carry exactly the columns

    rater,ratee,kind,aspect,category,value,weight,event,timestamp

with an empty string for an absent optional field and no header row.
JSONL files carry one object per line with the same nine field names;
optional fields may be null or missing, and a present field must have
its JSON type: a string for the ids, kind and labels, a number for value
and weight, an integer for timestamp.  A missing or empty weight defaults
to 1.0 so unbacked ratings still count with unit weight.
Records are validated on parse and errors carry 1-based line numbers.
"""

from __future__ import annotations

import json
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, RecordError
from .model import Kind, RatingRecord, TimeWindow, csv_rows, decode_input, text_lines


@dataclass(frozen=True)
class Periodic:
    """Consecutive fixed-length windows from the origin, empty ones included."""

    length: int

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ConfigError(f"periodic window length must be positive, got {self.length}")


@dataclass(frozen=True)
class PerBlock:
    """Consecutive chunks of a fixed record count.

    The last chunk may be short, and a chunk grows past ``size`` when the
    records at its boundary share a timestamp: splitting them would produce
    two windows ending at the same instant.  Size 1 is ``tx``, one window
    per distinct timestamp, and ``sys.maxsize`` is ``whole``, one window
    covering every record.
    """

    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ConfigError(f"block size must be positive, got {self.size}")


WindowMode = Periodic | PerBlock


def window_mode_from_spec(spec: str) -> WindowMode:
    """Parse the CLI window syntax: whole | tx | period:<N> | block:<N>."""
    if spec == "whole":
        return PerBlock(sys.maxsize)
    if spec == "tx":
        return PerBlock(1)
    head, sep, arg = spec.partition(":")
    if sep and head in ("period", "block"):
        try:
            n = int(arg)
        except ValueError:
            raise ConfigError(f"window spec {spec!r}: expected an integer after ':'") from None
        return Periodic(n) if head == "period" else PerBlock(n)
    raise ConfigError(
        f"unknown window spec {spec!r}; expected whole, tx, period:<N> or block:<N>"
    )


_KINDS = {kind.value: kind for kind in Kind}
# The log's fields in CSV column order, each with the JSON types it accepts
# besides null; a bool is neither int nor float.
_FIELDS = {
    "rater": (str,), "ratee": (str,), "kind": (str,), "aspect": (str,),
    "category": (str,), "value": (int, float), "weight": (int, float),
    "event": (str,), "timestamp": (int,),
}


def _build_record(line: int, fields: list) -> RatingRecord:
    """Convert one log line's fields, in ``_FIELDS`` order, to a record.

    CSV fields are strings; JSONL fields are the parsed values, None when
    absent.  They come as one list, not as nine arguments, because a
    ``*row`` call costs more per record than unpacking here.
    """
    rater, ratee, kind, aspect, category, value, weight, event, timestamp = fields
    kind_enum = _KINDS.get(str(kind).lower())
    if kind_enum is None:
        raise RecordError(f"unknown rating kind {kind!r}", line)
    try:
        value_f = float(value)
    except (TypeError, ValueError, OverflowError):
        raise RecordError(f"rating value {value!r} is not a number", line) from None
    if weight is None or weight == "":
        weight_f = 1.0
    else:
        try:
            weight_f = float(weight)
        except (TypeError, ValueError, OverflowError):
            raise RecordError(f"rating weight {weight!r} is not a number", line) from None
    try:
        ts = int(timestamp)
    except (TypeError, ValueError):
        raise RecordError(f"timestamp {timestamp!r} is not an integer", line) from None
    try:
        return RatingRecord(
            rater, ratee, kind_enum, value_f, weight_f,
            aspect or None, category or None, event or None, ts,
        )
    except RecordError as exc:
        raise RecordError(str(exc), line) from None


def _parse_csv(text: str) -> list[RatingRecord]:
    records = []
    for line, row in csv_rows(text):
        if len(row) != len(_FIELDS):
            raise RecordError(f"expected {len(_FIELDS)} columns, got {len(row)}", line)
        records.append(_build_record(line, row))
    return records


def _distinct_fields(pairs: list[tuple[str, object]]) -> dict:
    """``json.loads`` hook: an object, unless it names a field twice.

    Without it the last of the repeated values would silently win.
    """
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for name, _ in pairs:
            if name in seen:
                raise RecordError(f"repeated field {name!r}")
            seen.add(name)
    return obj


# One decoder for every line: json.loads with a hook builds a new one per call.
_decode_json = json.JSONDecoder(object_pairs_hook=_distinct_fields).decode


def _parse_jsonl(text: str) -> list[RatingRecord]:
    records = []
    # The "\n" is cut before json.loads, which would call it a control
    # character in an open string.
    for line_num, line in enumerate(text_lines(text), start=1):
        raw = line.removesuffix("\n")
        if not raw.strip():
            continue
        try:
            obj = _decode_json(raw)
        except json.JSONDecodeError as exc:
            raise RecordError(f"invalid JSON: {exc.msg}", line_num) from None
        except RecordError as exc:
            raise RecordError(str(exc), line_num) from None
        except RecursionError:
            raise RecordError("invalid JSON: nested too deeply", line_num) from None
        except ValueError:  # past the interpreter's int-string digit limit
            raise RecordError("invalid JSON: an integer has too many digits", line_num) from None
        if not isinstance(obj, dict):
            raise RecordError("expected a JSON object", line_num)
        unknown = obj.keys() - _FIELDS.keys()
        if unknown:
            raise RecordError(f"unknown fields {sorted(unknown)}", line_num)
        for name, value in obj.items():
            if value is not None and type(value) not in _FIELDS[name]:
                raise RecordError(f"field {name!r} has the wrong type: {value!r}", line_num)
        for required in ("rater", "ratee", "kind", "value", "timestamp"):
            if obj.get(required) is None:
                raise RecordError(f"missing required field {required!r}", line_num)
        records.append(_build_record(line_num, list(map(obj.get, _FIELDS))))
    return records


def parse_log(text: str, fmt: str = "csv") -> list[RatingRecord]:
    """Parse a rating log's text."""
    if fmt == "csv":
        return _parse_csv(text)
    if fmt == "jsonl":
        return _parse_jsonl(text)
    raise ConfigError(f"unknown log format {fmt!r}; expected 'csv' or 'jsonl'")


def load_log(path: str | Path) -> list[RatingRecord]:
    """Read a log file, picking the format from the file suffix."""
    path = Path(path)
    fmt = "jsonl" if path.suffix.lower() in (".jsonl", ".ndjson", ".json") else "csv"
    return parse_log(decode_input(path.read_bytes()), fmt)


def partition(
    records: list[RatingRecord],
    mode: WindowMode,
    t_origin: int,
) -> list[tuple[TimeWindow, list[RatingRecord]]]:
    """Split a log into consecutive windows according to ``mode``.

    One loop cuts both modes.  ``PerBlock(N)`` is a count cut of N
    records, grown over the ties at its last timestamp, where it ends.
    ``Periodic(N)`` is a time cut of N ticks, empty windows included; a
    span from the origin to the last record that does not fit in a float
    is a record error.

    Every record lands in exactly one window and windows chain: each
    window's t_prev is the previous window's t_now, starting at
    ``t_origin``.  Records before ``t_origin`` are rejected.  An empty log
    yields no windows.
    """
    ordered = sorted(records, key=lambda rec: rec.timestamp)
    if not ordered:
        return []
    stamps = [rec.timestamp for rec in ordered]
    if stamps[0] < t_origin:
        raise RecordError(f"record at t={stamps[0]} predates the origin t={t_origin}")
    length = count = 0
    if isinstance(mode, Periodic):
        length = mode.length
        try:
            float(stamps[-1] - t_origin)
        except OverflowError:
            raise RecordError(
                f"window from t={t_origin} to t={stamps[-1]}: its span does not fit in a float"
            ) from None
    elif isinstance(mode, PerBlock):
        count = mode.size
    else:
        raise ConfigError(f"unknown window mode {mode!r}")

    out = []
    t_prev, start = t_origin, 0
    while start < len(ordered):
        if length:
            t_now = t_prev + length
            end = bisect_left(stamps, t_now, start)
        else:
            t_now = stamps[min(start + count, len(ordered)) - 1]
            end = bisect_right(stamps, t_now, start)
        out.append((TimeWindow(t_origin, t_prev, t_now), ordered[start:end]))
        t_prev, start = t_now, end
    return out
