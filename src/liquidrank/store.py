"""Reputation state persistence with a canonical snapshot encoding.

A snapshot is encoded as a UTF-8 text block: the first line is the state
timestamp, each following line is ``participant,value`` with participants
sorted by their UTF-8 bytes and values printed as the shortest decimal
that round-trips the double.  Participant ids are valid Unicode text (see
``liquidrank.model``), and for such strings code-point order is UTF-8
byte order, so a plain ``sorted`` gives the byte order.  The encoding is
canonical: equal states produce identical bytes, and consensus digests
are computed over exactly these bytes.

``LocalFileStore`` writes one file per snapshot into a directory, named
by the zero-padded timestamp.  It finds its newest timestamp once, when
it opens, from the files named that way, and moves it forward on each
put.  Every output file the package writes is staged by :func:`replacing`,
so a failed write leaves its target as it found it.

The store also keeps one :class:`RowCache`, so a put can re-render only
the rows that changed since the previous one.  ``put(state, touched)``
takes the ids whose value may differ from the state it last put: the
engine passes a window's ``normalized`` map, which holds exactly the ids
``engine.update_state`` writes.  Every other id must keep its row.  New
ids are merged into the kept order, and a count check (kept ids plus new
ids must equal the state's size) falls back to rendering every row when
an id has gone or the cache is behind.  A put that raises clears the
cache, so the state it rejected never serves as the base of the next one.
Without a touched set, or without a cache, ``serialize_state`` renders
every row, so the bytes never depend on the cache.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator

from .errors import (
    RecordError,
    SnapshotNotFoundError,
    StoreConflictError,
    StoreOrderingError,
)
from .model import ParticipantId, ReputationState, check_participant_id, decode_input, text_lines


@contextmanager
def replacing(*targets: str | Path) -> Iterator[list[Path]]:
    """Stage a write of each target under ``<target>.partial``.

    Yields the staged paths, in target order.  When the block succeeds each
    staged file replaces its target; when it fails they are removed and the
    targets keep their previous contents.  With several targets, each one
    is kept as a ``<target>.previous`` hard link until every rename has
    succeeded, so a rename that fails part way undoes the ones before it.
    """
    staged = [Path(f"{target}.partial") for target in targets]
    kept = [Path(f"{target}.previous") for target in targets] if len(targets) > 1 else []
    renamed = 0
    try:
        yield staged
        for target, previous in zip(targets, kept):
            previous.unlink(missing_ok=True)
            if os.path.exists(target):
                os.link(target, previous)
        for path, target in zip(staged, targets):
            os.replace(path, target)
            renamed += 1
    except BaseException:
        for path in staged:
            path.unlink(missing_ok=True)
        for target, previous in zip(targets[:renamed], kept):
            if previous.exists():
                os.replace(previous, target)
            else:
                os.unlink(target)
        raise
    finally:
        for previous in kept:
            previous.unlink(missing_ok=True)


class RowCache:
    """Snapshot rows last rendered by :func:`serialize_state`, for reuse.

    The rows are those of the last state serialized with this cache; a call
    with a touched set trusts every other row to be unchanged since then.
    """

    __slots__ = ("rows", "order")

    def __init__(self) -> None:
        self.rows: dict[ParticipantId, str] = {}  # "pid,value\n"
        self.order: list[ParticipantId] = []  # sorted ids

    def clear(self) -> None:
        self.rows.clear()
        self.order.clear()


def serialize_state(
    state: ReputationState,
    cache: RowCache | None = None,
    touched: Iterable[ParticipantId] | None = None,
) -> bytes:
    """Canonical snapshot bytes of ``state``.

    ``cache`` carries rows over from the previous call made with it.  With
    ``touched``, only those ids are rendered again: every other id of
    ``state`` must have the value it had in that previous call.  Without it
    every row is rendered.
    """
    values = state.values
    if cache is None:
        body = _render_rows(values, sorted(values))
    else:
        rows = cache.rows
        stale = list(values if touched is None else touched)
        new = [pid for pid in stale if pid not in rows]
        if len(rows) + len(new) != len(values):  # an id has gone, or an untouched one is missing
            cache.clear()
            stale = new = list(values)
        rows.update(zip(stale, _render_rows(values, stale)))
        if new:
            cache.order.extend(new)
            cache.order.sort()  # the kept ids are one sorted run
        body = map(rows.__getitem__, cache.order)
    return (f"{state.at!s}\n" + "".join(body)).encode("utf-8")


def _render_rows(values: dict[ParticipantId, float], ids: list[ParticipantId]) -> list[str]:
    return [f"{pid},{values[pid]!r}\n" for pid in ids]


def deserialize_state(data: bytes) -> ReputationState:
    """Inverse of :func:`serialize_state`.

    Each id must pass ``model.check_participant_id`` and each value lie in
    [0, 1]; a bad row is a record error naming its line.
    """
    lines = text_lines(decode_input(data))
    header = next(lines, None)
    if header is None:
        raise RecordError("empty snapshot", 1)
    # int() and float() also take "+", "_", other scripts' digits and space,
    # which serialize_state never writes: a number may leave only its line end.
    line_ends = ("\n", "\r\n", "")
    try:
        at = int(header)
    except ValueError:
        at = None
    if at is None or header.removeprefix(str(at)) not in line_ends:
        header = header.removesuffix("\n")
        raise RecordError(f"snapshot header {header!r} is not a timestamp", 1)
    values: dict[str, float] = {}
    for lineno, line in enumerate(lines, start=2):
        pid, sep, raw = line.partition(",")
        if not sep:
            line = line.removesuffix("\n")
            raise RecordError(f"malformed snapshot row {line!r}", lineno)
        check_participant_id(pid, "participant", lineno)
        if pid in values:
            raise RecordError(f"duplicate participant {pid!r}", lineno)
        try:
            value = float(raw)
        except ValueError:
            value = None
        if value is not None and not 0.0 <= value <= 1.0:
            raise RecordError(f"reputation {value!r} outside [0, 1]", lineno)
        # After leading space, removeprefix keeps all of raw: no line end.
        if (value is None or not raw.isascii() or "+" in raw or "_" in raw
                or raw.removeprefix(raw.strip()) not in line_ends):
            raw = raw.removesuffix("\n")
            raise RecordError(f"reputation {raw!r} is not a number", lineno)
        values[pid] = value
    return ReputationState(at=at, values=values)


def state_digest(state: ReputationState) -> str:
    """Hex digest of the canonical snapshot bytes."""
    import hashlib

    return hashlib.sha256(serialize_state(state)).hexdigest()


def load_snapshot(path: str | Path) -> ReputationState:
    return deserialize_state(Path(path).read_bytes())


class LocalFileStore:
    """One snapshot file per timestamp inside a directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        stamps = []
        for path in self.root.glob("*.csv"):
            try:
                at = int(path.stem)
            except ValueError:
                continue
            if path.name == self._path(at).name:  # int() also takes "5", "+5", "5_0"
                stamps.append(at)
        self._newest = max(stamps, default=None)
        self._rows = RowCache()

    def _path(self, at: int) -> Path:
        return self.root / f"{at:020d}.csv"

    def _read(self, at: int) -> bytes | None:
        try:
            return self._path(at).read_bytes()
        except FileNotFoundError:
            return None

    def put(
        self, state: ReputationState, touched: Iterable[ParticipantId] | None = None,
    ) -> Path | None:
        """Append a snapshot and return the path of the file it wrote.

        ``touched`` names the ids whose value may have changed since the
        previous put (see :func:`serialize_state`); ``None`` re-renders
        every row.  Re-putting an identical snapshot at an existing
        timestamp is a no-op that returns ``None``; a different snapshot at
        an existing timestamp is a conflict; a timestamp older than the
        newest stored one is an ordering error.  A failed put leaves no
        file behind.
        """
        try:
            data = serialize_state(state, self._rows, touched)
            if self._newest is not None and state.at <= self._newest:
                existing = self._read(state.at)
                if existing == data:
                    return None
                if existing is not None:
                    raise StoreConflictError(
                        f"snapshot at t={state.at} already exists with different content"
                    )
                raise StoreOrderingError(
                    f"snapshot at t={state.at} is older than the newest stored "
                    f"t={self._newest}"
                )
            path = self._path(state.at)
            with replacing(path) as (staged,):
                staged.write_bytes(data)
        except BaseException:
            self._rows.clear()
            raise
        self._newest = state.at
        return path

    def get(self, at: int) -> ReputationState:
        data = self._read(at)
        if data is None:
            raise SnapshotNotFoundError(f"no snapshot at t={at}")
        return deserialize_state(data)

    def latest(self) -> ReputationState:
        if self._newest is None:
            raise SnapshotNotFoundError("store is empty")
        return self.get(self._newest)
