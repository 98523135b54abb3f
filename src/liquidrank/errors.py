"""Exception types shared across the package."""

from __future__ import annotations


class LiquidRankError(Exception):
    """Base class for all errors raised by this package.

    ``line`` carries the 1-based line number when the error originates
    from reading an input file, ``None`` otherwise.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class RecordError(LiquidRankError):
    """A rating record or log line was rejected."""


class ConfigError(LiquidRankError):
    """Invalid or inconsistent configuration."""


class StoreError(LiquidRankError):
    """Base class for reputation-store failures."""


class StoreOrderingError(StoreError):
    """A snapshot was put with a timestamp at or before the newest stored one."""


class StoreConflictError(StoreError):
    """A snapshot was put at an existing timestamp with different content."""


class SnapshotNotFoundError(StoreError):
    """No snapshot exists at the requested timestamp."""


class CorrelationUndefinedError(LiquidRankError):
    """Pearson correlation is undefined (constant series or too few points)."""
