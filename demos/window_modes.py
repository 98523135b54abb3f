"""
The same log under the four window modes
========================================

Window boundaries change how history is folded: one big window treats
every rating as equally fresh, per-transaction windows replay events one
at a time, and the periodic / per-block modes sit in between.
"""

from liquidrank.config import EngineConfig
from liquidrank.engine import run_windows
from liquidrank.ingest import PerBlock, Periodic, partition, window_mode_from_spec
from liquidrank.model import Kind, RatingRecord

log = [
    RatingRecord("ann", "bob", Kind.TRANSACTION, 0.9, 10.0, timestamp=5),
    RatingRecord("mia", "bob", Kind.TRANSACTION, 0.7, 2.0, timestamp=18),
    RatingRecord("ann", "carol", Kind.TRANSACTION, -0.6, 4.0, timestamp=22),
    RatingRecord("pete", "bob", Kind.TRANSACTION, -0.8, 6.0, timestamp=41),
    RatingRecord("pete", "carol", Kind.TRANSACTION, 0.5, 3.0, timestamp=57),
]

modes = [
    ("whole history", window_mode_from_spec("whole")),
    ("per transaction", window_mode_from_spec("tx")),
    ("periodic, length 20", Periodic(20)),
    ("blocks of 2", PerBlock(2)),
]

for title, mode in modes:
    windows = partition(log, mode, 0)
    spans = ", ".join(f"({w.t_prev},{w.t_now}]x{len(chunk)}" for w, chunk in windows)
    print(f"{title}: {len(windows)} window(s)  {spans}")

print()
cfg = EngineConfig()

# bob gets praised early and slammed late; how much the late slam counts
# depends on the windowing
for title, mode in modes:
    final = None
    for _, state, _ in run_windows(log, mode, 0, cfg):
        final = state
    row = "  ".join(f"{pid}={final.values[pid]:.4f}" for pid in sorted(final.values))
    print(f"{title:20s} {row}")
