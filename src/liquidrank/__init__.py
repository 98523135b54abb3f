"""Rating-based reputation engine with windowed recomputation.

The package computes participant reputations incrementally from a log of
rated interactions, persists the resulting states as canonical snapshots,
simulates how independent agencies agree on those snapshots, and scores
computed reputations against labeled references.

The package root exports nothing: import each name from the module that
defines it, such as ``from liquidrank.engine import run_windows``.
"""
