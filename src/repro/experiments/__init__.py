"""The experiment harness.

Rebuilds the paper's evaluation: construct a database (synthetic dataset +
R*-tree), replay a named query set against a fresh buffer per policy, and
report the relative performance gain over LRU — the paper's metric
``|disk accesses of LRU| / |disk accesses of policy| - 1``.
"""

from repro.experiments.harness import (
    BUFFER_FRACTIONS,
    Database,
    build_database,
    buffer_capacity,
    compare_policies,
    gain,
    replay,
)
from repro.experiments.analysis import (
    lru_miss_curve,
    opt_misses,
    profile_trace,
    stack_distances,
)
from repro.experiments.report import format_gain, format_table
from repro.experiments.trace import (
    AccessTrace,
    record_event_trace,
    record_trace,
    replay_trace,
)

__all__ = [
    "BUFFER_FRACTIONS",
    "Database",
    "build_database",
    "buffer_capacity",
    "compare_policies",
    "gain",
    "replay",
    "format_gain",
    "format_table",
    "lru_miss_curve",
    "opt_misses",
    "profile_trace",
    "stack_distances",
    "AccessTrace",
    "record_trace",
    "record_event_trace",
    "replay_trace",
]
