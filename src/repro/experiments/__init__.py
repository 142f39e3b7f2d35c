"""The experiment harness.

Rebuilds the paper's evaluation: construct a database (synthetic dataset +
R*-tree), record a named query set's reference string once
(:meth:`Database.trace`), replay it against a fresh buffer per policy and
size (:func:`~repro.experiments.harness.run_grid`), and report the
relative performance gain over LRU — the paper's metric
``|disk accesses of LRU| / |disk accesses of policy| - 1``.
"""

from repro.experiments.harness import (
    BUFFER_FRACTIONS,
    Database,
    build_database,
    buffer_capacity,
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

__all__ = [
    "BUFFER_FRACTIONS",
    "Database",
    "build_database",
    "buffer_capacity",
    "gain",
    "replay",
    "format_gain",
    "format_table",
    "lru_miss_curve",
    "opt_misses",
    "profile_trace",
    "stack_distances",
]
