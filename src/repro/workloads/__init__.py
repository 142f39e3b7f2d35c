"""Query workloads.

The paper evaluates replacement policies on five query-distribution
families (Section 3.1): uniform (U), identical (ID), similar (S),
intensified (INT) and independent (IND), each as point queries (-P) and
window queries (-W-ex, where 1/ex is the window extent relative to the data
space).  This package generates all of them.
"""

from repro.workloads.distributions import (
    identical_queries,
    independent_queries,
    intensified_queries,
    similar_queries,
    uniform_queries,
)
from repro.workloads.patterns import drifting_hotspot
from repro.workloads.queries import PointQuery, Query, WindowQuery
from repro.workloads.updates import (
    Delete,
    Insert,
    Move,
    UpdateOp,
    interleave,
    moving_objects_stream,
    update_stream,
)
from repro.workloads.sets import (
    EX_VALUES,
    QUERY_SET_NAMES,
    QuerySet,
    make_query_set,
    parse_set_name,
)

__all__ = [
    "Query",
    "PointQuery",
    "WindowQuery",
    "uniform_queries",
    "identical_queries",
    "similar_queries",
    "intensified_queries",
    "independent_queries",
    "QuerySet",
    "make_query_set",
    "parse_set_name",
    "QUERY_SET_NAMES",
    "EX_VALUES",
    "drifting_hotspot",
    "UpdateOp",
    "Insert",
    "Delete",
    "Move",
    "update_stream",
    "moving_objects_stream",
    "interleave",
]
