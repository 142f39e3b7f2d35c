"""Temporal workload patterns beyond the paper's static distributions.

The paper's query sets are stationary; its self-tuning claim, however, is
about *changing* profiles (Figure 14 concatenates three sets).  This module
generates a non-stationary pattern for stress-testing adaptivity:
:func:`drifting_hotspot`, a hot region that wanders across the map, so the
working set moves continuously rather than switching abruptly.
"""

from __future__ import annotations

import math
import random

from repro.geometry.rect import Point, Rect
from repro.workloads.queries import Query, WindowQuery


def _clipped_window(center: Point, extent: float, space: Rect) -> WindowQuery:
    window = Rect.from_center(center, extent, extent).clipped(space)
    if window is None:  # centre outside the space: snap to the border
        x = min(max(center.x, space.x_min), space.x_max)
        y = min(max(center.y, space.y_min), space.y_max)
        window = Rect.from_center(Point(x, y), extent, extent).clipped(space)
        assert window is not None
    return WindowQuery(window)


#: The drifting hotspot's orbit around the map centre: its radius, the
#: turns it makes over one query sequence, and the Gaussian jitter of
#: each query's centre around the orbit.
_ORBIT_RADIUS = 0.3
_REVOLUTIONS = 1.5
_DRIFT_JITTER = 0.02


def drifting_hotspot(
    space: Rect,
    count: int,
    seed: int = 0,
    extent: float = 0.03,
) -> list[Query]:
    """Window queries around a hotspot that orbits the map centre.

    The hot region moves a little with every query; policies that adapt
    (LRU's recency, ASB's knob) follow, while static spatial preferences
    chase yesterday's hotspot.
    """
    rng = random.Random(seed)
    center = space.center
    queries: list[Query] = []
    for index in range(count):
        angle = 2 * math.pi * _REVOLUTIONS * index / max(1, count)
        hotspot = Point(
            center.x + _ORBIT_RADIUS * math.cos(angle) + rng.gauss(0, _DRIFT_JITTER),
            center.y + _ORBIT_RADIUS * math.sin(angle) + rng.gauss(0, _DRIFT_JITTER),
        )
        queries.append(_clipped_window(hotspot, extent, space))
    return queries

