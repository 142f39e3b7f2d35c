"""Phase-shifting workloads: abrupt profile changes, labelled.

The paper's self-tuning evidence (Figure 14) concatenates three query
sets and watches ASB re-tune across the seams.  The tuning subsystem
needs the same stressor in a reusable, *labelled* form: a workload whose
profile changes abruptly at known indices, so experiments can score each
phase separately and adaptation events can be attributed to seams.

:func:`phased_workload` concatenates four canonical phases:

``scan``
    a sequential sweep — a row-major grid of windows covering the whole
    space exactly once.  No re-reference at the leaf level; the classic
    LRU-pollution pattern (every fetched page is dead weight).
``hotspot``
    small windows jittering around one fixed point — extreme temporal
    locality, the pattern recency policies are built for.
``drift``
    :func:`~repro.workloads.patterns.drifting_hotspot` — the hot region
    wanders, so yesterday's working set decays continuously.
``mixed``
    uniform windows interleaved with point queries — no structure to
    exploit beyond the tree's directory levels.

Everything is driven by one seed; the same ``(space, sizes, seed)``
yields the same queries forever, which the golden-trace test pins down.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.geometry.rect import Point, Rect
from repro.workloads.patterns import _clipped_window, drifting_hotspot
from repro.workloads.queries import PointQuery, Query

#: Canonical phase order.
PHASE_NAMES = ("scan", "hotspot", "drift", "mixed")


@dataclass(frozen=True, slots=True)
class PhaseSpan:
    """One labelled phase: queries ``[start, end)`` of the flat list."""

    name: str
    start: int
    end: int

    @property
    def count(self) -> int:
        return self.end - self.start


@dataclass(slots=True)
class PhasedWorkload:
    """A flat query list plus the phase labelling over it."""

    queries: list[Query] = field(default_factory=list)
    spans: list[PhaseSpan] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)

    def phase_queries(self, name: str) -> list[Query]:
        for span in self.spans:
            if span.name == name:
                return self.queries[span.start:span.end]
        raise KeyError(f"no phase named {name!r}; have {[s.name for s in self.spans]}")


def scan_queries(space: Rect, count: int, extent: float = 0.08) -> list[Query]:
    """A row-major grid sweep covering the space once (no locality)."""
    if count < 1:
        raise ValueError("count must be positive")
    columns = max(1, round(math.sqrt(count * space.width / max(space.height, 1e-9))))
    rows = max(1, math.ceil(count / columns))
    queries: list[Query] = []
    for index in range(count):
        row, col = divmod(index, columns)
        x = space.x_min + (col + 0.5) * space.width / columns
        y = space.y_min + ((row % rows) + 0.5) * space.height / rows
        queries.append(_clipped_window(Point(x, y), extent, space))
    return queries


#: Standard deviation of a hotspot query's centre around the hot point.
_HOTSPOT_JITTER = 0.01


def hotspot_queries(
    space: Rect,
    count: int,
    seed: int = 0,
    extent: float = 0.03,
) -> list[Query]:
    """Small windows jittering around one fixed hot point."""
    rng = random.Random(seed)
    center = Point(
        space.x_min + 0.3 * space.width, space.y_min + 0.6 * space.height
    )
    return [
        _clipped_window(
            Point(
                center.x + rng.gauss(0, _HOTSPOT_JITTER),
                center.y + rng.gauss(0, _HOTSPOT_JITTER),
            ),
            extent,
            space,
        )
        for _ in range(count)
    ]


def mixed_queries(
    space: Rect, count: int, seed: int = 0, extent: float = 0.05
) -> list[Query]:
    """Uniform windows interleaved with point queries (no locality)."""
    rng = random.Random(seed)
    queries: list[Query] = []
    for _ in range(count):
        x = rng.uniform(space.x_min, space.x_max)
        y = rng.uniform(space.y_min, space.y_max)
        if rng.random() < 0.5:
            queries.append(_clipped_window(Point(x, y), extent, space))
        else:
            queries.append(PointQuery(Point(x, y)))
    return queries


def phased_workload(
    space: Rect,
    queries_per_phase: int = 80,
    seed: int = 0,
    phases: tuple[str, ...] = PHASE_NAMES,
) -> PhasedWorkload:
    """The canonical phase-shifting workload (see the module docstring).

    Each named phase contributes ``queries_per_phase`` queries; the phase
    seeds derive deterministically from ``seed`` so phases stay
    independent of each other's lengths.
    """
    if queries_per_phase < 1:
        raise ValueError("queries_per_phase must be positive")
    builders = {
        "scan": lambda n, s: scan_queries(space, n),
        "hotspot": lambda n, s: hotspot_queries(space, n, seed=s),
        "drift": lambda n, s: drifting_hotspot(space, n, seed=s),
        "mixed": lambda n, s: mixed_queries(space, n, seed=s),
    }
    workload = PhasedWorkload()
    for index, name in enumerate(phases):
        builder = builders.get(name)
        if builder is None:
            raise ValueError(
                f"unknown phase {name!r}; known: {sorted(builders)}"
            )
        start = len(workload.queries)
        workload.queries.extend(builder(queries_per_phase, seed * 1009 + index))
        workload.spans.append(
            PhaseSpan(name=name, start=start, end=len(workload.queries))
        )
    return workload
