"""Query objects.

A query knows how to execute itself against any spatial index through a
page accessor; the experiment harness wraps the execution in the buffer's
query scope so that all page requests of one query count as correlated
(the paper's correlation notion for LRU-K).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any

from repro.geometry.rect import Point, Rect
from repro.sam.base import PageAccessor, SpatialIndex


class Query(abc.ABC):
    """One spatial query."""

    @abc.abstractmethod
    def run(self, index: SpatialIndex, accessor: PageAccessor | None = None) -> list[Any]:
        """Execute against ``index``, fetching pages through ``accessor``."""

    @property
    @abc.abstractmethod
    def region(self) -> Rect:
        """The spatial region the query touches (for analysis/plots)."""


@dataclass(frozen=True, slots=True)
class PointQuery(Query):
    """Find all objects whose MBR contains a point."""

    point: Point

    def run(self, index: SpatialIndex, accessor: PageAccessor | None = None) -> list[Any]:
        return index.point_query(self.point, accessor)

    @property
    def region(self) -> Rect:
        return self.point.as_rect()


@dataclass(frozen=True, slots=True)
class WindowQuery(Query):
    """Find all objects whose MBR intersects a window."""

    window: Rect

    def run(self, index: SpatialIndex, accessor: PageAccessor | None = None) -> list[Any]:
        return index.window_query(self.window, accessor)

    @property
    def region(self) -> Rect:
        return self.window
