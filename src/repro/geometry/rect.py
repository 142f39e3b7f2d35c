"""Axis-aligned rectangles (MBRs) and points in the two-dimensional plane.

Rectangles are the currency of the whole library: R-tree entries, query
windows, page bounding boxes and the spatial replacement criteria of the
paper are all expressed on :class:`Rect`.  Rectangles are closed on all
sides, i.e. a point lying on the boundary is contained, and two rectangles
that merely touch do intersect (with zero intersection area).  This matches
the conventions used by R-tree literature, where boundary contacts must be
followed during queries.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True, slots=True)
class Point:
    """A point in the plane.

    Points double as degenerate rectangles in several call sites (a point
    query is a window query with a zero-extent window), hence the
    :meth:`as_rect` convenience.
    """

    x: float
    y: float

    def as_rect(self) -> "Rect":
        """Return the degenerate rectangle covering exactly this point."""
        return Rect(self.x, self.y, self.x, self.y)

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance between this point and ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def translated(self, dx: float, dy: float) -> "Point":
        """Return a copy moved by the offset ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y


@dataclass(frozen=True, slots=True)
class Rect:
    """A closed, axis-aligned rectangle ``[x_min, x_max] x [y_min, y_max]``.

    Degenerate rectangles (zero width and/or height) are legal: point data
    is stored in R-trees as degenerate MBRs.  Construction validates that
    the bounds are ordered.
    """

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError(
                "invalid rectangle bounds: "
                f"({self.x_min}, {self.y_min}, {self.x_max}, {self.y_max})"
            )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_center(cls, center: Point, width: float, height: float) -> "Rect":
        """Build the rectangle of the given extent centred on ``center``."""
        if width < 0 or height < 0:
            raise ValueError("width and height must be non-negative")
        half_w = width / 2.0
        half_h = height / 2.0
        return cls(
            center.x - half_w, center.y - half_h, center.x + half_w, center.y + half_h
        )

    @classmethod
    def from_points(cls, a: Point, b: Point) -> "Rect":
        """Build the MBR of two points (any corner order)."""
        return cls(min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y))

    # ------------------------------------------------------------------
    # Basic measures — these back the paper's spatial criteria
    # ------------------------------------------------------------------

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        """Area of the rectangle (optimization criterion O1 of the R*-tree)."""
        return self.width * self.height

    @property
    def margin(self) -> float:
        """Perimeter of the rectangle (optimization criterion O3).

        Following Beckmann et al., the margin is the full perimeter
        ``2 * (width + height)``.
        """
        return 2.0 * (self.width + self.height)

    @property
    def center(self) -> Point:
        return Point((self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0)

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------

    def contains_point(self, point: Point) -> bool:
        """True if ``point`` lies inside or on the boundary."""
        return (
            self.x_min <= point.x <= self.x_max
            and self.y_min <= point.y <= self.y_max
        )

    def contains(self, other: "Rect") -> bool:
        """True if ``other`` lies fully inside this rectangle (closed)."""
        return (
            self.x_min <= other.x_min
            and self.y_min <= other.y_min
            and other.x_max <= self.x_max
            and other.y_max <= self.y_max
        )

    def intersects(self, other: "Rect") -> bool:
        """True if the closed rectangles share at least a boundary point."""
        return (
            self.x_min <= other.x_max
            and other.x_min <= self.x_max
            and self.y_min <= other.y_max
            and other.y_min <= self.y_max
        )

    # ------------------------------------------------------------------
    # Combinations
    # ------------------------------------------------------------------

    def intersection(self, other: "Rect") -> "Rect | None":
        """The overlapping rectangle, or ``None`` if the two do not meet."""
        x_min = max(self.x_min, other.x_min)
        y_min = max(self.y_min, other.y_min)
        x_max = min(self.x_max, other.x_max)
        y_max = min(self.y_max, other.y_max)
        if x_min > x_max or y_min > y_max:
            return None
        return Rect(x_min, y_min, x_max, y_max)

    def intersection_area(self, other: "Rect") -> float:
        """Area of the intersection, 0.0 for disjoint or touching rectangles.

        This is the building block of the paper's EO criterion (overlap
        between the entries of a page) and of the R*-tree's overlap-
        minimising ChooseSubtree.
        """
        width = min(self.x_max, other.x_max) - max(self.x_min, other.x_min)
        if width <= 0.0:
            return 0.0
        height = min(self.y_max, other.y_max) - max(self.y_min, other.y_min)
        if height <= 0.0:
            return 0.0
        return width * height

    def union(self, other: "Rect") -> "Rect":
        """The MBR covering both rectangles."""
        return Rect(
            min(self.x_min, other.x_min),
            min(self.y_min, other.y_min),
            max(self.x_max, other.x_max),
            max(self.y_max, other.y_max),
        )

    def union_point(self, point: Point) -> "Rect":
        """The MBR covering this rectangle and the given point."""
        return Rect(
            min(self.x_min, point.x),
            min(self.y_min, point.y),
            max(self.x_max, point.x),
            max(self.y_max, point.y),
        )

    def enlargement(self, other: "Rect") -> float:
        """Area growth needed to include ``other`` (Guttman's insert metric)."""
        return self.union(other).area - self.area

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def translated(self, dx: float, dy: float) -> "Rect":
        """Return a copy moved by the offset ``(dx, dy)``."""
        return Rect(self.x_min + dx, self.y_min + dy, self.x_max + dx, self.y_max + dy)

    def scaled(self, factor: float) -> "Rect":
        """Return a copy scaled about its center by ``factor`` (>= 0)."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        center = self.center
        half_w = self.width * factor / 2.0
        half_h = self.height * factor / 2.0
        return Rect(center.x - half_w, center.y - half_h, center.x + half_w, center.y + half_h)

    def flipped_x(self, x_min: float, x_max: float) -> "Rect":
        """Mirror the rectangle around the vertical axis of ``[x_min, x_max]``.

        Used to construct the paper's *independent* query distribution:
        query locations are the x-mirror image of the place locations, so an
        object in the west queries the east and vice versa (Section 3.1).
        """
        return Rect(
            x_min + (x_max - self.x_max),
            self.y_min,
            x_max - (self.x_min - x_min),
            self.y_max,
        )

    def clipped(self, bounds: "Rect") -> "Rect | None":
        """Clip this rectangle to ``bounds``; ``None`` if fully outside."""
        return self.intersection(bounds)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)


def mbr_of_rects(rects: Iterable[Rect]) -> Rect:
    """Minimum bounding rectangle of a non-empty collection of rectangles.

    This is ``mbr({e | e in p})`` of the paper: the bounding box of all
    entries of a page, on which the A and M replacement criteria operate.
    """
    iterator = iter(rects)
    try:
        first = next(iterator)
    except StopIteration:
        raise ValueError("mbr_of_rects() requires at least one rectangle") from None
    x_min, y_min, x_max, y_max = first.as_tuple()
    for rect in iterator:
        if rect.x_min < x_min:
            x_min = rect.x_min
        if rect.y_min < y_min:
            y_min = rect.y_min
        if rect.x_max > x_max:
            x_max = rect.x_max
        if rect.y_max > y_max:
            y_max = rect.y_max
    return Rect(x_min, y_min, x_max, y_max)


def mbr_of_points(points: Sequence[Point]) -> Rect:
    """Minimum bounding rectangle of a non-empty collection of points."""
    if not points:
        raise ValueError("mbr_of_points() requires at least one point")
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    return Rect(min(xs), min(ys), max(xs), max(ys))


def total_overlap(rects: Sequence[Rect]) -> float:
    """Sum of pairwise intersection areas of a collection of rectangles.

    This implements the paper's EO criterion::

        spatialCrit_EO(p) = sum_{e,f in p, e != f} area(mbr(e) ^ mbr(f)) / 2

    The formula counts each unordered pair twice and divides by two; we
    iterate unordered pairs directly, which is equivalent and cheaper.
    """
    return box_overlap([rect.as_tuple() for rect in rects])


def box_overlap(boxes: Sequence[tuple[float, float, float, float]]) -> float:
    """:func:`total_overlap` of rectangles given as ``(x_min, y_min, x_max,
    y_max)`` tuples; each pair is :meth:`Rect.intersection_area`, written
    out."""
    overlap = 0.0
    n = len(boxes)
    for i in range(n):
        a_x_min, a_y_min, a_x_max, a_y_max = boxes[i]
        for j in range(i + 1, n):
            b_x_min, b_y_min, b_x_max, b_y_max = boxes[j]
            width = min(a_x_max, b_x_max) - max(a_x_min, b_x_min)
            if width <= 0.0:
                continue
            height = min(a_y_max, b_y_max) - max(a_y_min, b_y_min)
            if height <= 0.0:
                continue
            overlap += width * height
    return overlap


def coordinate_array(values: list) -> array:
    """``values`` as one ``array('d')``, the flat storage of coordinates.

    Raises :class:`ValueError` for a value that a C double does not hold
    exactly (an integer beyond 2**53, a ``Fraction`` such as 1/3): stored,
    it would silently become another number.  A NaN is held as it is.
    """
    try:
        coords = array("d", values)
    except OverflowError as exc:
        raise ValueError(f"a coordinate does not fit a double: {exc}") from None
    if coords.tolist() != values:
        for value, held in zip(values, coords):
            if value != held and value == value:
                raise ValueError(
                    f"coordinate {value!r} is not a double; it would be stored "
                    f"as {held!r}"
                )
    return coords
