"""Seeded generators for the two databases of the paper.

Database 1 of the paper is the US mainland (GNIS features): strongly
clustered point/small-extent objects inside a continental outline, with
empty "ocean" margins around it.  Database 2 is a world atlas: several
continent-shaped clusters that cover only a minority of the data space, the
rest being water.  The generators below reproduce those structural
properties — cluster density gradients, dead space, object extent mix —
which are what drives page MBR sizes and therefore the behaviour of the
spatial replacement criteria.

Both generators are deterministic under a fixed seed and scale freely via
``n_objects``.  The experiments default to ~10^5 objects.  The paper's
Database 1 scale works too: on a 2-vCPU Xeon VM under Python 3.11,
``us_mainland_like(1_641_079)`` takes 5.1–5.5 s and an STR ``bulk_load`` of
it 5.5–7.5 s more, with a peak RSS of 244 MB for both; the tree has 58,256
pages, 1,667 of them directory pages, and height 5 at the default fill
of 0.7.  A dataset keeps its MBRs as one coordinate array (:class:`Rects`),
32 bytes an object.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from operator import eq

from repro.geometry.rect import Point, Rect, coordinate_array

#: All synthetic data lives in the unit square.
UNIT_SPACE = Rect(0.0, 0.0, 1.0, 1.0)


@dataclass(frozen=True, slots=True)
class Cluster:
    """A population cluster ("city region") of a synthetic dataset.

    ``weight`` is the share of clustered objects that fall into this
    cluster; it doubles as the density proxy the places generator uses to
    assign populations (dense regions host the big cities — the property
    behind the paper's intensified-distribution result).
    """

    center: Point
    spread: float
    weight: float


class Rects(Sequence):
    """The MBRs of a dataset, read from one flat coordinate array.

    ``x_min, y_min, x_max, y_max`` of object 0, 1, … in one ``array('d')``:
    32 bytes an object, where a kept :class:`Rect` and its four floats cost
    ~160.  Each read builds its :class:`Rect`; nothing is kept.  Read-only;
    indexing follows a list's (negative indices, slices, which give a
    list), and it compares equal to any sequence of the same rects.
    """

    __slots__ = ("_coords",)

    def __init__(self, coords: array) -> None:
        self._coords = coords

    def __len__(self) -> int:
        return len(self._coords) // 4

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        at = 4 * range(len(self))[index]
        coords = self._coords
        return Rect(coords[at], coords[at + 1], coords[at + 2], coords[at + 3])

    def __iter__(self) -> Iterator[Rect]:
        values = iter(self._coords)
        return map(Rect, values, values, values, values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Rects):
            return self._coords == other._coords
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


class Items(Sequence):
    """``(rects[i], i)`` for every ``i``, as a re-iterable sequence.

    A bulk load reads each pair once, so none is kept: a list of them
    would cost a tuple per object for as long as the build runs.  Indexing
    follows a list's (negative indices, slices); a slice is a list.
    """

    __slots__ = ("_rects",)

    def __init__(self, rects: Rects) -> None:
        self._rects = rects

    def __len__(self) -> int:
        return len(self._rects)

    def __getitem__(self, index):
        if isinstance(index, slice):
            positions = range(len(self._rects))[index]
            return list(zip(self._rects[index], positions))
        return self._rects[index], range(len(self._rects))[index]

    def __iter__(self) -> Iterator[tuple[Rect, int]]:
        return zip(self._rects, range(len(self._rects)))

    @property
    def coords(self) -> array:
        """The coordinate array behind ``rects`` (not to be changed): a
        bulk load reads the bounds from it and builds no :class:`Rect`."""
        return self._rects._coords


@dataclass(slots=True)
class Dataset:
    """A named collection of object MBRs inside a data space.

    ``rects`` may be given as any sequence of :class:`Rect`; it is kept as
    a read-only :class:`Rects` view over one coordinate array.  A bound
    that a C double does not hold exactly raises :class:`ValueError`.
    """

    name: str
    space: Rect
    rects: Sequence[Rect]
    clusters: list[Cluster] = field(default_factory=list)
    #: Regions considered "land"; queries outside hit nothing (database 2).
    land: list[Rect] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not isinstance(self.rects, Rects):
            self.rects = Rects(
                coordinate_array(
                    [
                        bound
                        for rect in self.rects
                        for bound in (rect.x_min, rect.y_min, rect.x_max, rect.y_max)
                    ]
                )
            )

    def items(self) -> Items:
        """(MBR, object id) pairs, the input format of the SAM builders: a
        lazy view over ``rects`` that builds each pair when it is read."""
        return Items(self.rects)

    def __len__(self) -> int:
        return len(self.rects)


#: An axis-aligned ellipse of land: ``(center_x, center_y, rx, ry)``.
_Ellipse = tuple[float, float, float, float]

#: The mainland of Database 1: one ellipse covering most of the unit square.
_MAINLAND: list[_Ellipse] = [(0.5, 0.5, 0.46, 0.38)]


def _bounding_rects(land: list[_Ellipse]) -> list[Rect]:
    """The bounding rectangle of each land ellipse (``Dataset.land``)."""
    return [
        Rect(center_x - rx, center_y - ry, center_x + rx, center_y + ry)
        for center_x, center_y, rx, ry in land
    ]


def _on_land(x: float, y: float, land: list[_Ellipse]) -> bool:
    """Whether ``(x, y)`` lies inside any of the ``land`` ellipses."""
    for center_x, center_y, rx, ry in land:
        dx = (x - center_x) / rx
        dy = (y - center_y) / ry
        if dx * dx + dy * dy <= 1.0:
            return True
    return False


def _make_clusters(
    rng: random.Random,
    count: int,
    ellipse: _Ellipse,
    zipf_exponent: float,
    spread_range: tuple[float, float] = (0.006, 0.018),
) -> list[Cluster]:
    """Cluster centres inside ``ellipse`` with Zipf-distributed weights.

    Real settlement sizes are Zipf-distributed; giving cluster weights the
    same shape yields the density skew that makes the intensified query
    distribution interesting.
    """
    center_x, center_y, rx, ry = ellipse
    clusters = []
    raw_weights = [1.0 / (rank**zipf_exponent) for rank in range(1, count + 1)]
    total = sum(raw_weights)
    for weight in raw_weights:
        while True:
            # Uniform in the unit disc, scaled onto the ellipse.  The land
            # test can still refuse a point on the rim by a rounding.
            u = rng.uniform(-1.0, 1.0)
            v = rng.uniform(-1.0, 1.0)
            if u * u + v * v > 1.0:
                continue
            x = center_x + u * rx
            y = center_y + v * ry
            if _on_land(x, y, [ellipse]):
                break
        spread = rng.uniform(*spread_range)
        clusters.append(
            Cluster(center=Point(x, y), spread=spread, weight=weight / total)
        )
    return clusters


def _sample_objects(
    rng: random.Random,
    n_objects: int,
    clusters: list[Cluster],
    land: list[_Ellipse],
    clustered_fraction: float,
    extended_fraction: float,
    mean_extent: float,
) -> Rects:
    """``n_objects`` object MBRs on ``land`` inside :data:`UNIT_SPACE`.

    Each object is drawn near a cluster (picked by weight, Gaussian around
    its centre, clamped to the space) or uniformly, redrawn until it lies
    on land; it is a point, or with probability ``extended_fraction`` a
    small rectangle of exponential width and height around the location,
    clipped to the space.  Four floats per object, appended to one
    coordinate array: no :class:`Rect` is built.
    """
    random_ = rng.random
    gauss = rng.gauss
    expovariate = rng.expovariate
    rate = 1.0 / mean_extent
    x_lo, y_lo, x_hi, y_hi = UNIT_SPACE.as_tuple()
    cumulative: list[float] = []
    running = 0.0
    for cluster in clusters:
        running += cluster.weight
        cumulative.append(running)
    last = len(cumulative) - 1
    centres = [(c.center.x, c.center.y, c.spread) for c in clusters]
    coords = array("d")
    extend = coords.extend
    for _ in range(n_objects):
        if random_() < clustered_fraction:
            center_x, center_y, spread = centres[
                bisect_left(cumulative, random_() * running, 0, last)
            ]
            while True:
                x = gauss(center_x, spread)
                y = gauss(center_y, spread)
                if x < x_lo:
                    x = x_lo
                elif x > x_hi:
                    x = x_hi
                if y < y_lo:
                    y = y_lo
                elif y > y_hi:
                    y = y_hi
                if _on_land(x, y, land):
                    break
        else:
            while True:
                x = random_()
                y = random_()
                if _on_land(x, y, land):
                    break
        if random_() >= extended_fraction:
            extend((x, y, x, y))
            continue
        half_w = expovariate(rate) / 2.0
        half_h = expovariate(rate) / 2.0
        # The location lies in the space, so the clipped rectangle holds it
        # and is never empty.
        x_min = x - half_w
        if x_min < x_lo:
            x_min = x_lo
        y_min = y - half_h
        if y_min < y_lo:
            y_min = y_lo
        x_max = x + half_w
        if x_max > x_hi:
            x_max = x_hi
        y_max = y + half_h
        if y_max > y_hi:
            y_max = y_hi
        extend((x_min, y_min, x_max, y_max))
    return Rects(coords)


def us_mainland_like(
    n_objects: int = 100_000,
    seed: int = 1,
    n_clusters: int = 300,
    clustered_fraction: float = 0.65,
    extended_fraction: float = 0.3,
    mean_extent: float = 0.002,
    cluster_zipf: float = 0.45,
) -> Dataset:
    """Database-1 stand-in: one continental mass with clustered features.

    The "mainland" is an ellipse covering most of the unit square; objects
    are a mixture of city clusters (Zipf weights) and rural background.
    Like the GNIS data, most objects are points, a minority has a small
    extent.
    """
    rng = random.Random(seed)
    clusters = _make_clusters(rng, n_clusters, _MAINLAND[0], cluster_zipf)
    rects = _sample_objects(
        rng,
        n_objects,
        clusters,
        _MAINLAND,
        clustered_fraction,
        extended_fraction,
        mean_extent,
    )
    return Dataset(
        name="us-mainland-like",
        space=UNIT_SPACE,
        rects=rects,
        clusters=clusters,
        land=_bounding_rects(_MAINLAND),
    )


#: Continent blobs of the world-atlas stand-in.
#:
#: All land sits in the western half of the map, like the paper's world
#: atlas where the eastern Pacific leaves a huge water gap: x-mirroring a
#: land location (the independent query distribution) must usually land in
#: water, so those queries terminate at the root page (Section 3.5.3).
_CONTINENTS: list[_Ellipse] = [
    (0.13, 0.62, 0.09, 0.13),  # "North America"
    (0.21, 0.28, 0.07, 0.13),  # "South America"
    (0.36, 0.68, 0.08, 0.09),  # "Europe"
    (0.40, 0.38, 0.08, 0.13),  # "Africa"
    (0.55, 0.58, 0.12, 0.08),  # "Asia" — straddles the mirror axis,
    # so a minority of x-mirrored queries still meets land (the paper's
    # "most query points meet water", not "all")
    (0.30, 0.10, 0.06, 0.06),  # "Australia"
]


def world_atlas_like(
    n_objects: int = 60_000,
    seed: int = 2,
    clusters_per_continent: int = 40,
    clustered_fraction: float = 0.65,
    extended_fraction: float = 0.6,
    mean_extent: float = 0.003,
    cluster_zipf: float = 0.45,
) -> Dataset:
    """Database-2 stand-in: continents in an ocean.

    The defining property (used by the paper to explain the collapse of the
    pure spatial policy under the independent distribution): most of the
    data space is water, so an x-mirrored query usually hits nothing and is
    answered by the root page alone.  Object extents are larger on average
    than in database 1, mimicking line/area features.
    """
    rng = random.Random(seed)
    clusters: list[Cluster] = []
    for continent in _CONTINENTS:
        clusters.extend(
            _make_clusters(rng, clusters_per_continent, continent, cluster_zipf)
        )
    # Re-normalise the per-continent weights over the whole world, scaled by
    # continent area so big continents hold more objects.
    areas = [math.pi * rx * ry for _, _, rx, ry in _CONTINENTS]
    total_area = sum(areas)
    scaled: list[Cluster] = []
    for index, cluster in enumerate(clusters):
        continent = index // clusters_per_continent
        factor = areas[continent] / total_area
        scaled.append(
            Cluster(
                center=cluster.center,
                spread=cluster.spread,
                weight=cluster.weight * factor,
            )
        )
    weight_sum = sum(c.weight for c in scaled)
    scaled = [
        Cluster(center=c.center, spread=c.spread, weight=c.weight / weight_sum)
        for c in scaled
    ]
    rects = _sample_objects(
        rng,
        n_objects,
        scaled,
        _CONTINENTS,
        clustered_fraction,
        extended_fraction,
        mean_extent,
    )
    return Dataset(
        name="world-atlas-like",
        space=UNIT_SPACE,
        rects=rects,
        clusters=scaled,
        land=_bounding_rects(_CONTINENTS),
    )
