"""The database build, pinned byte for byte and counted.

Every experiment and benchmark starts from a synthetic dataset packed into an
R*-tree by ``bulk_load``.  The golden tables and traces pin what queries
*read* from such a tree, three layers up; the digests here pin the build
itself: the generated rects and the encoded bytes of every page of an STR
tree over them.  An edit to the generators or the packing that
moves one byte fails here first.

The work counts guard the build's price: no :class:`Rect` or
:class:`Point` per generated object, none per sort key, and pages packed
straight into their slot images (the database's live and peak memory are
pinned per object).  A built page is still packed; a property holds what
it answers from its image to what it answers once unpacked.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
import tracemalloc
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffer.policies.spatial import SPATIAL_CRITERIA
from repro.datasets.synthetic import us_mainland_like, world_atlas_like
from repro.experiments.harness import build_database
from repro.geometry.rect import Point, Rect
from repro.sam.rstar import RStarTree
from repro.storage.page import PageEntry
from repro.storage.serialization import encode_page

_RECT = struct.Struct("<4d")
_ID = struct.Struct("<q")


def _mainland() -> Sequence[tuple[Rect, int]]:
    return us_mainland_like(20_000, seed=7).items()


def _atlas() -> Sequence[tuple[Rect, int]]:
    return world_atlas_like(10_000, seed=5).items()


def _stream() -> Sequence[tuple[Rect, int]]:
    # Pinned from the former chunked generator, which drew the same rects.
    return us_mainland_like(12_000, seed=3).items()


def _clipped() -> Sequence[tuple[Rect, int]]:
    # Extents this large reach past the unit square, so the clip of an
    # extended object is exercised; at the defaults it never bites.
    return us_mainland_like(5_000, seed=9, mean_extent=0.2).items()


_DATASETS = {
    "mainland": _mainland,
    "atlas": _atlas,
    "stream": _stream,
    "clipped": _clipped,
}


@functools.cache
def _items(name: str) -> Sequence[tuple[Rect, int]]:
    return _DATASETS[name]()


def _items_digest(items: Sequence[tuple[Rect, int]]) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for rect, object_id in items:
        digest.update(_RECT.pack(rect.x_min, rect.y_min, rect.x_max, rect.y_max))
        digest.update(_ID.pack(object_id))
    return digest.hexdigest()


def _tree_digest(tree: RStarTree) -> str:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(_ID.pack(tree.root_id) + _ID.pack(tree.height))
    for page_id in tree.all_page_ids():
        digest.update(_ID.pack(page_id))
        digest.update(encode_page(tree.pagefile.disk.peek(page_id)))
    return digest.hexdigest()


#: blake2b-128 of the generated (rect, id) pairs, computed before the
#: generators worked on floats.
ITEM_DIGESTS = {
    "atlas": "1a9ca5e367feba1c1b79f8fcd2a076f3",
    "clipped": "ad10b72ef9e96deec0940b860cf13993",
    "mainland": "a88d89b89879739ab678490cca32e197",
    "stream": "6fd2b36ab795b32c5413edc5c1d77e2b",
}

#: blake2b-128 of root, height and every encoded page of the bulk-loaded
#: tree, computed before the sort keys came from the MBR floats.
TREE_DIGESTS = {
    "atlas": "f0ee6006b027a03aa7ea01538304220e",
    "clipped": "44c2f1e978c98f5d196fae225b007450",
    "mainland": "aa7b0edc1fa1c1d50a022ba1d8a62a59",
    "stream": "43140029e9e34c022ff2a110c5b12731",
}


class TestPinnedBuildDigests:
    @pytest.mark.parametrize("name", sorted(_DATASETS))
    def test_generated_rects(self, name):
        assert _items_digest(_items(name)) == ITEM_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(_DATASETS))
    def test_bulk_loaded_pages(self, name):
        tree = RStarTree()
        tree.bulk_load(_items(name))
        pages = [tree.pagefile.disk.peek(page_id) for page_id in tree.all_page_ids()]
        assert all(page.image() is not None for page in pages), "built packed"
        assert _tree_digest(tree) == TREE_DIGESTS[name], "as built"
        tree.validate()  # unpacks every page
        assert all(page.image() is None for page in pages)
        assert _tree_digest(tree) == TREE_DIGESTS[name]

    def test_pairs_read_one_by_one_build_the_same_pages(self):
        """A dataset's items lend the bulk load their coordinate array; a
        list of the same pairs is read pair by pair, into equal columns."""
        tree = RStarTree()
        tree.bulk_load(list(_items("clipped")))
        assert _tree_digest(tree) == TREE_DIGESTS["clipped"]


def _center(entry: PageEntry) -> tuple[float, float]:
    mbr = entry.mbr
    return (mbr.x_min + mbr.x_max) / 2.0, (mbr.y_min + mbr.y_max) / 2.0


def _tuple_key_order(entries: list[PageEntry], capacity: int) -> list[PageEntry]:
    """STR's entry order as the packing once computed it, with ``(x, y)``
    and ``(y, x)`` tuple keys: the oracle of the float-key sorts."""
    page_count = math.ceil(len(entries) / capacity)
    per_slab = math.ceil(math.sqrt(page_count)) * capacity
    by_x = sorted(entries, key=_center)
    order: list[PageEntry] = []
    for start in range(0, len(by_x), per_slab):
        order += sorted(
            by_x[start : start + per_slab], key=lambda entry: _center(entry)[::-1]
        )
    return order


#: Few distinct coordinates, both zeros among them: many equal centres,
#: duplicate boxes, and centres of ``-0.0`` beside ``0.0``.
_coordinate = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0])
_interval = st.lists(_coordinate, min_size=2, max_size=2).map(sorted)
_boxes = st.lists(st.tuples(_interval, _interval), min_size=1, max_size=120)


def _rects(boxes) -> list[Rect]:
    return [
        Rect(x_min, y_min, x_max, y_max) for (x_min, x_max), (y_min, y_max) in boxes
    ]


def _probes(page) -> list[Rect]:
    """Windows that contain the page MBR, miss it, touch its corners and
    edges, and cut through it."""
    x_min, y_min, x_max, y_max = page.mbr().as_tuple()
    return [
        Rect(x_min, y_min, x_max, y_max),
        Rect(x_min - 1.0, y_min - 1.0, x_max + 1.0, y_max + 1.0),
        Rect(x_max + 1.0, y_max + 1.0, x_max + 2.0, y_max + 2.0),
        Rect(x_min - 2.0, y_min, x_min - 1.0, y_max),
        Rect(x_max, y_max, x_max + 1.0, y_max + 1.0),
        Rect(x_min - 1.0, y_min, x_min, y_max),
        Point(x_min, y_max).as_rect(),
        Rect(x_min, y_min, (x_min + x_max) / 2.0, (y_min + y_max) / 2.0),
        Rect(-0.0, -0.0, 0.0, 0.0),
    ]


def _answers(page) -> tuple:
    """What a page answers without its entry objects: matching over every
    probe, the MBR, the five criteria, the slot bytes."""
    return (
        [page.matching(window) for window in _probes(page)],
        page.mbr(),
        {name: SPATIAL_CRITERIA[name](page) for name in sorted(SPATIAL_CRITERIA)},
        encode_page(page, 4096),
    )


def _counting(init, counts: Counter):
    def counted(self, *args, **kwargs):
        counts[type(self).__name__] += 1
        init(self, *args, **kwargs)

    return counted


@pytest.fixture
def constructions(monkeypatch):
    """Counts of ``Rect`` and ``Point`` constructions, by class name."""
    counts: Counter = Counter()
    for cls in (Rect, Point):
        monkeypatch.setattr(cls, "__init__", _counting(cls.__init__, counts))
    return counts


class TestBuildWorkCounts:
    @pytest.mark.parametrize(
        "generate",
        [
            lambda n: us_mainland_like(n, seed=4),
            lambda n: world_atlas_like(n, seed=4),
        ],
        ids=["mainland", "atlas"],
    )
    def test_no_rect_or_point_per_generated_object(self, generate, constructions):
        def built(n_objects):
            constructions.clear()
            generate(n_objects)
            return constructions["Rect"], constructions["Point"]

        rects_one, points_one = built(1)
        rects_many, points_many = built(2_001)
        assert rects_many == rects_one, "no Rect per generated object"
        assert points_many == points_one, "no Point per generated object"

    def test_bulk_load_builds_no_center(self, constructions, monkeypatch):
        # A list of the pairs, built before counting: the view's reads of
        # its coordinate array are not the build's.
        items = list(us_mainland_like(3_000, seed=4).items())
        centers = []
        center = Rect.center

        def counted(rect):
            centers.append(rect)
            return center.fget(rect)

        monkeypatch.setattr(Rect, "center", property(counted))
        constructions.clear()
        tree = RStarTree()
        tree.bulk_load(items)
        assert not centers, "sort keys come from the MBR floats"
        assert constructions["Point"] == 0
        assert constructions["Rect"] <= tree.stats().page_count - 1

    def test_a_dataset_build_makes_no_rect_or_entry(self, constructions, monkeypatch):
        entries = Counter()
        monkeypatch.setattr(
            PageEntry, "__init__", _counting(PageEntry.__init__, entries)
        )
        dataset = us_mainland_like(3_000, seed=4)
        constructions.clear()
        tree = RStarTree()
        tree.bulk_load(dataset.items())
        assert tree.entry_count == 3_000
        assert constructions["Rect"] == constructions["Point"] == 0
        assert not entries, "every page is packed straight into its image"

    def test_live_and_peak_memory_per_object(self):
        """The database keeps one coordinate array and packed pages, and the
        build's high-water mark stays near it: no Rect, PageEntry or float
        object per spatial object, live or transient.  Bytes per object at
        n = 20,000 under tracemalloc, generation, bulk load and places
        included; each bound is 60 % of the figure before (264 live, 276
        peak)."""
        n_objects = 20_000
        tracemalloc.start()
        try:
            database = build_database(us_mainland_like(n_objects, seed=7))
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert database.tree.entry_count == n_objects
        assert live / n_objects <= 158, live / n_objects
        assert peak / n_objects <= 165, peak / n_objects

    @given(_boxes, st.integers(min_value=4, max_value=9))
    def test_float_key_sorts_give_the_tuple_key_order(self, boxes, capacity):
        entries = [
            PageEntry(rect, payload=index) for index, rect in enumerate(_rects(boxes))
        ]
        tree = RStarTree(max_dir_entries=capacity, max_data_entries=capacity)
        tree.bulk_load([(entry.mbr, entry.payload) for entry in entries], fill=1.0)
        disk = tree.pagefile.disk
        for level in range(tree.height):
            pages = [
                page
                for page in map(disk.peek, tree.all_page_ids())
                if page.level == level
            ]
            expected = [entry.payload for entry in _tuple_key_order(entries, capacity)]
            assert [
                entry.payload if level == 0 else entry.child
                for page in pages
                for entry in page.entries
            ] == expected, f"level {level}"
            entries = [PageEntry(page.mbr(), payload=page.page_id) for page in pages]

    def test_items_is_a_lazy_sequence_of_the_pairs(self):
        dataset = us_mainland_like(10, seed=9)
        items = dataset.items()
        pairs = [(rect, index) for index, rect in enumerate(dataset.rects)]
        assert list(items) == pairs
        assert list(items) == pairs, "iterable again"
        assert len(items) == 10
        assert [items[index] for index in range(-10, 10)] == pairs[-10:] + pairs
        for part in (slice(2, 5), slice(-3, None), slice(None, None, -2)):
            assert items[part] == pairs[part]
        with pytest.raises(IndexError):
            items[10]


class TestBuiltPagesArePacked:
    @settings(max_examples=150, deadline=None)
    @given(
        boxes=_boxes,
        capacity=st.integers(min_value=4, max_value=9),
        linked=st.booleans(),
    )
    def test_a_built_page_answers_as_its_unpacked_self(self, boxes, capacity, linked):
        rects = _rects(boxes)
        items = [(rect, index) for index, rect in enumerate(rects)]
        links = {index: 10_000 + index for index in range(0, len(rects), 2)}
        tree = RStarTree(max_dir_entries=capacity, max_data_entries=capacity)
        tree.bulk_load(items, object_pages=links if linked else None)
        for page_id in tree.all_page_ids():
            page = tree.pagefile.disk.peek(page_id)
            packed = _answers(page)
            assert page.image() is not None, "nothing but entries unpacks"
            assert page.entries  # unpacks
            assert page.image() is None
            assert _answers(page) == packed
            boxes_ = [entry.mbr for entry in page.entries]
            assert packed[2]["EA"] == sum(rect.area for rect in boxes_)
            assert packed[2]["EM"] == sum(rect.margin for rect in boxes_)
            assert packed[2]["EO"] == sum(
                a.intersection_area(b)
                for i, a in enumerate(boxes_)
                for b in boxes_[i + 1 :]
            )
        window = Rect(-1.0, -1.0, 0.0, 0.0)
        assert sorted(tree.window_query(window)) == [
            index for rect, index in items if rect.intersects(window)
        ]


class TestBulkLoadInput:
    @pytest.mark.parametrize(
        "payload", ["a", 1.0, -1, (1,), 2**63], ids=["str", "float", "negative", "tuple", "wide"]
    )
    def test_a_payload_the_format_cannot_hold_is_refused(self, payload):
        items = [(Rect(0.0, 0.0, 1.0, 1.0), 0), (Rect(0.0, 0.0, 1.0, 1.0), payload)]
        with pytest.raises(TypeError, match="non-negative int or None"):
            RStarTree().bulk_load(items)

    def test_none_and_int_payloads_round_trip(self):
        tree = RStarTree()
        tree.bulk_load([(Rect(0, 0, 1, 1), None), (Rect(1, 1, 2, 2), 7)])
        assert tree.window_query(Rect(0.0, 0.0, 2.0, 2.0)) == [None, 7]

    @pytest.mark.parametrize("bound", [Fraction(1, 3), 2**53 + 1], ids=["fraction", "wide-int"])
    def test_a_bound_a_double_cannot_hold_is_refused(self, bound):
        with pytest.raises(ValueError, match="not a double"):
            RStarTree().bulk_load([(Rect(0, 0, bound, bound), 0)])
