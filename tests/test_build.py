"""The database build, pinned byte for byte and counted.

Every experiment and benchmark starts from a synthetic dataset packed into an
R*-tree by ``bulk_load``.  The golden tables and traces pin what queries
*read* from such a tree, three layers up; the digests here pin the build
itself: the generated rects and the encoded bytes of every page of an STR
tree over them.  An edit to the generators or the packing that
moves one byte fails here first.

The work counts guard the build's price: one :class:`Rect` per generated
object and no :class:`Point` per object or per sort key.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from collections import Counter

import pytest

from repro.datasets.synthetic import (
    us_mainland_like,
    us_mainland_like_stream,
    world_atlas_like,
)
from repro.geometry.rect import Point, Rect
from repro.sam.rstar import RStarTree
from repro.storage.serialization import encode_page

_RECT = struct.Struct("<4d")
_ID = struct.Struct("<q")


def _mainland() -> list[tuple[Rect, int]]:
    return us_mainland_like(20_000, seed=7).items()


def _atlas() -> list[tuple[Rect, int]]:
    return world_atlas_like(10_000, seed=5).items()


def _stream() -> list[tuple[Rect, int]]:
    chunks = list(us_mainland_like_stream(12_000, seed=3, chunk_size=5_000))
    assert [len(chunk) for chunk in chunks] == [5_000, 5_000, 2_000]
    return [item for chunk in chunks for item in chunk]


def _clipped() -> list[tuple[Rect, int]]:
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
def _items(name: str) -> list[tuple[Rect, int]]:
    return _DATASETS[name]()


def _items_digest(items: list[tuple[Rect, int]]) -> str:
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
        tree.validate()
        assert _tree_digest(tree) == TREE_DIGESTS[name]


@pytest.fixture
def constructions(monkeypatch):
    """Counts of ``Rect`` and ``Point`` constructions, by class name."""
    counts: Counter = Counter()

    def counting(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            counts[cls.__name__] += 1
            init(self, *args, **kwargs)

        return counted

    for cls in (Rect, Point):
        monkeypatch.setattr(cls, "__init__", counting(cls))
    return counts


class TestBuildWorkCounts:
    @pytest.mark.parametrize(
        "generate",
        [
            lambda n: us_mainland_like(n, seed=4),
            lambda n: world_atlas_like(n, seed=4),
            lambda n: list(us_mainland_like_stream(n, seed=4, chunk_size=700)),
        ],
        ids=["mainland", "atlas", "stream"],
    )
    def test_one_rect_per_object_and_no_point(self, generate, constructions):
        def built(n_objects):
            constructions.clear()
            generate(n_objects)
            return constructions["Rect"], constructions["Point"]

        rects_one, points_one = built(1)
        rects_many, points_many = built(2_001)
        assert rects_many - rects_one == 2_000, "one Rect per generated object"
        assert points_many == points_one, "no Point per generated object"

    def test_bulk_load_builds_no_center(self, constructions, monkeypatch):
        items = us_mainland_like(3_000, seed=4).items()
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
        # One MBR per page below the root.
        assert constructions["Rect"] <= tree.stats().page_count - 1
