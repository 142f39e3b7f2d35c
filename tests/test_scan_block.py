"""The scan block against the obviously-correct walk.

``Page.matching`` and ``Page.mbr`` answer from derived data — a contiguous
block of coordinates on an unpacked page, the slot bytes on a packed one.
Every test here holds those answers to the walk over the entry objects
(:func:`walk`, :func:`walk_query`: the loops the R*-tree ran before the
block existed, kept as the oracle) — per page, per tree, after every kind
of edit, across copies and across threads.
"""

from __future__ import annotations

import contextlib
import copy
import math
import pickle
import random
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro import BufferSystem
from repro.buffer.concurrent import ConcurrentBufferManager
from repro.buffer.frames import Frame
from repro.buffer.manager import BufferManager
from repro.buffer.policies import ASB, LRU, SpatialPolicy, spatial
from repro.geometry import rect as rect_module
from repro.geometry.rect import Point, Rect, mbr_of_rects
from repro.obs.trace import disk_from_catalogue, record_run, record_trace, replay_requests
from repro.sam.rstar import RStarTree
from repro.storage import page as page_module
from repro.storage import serialization
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page, PageEntry, PageType
from repro.storage.serialization import encode_page, read_page
from repro.wal.durable import DurableDisk
from repro.workloads.queries import WindowQuery

PAGE_SIZE = 4096


# ----------------------------------------------------------------------
# The oracle: the entry loops
# ----------------------------------------------------------------------


def walk(page: Page, window: Rect) -> list:
    """``Page.matching`` as the loop over entry objects."""
    if page.level == 0:
        return [e.payload for e in page.entries if e.mbr.intersects(window)]
    return [e.child for e in page.entries if e.mbr.intersects(window)]


def walk_mbr(page: Page) -> Rect | None:
    return mbr_of_rects(e.mbr for e in page.entries) if page.entries else None


def walk_query(tree: RStarTree, meets, accessor) -> list:
    """The R*-tree traversal as it was before ``Page.matching``: payloads of
    the entries whose MBR ``meets``, by the loop over entry objects."""
    if tree.root_id is None:
        return []
    results = []
    stack = [tree.root_id]
    while stack:
        page = accessor.fetch(stack.pop())
        for entry in page.entries:
            if meets(entry.mbr):
                if page.is_leaf:
                    results.append(entry.payload)
                else:
                    stack.append(entry.child)
    return results


def has_block(page: Page) -> bool:
    """A block that passes its stamp is on the page."""
    image = page._packed()
    return page._slot(page.entries if image is None else image)[4] is not None


def frame_of(page: Page) -> Frame:
    """A frame outside any buffer, to compute criteria through."""
    return Frame(page=page, loaded_at=0, last_access=0, last_query=0)


def same_mbr(got: Rect | None, want: Rect | None) -> bool:
    """Equal, NaN bounds included (``nan != nan`` under ``==``)."""
    if got is None or want is None:
        return got is want
    return all(
        a == b or (a != a and b != b)
        for a, b in zip(got.as_tuple(), want.as_tuple())
    )


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

# Few distinct values, so windows touch, share and miss entry bounds.
coordinate = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.sampled_from([-math.inf, math.inf, 0.0, -0.0, 0.5, 1.5, -2.5, 1e-300]),
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)
# What a C double does not hold exactly: these pages must stay block-less.
inexact = st.sampled_from([math.nan, 2**53 + 1, -(2**60) - 1, Fraction(1, 3), 10**400])


def ordered(a, b) -> tuple:
    return (b, a) if a > b else (a, b)


@st.composite
def rects(draw, bound=coordinate) -> Rect:
    x_min, x_max = ordered(draw(bound), draw(bound))
    y_min, y_max = ordered(draw(bound), draw(bound))
    if draw(st.booleans()) and draw(st.booleans()):
        x_max, y_max = x_min, y_min  # degenerate
    return Rect(x_min, y_min, x_max, y_max)


@st.composite
def entries(draw, exact: bool = True) -> PageEntry:
    mbr = draw(rects())
    if not exact and draw(st.booleans()):
        odd = draw(inexact)
        mbr = draw(
            st.sampled_from(
                [
                    Rect(odd, mbr.y_min, odd, mbr.y_max),
                    Rect(mbr.x_min, odd, mbr.x_max, odd),
                ]
            )
        )
    ref = st.one_of(st.none(), st.integers(min_value=0, max_value=99))
    return PageEntry(mbr, draw(ref), draw(ref))


@st.composite
def pages(draw, exact: bool = True, min_size: int = 0) -> Page:
    page_type, level = draw(
        st.sampled_from(
            [
                (PageType.DATA, 0),
                (PageType.DIRECTORY, 1),
                (PageType.DIRECTORY, 3),
                (PageType.OBJECT, -1),
            ]
        )
    )
    listed = draw(st.lists(entries(exact), min_size=min_size, max_size=51))
    return Page(draw(st.integers(0, 9)), page_type, level, listed)


windows = st.one_of(
    rects(),
    rects(st.one_of(coordinate, st.just(math.nan))),
    st.builds(lambda x, y: Point(x, y).as_rect(), coordinate, coordinate),
)


# ----------------------------------------------------------------------
# (a) Per page
# ----------------------------------------------------------------------


class TestPageAgainstTheWalk:
    @settings(max_examples=120, deadline=None)
    @given(page=pages(), first=windows, second=windows)
    def test_matching_and_mbr_before_and_after_the_block_exists(
        self, page, first, second
    ):
        assert not has_block(page)
        assert page.mbr() == walk_mbr(page)
        assert not has_block(page), "mbr() must not build the block"
        assert page.matching(first) == walk(page, first)
        assert has_block(page), "the first scan builds the block"
        assert page.matching(second) == walk(page, second)
        assert page.mbr() == walk_mbr(page)
        assert page._derived_is_exact()

    @settings(max_examples=100, deadline=None)
    @given(page=pages(exact=False), window=windows)
    def test_exact_or_absent(self, page, window):
        """A coordinate a double cannot hold exactly leaves the page
        block-less; its answers still are the walk's."""
        for _ in range(2):
            assert page.matching(window) == walk(page, window)
            assert same_mbr(page.mbr(), walk_mbr(page))

        def a_double_holds(bound) -> bool:
            try:
                return float(bound) == bound  # exact: Python compares the values
            except OverflowError:
                return False

        assert has_block(page) == all(
            a_double_holds(bound)
            for entry in page.entries
            for bound in entry.mbr.as_tuple()
        )

    def test_mbr_keeps_the_first_extreme_object(self):
        """``1`` before ``1.0``, ``0.0`` before ``-0.0``: the bound objects
        are the ones ``mbr_of_rects`` returns, not merely equal ones."""
        page = Page(
            0,
            PageType.DATA,
            0,
            [
                PageEntry(Rect(0.0, 1, 2, 3.0), payload=0),
                PageEntry(Rect(-0.0, 1.0, 2.0, 3), payload=1),
            ],
        )
        want = walk_mbr(page)
        page.matching(Rect(0, 0, 1, 1))
        got = page.mbr()
        assert has_block(page)
        assert [repr(b) for b in got.as_tuple()] == [repr(b) for b in want.as_tuple()]

    @settings(max_examples=100, deadline=None)
    @given(
        page=pages(),
        extra=st.lists(entries(), min_size=1, max_size=3),
        edit=st.sampled_from(["assign", "append", "del", "insert", "extend", "remove"]),
        window=windows,
    )
    def test_stamp_visible_edits_need_no_call(self, page, extra, edit, window):
        page.matching(window)
        if edit == "assign":
            # As long as the list it replaces: only its identity differs.
            page.entries = [
                extra[k % len(extra)] for k in range(len(page.entries))
            ]
        elif edit == "append":
            page.entries.append(extra[0])
        elif edit == "insert":
            page.entries.insert(len(page.entries) // 2, extra[0])
        elif edit == "extend":
            page.entries.extend(extra)
        elif not page.entries:
            return
        elif edit == "del":
            del page.entries[len(page.entries) // 2]
        else:
            page.entries.remove(page.entries[-1])
        assert page.matching(window) == walk(page, window)
        assert page.mbr() == walk_mbr(page)
        assert page._derived_is_exact()

    @settings(max_examples=100, deadline=None)
    @given(
        page=pages(min_size=2),
        other=entries(),
        edit=st.sampled_from(["setitem", "sort", "mbr", "ref"]),
        through=st.sampled_from(["index", "buffer"]),
        window=windows,
    )
    def test_stamp_blind_edits_are_right_after_mark_dirty(
        self, page, other, edit, through, window
    ):
        disk = SimulatedDisk()
        disk.store(page)
        buffer = BufferManager(disk, 2, LRU())
        assert buffer.fetch(page.page_id) is page
        page.matching(window)
        assert has_block(page)
        if edit == "setitem":
            page.entries[0] = other
        elif edit == "sort":
            page.entries.sort(key=lambda e: (e.mbr.x_max, e.mbr.y_max), reverse=True)
        elif edit == "mbr":
            page.entries[0].mbr = other.mbr
        else:
            page.entries[0].payload = page.entries[0].child = 77
        # Same list, same length: the stamp cannot see any of these, and
        # the block now describes the entries as they were.  This call is
        # what makes the answers right again.
        assert has_block(page)
        if through == "index":
            RStarTree()._mark_dirty(page)  # no live accessor needed
        else:
            buffer.mark_dirty(page.page_id)
        assert page._kept is None
        assert page.matching(window) == walk(page, window)
        assert page.mbr() == walk_mbr(page)

    def test_a_block_stored_after_the_edit_it_missed_is_ignored(self, monkeypatch):
        """The one interleaving a lock-free store allows, played out: a
        reader snapshots the entries, a writer edits them in place and
        declares it, and only then does the reader's store land.  The late
        value names the right list at the right length; its version is what
        keeps it from being read.  Played for the scan block, then for a
        spatial criterion."""
        window = Rect(0, 0, 1, 1)

        def three_entry_page():
            return Page(
                0,
                PageType.DATA,
                0,
                [PageEntry(Rect(0, 0, 1, 1), payload=k) for k in range(3)],
            )

        def writers_turn(page):
            """The writer's whole turn, between the snapshot and the store."""
            del page.entries[0]
            page.entries.append(PageEntry(Rect(5, 5, 6, 6), payload=9))
            page.drop_derived()

        page = three_entry_page()
        build = page_module._scan_block

        def interrupted(entries, leaf):
            block = build(entries, leaf)
            monkeypatch.setattr(page_module, "_scan_block", build)
            writers_turn(page)
            return block

        monkeypatch.setattr(page_module, "_scan_block", interrupted)
        assert page.matching(window) == [0, 1, 2]  # the state it snapshot
        assert page._kept[4] is not None and not has_block(page)
        assert page.mbr() == walk_mbr(page)
        assert page.matching(window) == walk(page, window) == [1, 2]
        assert page.mbr() == walk_mbr(page)

        page = three_entry_page()
        area = spatial.SPATIAL_CRITERIA["A"]

        def interrupted_area(of):
            value = area(of)
            monkeypatch.setitem(spatial.SPATIAL_CRITERIA, "A", area)
            writers_turn(page)
            return value

        monkeypatch.setitem(spatial.SPATIAL_CRITERIA, "A", interrupted_area)
        assert spatial.spatial_criterion(frame_of(page), "A") == 1.0
        assert "A" not in page._derived(), "the late criterion is not served"
        assert spatial.spatial_criterion(frame_of(page), "A") == walk_mbr(page).area == 36
        assert page._derived()["A"] == 36 and page._derived_is_exact()

    def test_validate_catches_an_edit_nobody_declared(self):
        """Both kinds of kept value: a scan block, then a criterion on a
        page no query has scanned."""

        def small_tree():
            tree = RStarTree(max_dir_entries=5, max_data_entries=5)
            rng = random.Random(5)
            for payload in range(60):
                x, y = rng.random(), rng.random()
                tree.insert(Rect(x, y, x + 0.02, y + 0.02), payload)
            tree.validate()
            return tree

        tree = small_tree()
        everything = Rect(0.0, 0.0, 2.0, 2.0)
        tree.window_query(everything)
        leaf = next(
            page
            for page in map(tree.pagefile.disk.peek, tree.all_page_ids())
            if page.is_leaf
        )
        leaf.entries[0].payload = 10_000
        with pytest.raises(AssertionError, match="stale derived values"):
            tree.validate()
        assert 10_000 not in tree.window_query(everything)  # what staleness means
        tree._mark_dirty(leaf)
        tree.validate()
        assert 10_000 in tree.window_query(everything)

        tree = small_tree()

        def inside(rect, mbr):
            """Touching none of the bounds of ``mbr``."""
            return (
                mbr.x_min < rect.x_min and rect.x_max < mbr.x_max
                and mbr.y_min < rect.y_min and rect.y_max < mbr.y_max
            )

        leaf, index = next(
            (page, index)
            for page in map(tree.pagefile.disk.peek, tree.all_page_ids())
            if page.is_leaf
            for index, entry in enumerate(page.entries)
            if inside(entry.mbr, walk_mbr(page))
        )
        kept = spatial.spatial_criterion(frame_of(leaf), "EA")
        assert not has_block(leaf) and leaf._derived()["EA"] == kept
        # A point at the entry's centre: the page MBR stays, its EA does not.
        old = leaf.entries[index]
        centre = old.mbr.center
        leaf.entries[index] = PageEntry(centre.as_rect(), payload=old.payload)
        with pytest.raises(AssertionError, match="stale derived values"):
            tree.validate()
        assert spatial.spatial_criterion(frame_of(leaf), "EA") == kept  # staleness
        tree._mark_dirty(leaf)
        tree.validate()
        assert spatial.spatial_criterion(frame_of(leaf), "EA") < kept


# ----------------------------------------------------------------------
# (d) Copies, equality, packed pages
# ----------------------------------------------------------------------


class TestBlockIsDerivedData:
    @given(page=pages(), window=windows)
    @settings(max_examples=50, deadline=None)
    def test_eq_and_repr_ignore_the_block(self, page, window):
        twin = copy.deepcopy(page)
        before = repr(page)
        page.matching(window)
        assert has_block(page) and not has_block(twin)
        assert page == twin
        assert repr(page) == before
        assert "_kept" not in before

    @pytest.mark.parametrize(
        "clone",
        [copy.deepcopy, lambda page: pickle.loads(pickle.dumps(page))],
        ids=["deepcopy", "pickle"],
    )
    @given(page=pages(min_size=1), window=windows)
    @settings(max_examples=40, deadline=None)
    def test_a_copys_block_names_the_copys_own_list(self, clone, page, window):
        page.matching(window)
        twin = clone(page)
        assert twin == page and twin.entries is not page.entries
        kept = twin._kept
        assert kept is None or kept[0] is twin.entries
        # Editing the copy is invisible to the original, and the reverse.
        twin.entries[0] = PageEntry(Rect(-9, -9, 9, 9), 5, 5)
        twin.drop_derived()
        assert twin.matching(window) == walk(twin, window)
        assert page.matching(window) == walk(page, window)

    @given(page=pages(), window=windows)
    @settings(max_examples=60, deadline=None)
    def test_a_packed_page_answers_from_its_image(self, page, window):
        for entry in page.entries:
            # The format holds doubles: int bounds read back as floats.
            entry.mbr = Rect(*map(float, entry.mbr.as_tuple()))
        packed = read_page(encode_page(page, PAGE_SIZE), page.page_id)
        assert not has_block(packed)
        assert packed.matching(window) == walk(page, window)
        assert packed.mbr() == walk_mbr(page)
        assert packed.image() is not None, "scanning must not unpack"
        assert has_block(packed) and packed._derived_is_exact()
        assert packed == page  # unpacks
        assert packed.image() is None
        assert packed.matching(window) == walk(page, window)
        assert has_block(packed)


class TestContainedWindows:
    """A window that contains the page MBR meets every entry, so both scans
    answer it with every ref and no comparison — and must still be the
    walk: boundary-equal and point windows, windows that only touch, and a
    NaN bound that the MBR's ``min``/``max`` can hide."""

    @settings(max_examples=200, deadline=None)
    @given(
        page=pages(min_size=1),
        nan_at=st.none() | st.integers(min_value=0, max_value=50),
        pad=st.sampled_from([0.0, 1e-300, 0.5, math.inf]),
        window=windows,
    )
    def test_both_scans_are_the_walk_on_and_around_the_page_mbr(
        self, page, nan_at, pad, window
    ):
        for entry in page.entries:
            # The format holds doubles: int bounds read back as floats.
            entry.mbr = Rect(*map(float, entry.mbr.as_tuple()))
        if nan_at is not None:
            entry = page.entries[nan_at % len(page.entries)]
            entry.mbr = Rect(math.nan, *entry.mbr.as_tuple()[1:])
        packed = read_page(encode_page(page, PAGE_SIZE), page.page_id)
        mbr = packed.mbr()
        x_min, y_min, x_max, y_max = mbr.as_tuple()
        probes = [
            window,
            mbr,
            Rect(x_min - pad, y_min - pad, x_max + pad, y_max + pad),
            Point(x_min, y_min).as_rect(),
            Point(x_max, y_max).as_rect(),
            Rect(x_min - 1.0, y_min, x_min, y_max),  # touches the left edge
        ]
        for probe in probes:
            want = walk(page, probe)
            assert packed.matching(probe) == want
            assert page.matching(probe) == want
        assert packed.image() is not None, "scanning must not unpack"
        assert has_block(page) == (nan_at is None)


# ----------------------------------------------------------------------
# (b) Per tree
# ----------------------------------------------------------------------

HOSTS = ["build", "buffer", "concurrent"]


class TreeMachine(RuleBasedStateMachine):
    """Inserts, deletes, bulk loads and queries on an R*-tree, on the build
    path or through a buffer, against a brute-force list of the live objects
    and against the entry-loop traversal."""

    @initialize(
        host=st.sampled_from(HOSTS),
        bulk=st.lists(rects(st.floats(0.0, 1.0)), max_size=60),
    )
    def setup(self, host, bulk):
        self.tree = RStarTree(max_dir_entries=5, max_data_entries=5)
        self.live: dict[int, Rect] = dict(enumerate(bulk))
        self.tree.bulk_load(list(zip(bulk, range(len(bulk)))))
        self.counter = len(bulk)
        disk = self.tree.pagefile.disk
        if host == "build":
            self.accessor = None
        elif host == "buffer":
            self.accessor = BufferManager(disk, 6, ASB())
        else:
            self.accessor = ConcurrentBufferManager(disk, 8, LRU, shards=2)

    def via(self):
        if self.accessor is None:
            return contextlib.nullcontext()
        return self.tree.via(self.accessor)

    def reader(self):
        return self.tree._build_accessor if self.accessor is None else self.accessor

    @rule(rect=rects(st.floats(0.0, 1.0)))
    def insert(self, rect):
        with self.via():
            self.tree.insert(rect, self.counter)
        self.live[self.counter] = rect
        self.counter += 1

    @rule(pick=st.randoms(use_true_random=False))
    def delete(self, pick):
        if not self.live:
            return
        payload = pick.choice(sorted(self.live))
        with self.via():
            assert self.tree.delete(self.live.pop(payload), payload)

    @rule(window=rects(st.floats(-0.2, 1.2)))
    def window_query(self, window):
        with self.via():
            got = self.tree.window_query(window)
            want = walk_query(
                self.tree, lambda mbr: mbr.intersects(window), self.reader()
            )
        assert got == want, "same results in the same order as the entry loop"
        assert sorted(got) == sorted(
            payload for payload, rect in self.live.items() if rect.intersects(window)
        )

    @rule(x=st.floats(-0.2, 1.2), y=st.floats(-0.2, 1.2), pick=st.randoms(use_true_random=False))
    def point_query(self, x, y, pick):
        if self.live and pick.random() < 0.5:
            # A corner of a live object: closed rectangles contain it.
            x, y = self.live[pick.choice(sorted(self.live))].as_tuple()[2:]
        point = Point(x, y)
        with self.via():
            got = self.tree.point_query(point)
            want = walk_query(
                self.tree, lambda mbr: mbr.contains_point(point), self.reader()
            )
        assert got == want
        assert sorted(got) == sorted(
            payload for payload, rect in self.live.items() if rect.contains_point(point)
        )

    @invariant()
    def no_stale_block(self):
        with self.via():
            self.tree.validate()


TestTreeMachine = TreeMachine.TestCase
TestTreeMachine.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


# ----------------------------------------------------------------------
# (e) Threads
# ----------------------------------------------------------------------


class TestSharedPageUnderThreads:
    def test_readers_see_a_state_the_page_was_in(self):
        """Eight threads scan one shared page while a ninth edits it the
        way ``repro.sam`` does — a new list, an append, a delete, each
        followed by ``drop_derived`` — at a 1 µs switch interval.  Every
        answer is the walk over a state the page went through between the
        reader's call and its return."""
        rng = random.Random(11)

        def some_entries(count):
            out = []
            for payload in range(count):
                x, y = rng.random(), rng.random()
                out.append(PageEntry(Rect(x, y, x + 0.3, y + 0.3), payload=payload))
            return out

        window = Rect(0.2, 0.2, 0.7, 0.7)
        page = Page(0, PageType.DATA, 0, some_entries(40))
        spare = some_entries(40)
        # version -> answer of the walk in that state; written before the
        # state becomes visible is not possible, so readers bracket.
        answers = {0: walk(page, window)}
        version = [0]
        stop = threading.Event()
        failures: list[str] = []

        def writer():
            local = random.Random(3)
            while not stop.is_set():
                edit = local.randrange(3)
                if edit == 0:
                    fresh = local.sample(spare, local.randrange(1, 40))
                    want = [e.payload for e in fresh if e.mbr.intersects(window)]
                elif edit == 1 or len(page.entries) < 2:
                    fresh = None
                    added = local.choice(spare)
                    want = walk(page, window) + (
                        [added.payload] if added.mbr.intersects(window) else []
                    )
                else:
                    fresh = None
                    added = None
                    want = [
                        e.payload
                        for e in page.entries[1:]
                        if e.mbr.intersects(window)
                    ]
                # Publish the coming state's answer, then make the edit.
                answers[version[0] + 1] = want
                version[0] += 1
                if fresh is not None:
                    page.entries = fresh
                elif added is not None:
                    page.entries.append(added)
                else:
                    del page.entries[0]
                page.drop_derived()

        def reader():
            checked = 0
            while not stop.is_set() or checked < 50:
                low = version[0]
                got = page.matching(window)
                high = version[0]
                # The edit of version v lands after v is published, so the
                # states seen lie in [low - 1, high].
                seen = [answers[v] for v in range(max(low - 1, 0), high + 1)]
                if got not in seen:
                    failures.append(f"{got} not among versions {low - 1}..{high}")
                    stop.set()
                    return
                checked += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader) for _ in range(8)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            stop.wait(timeout=1.5)
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not failures, failures[0]
        assert version[0] > 10, "the writer never ran"
        assert page.matching(window) == walk(page, window)
        assert page._derived_is_exact()


# ----------------------------------------------------------------------
# Work counts (deterministic, no timing)
# ----------------------------------------------------------------------


def query_windows(count: int, seed: int) -> list[Rect]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        x, y = rng.random(), rng.random()
        side = rng.choice([0.01, 0.03, 0.1])
        out.append(Rect(x, y, x + side, y + side))
    return out


@pytest.fixture()
def fresh_tree(small_dataset):
    """Not the session's tree: these tests count block builds."""
    tree = RStarTree(max_dir_entries=16, max_data_entries=12)
    tree.bulk_load(small_dataset.items())
    return tree


def space_of(tree: RStarTree) -> Rect:
    return tree.pagefile.disk.peek(tree.root_id).mbr()


def scaled(window: Rect, space: Rect) -> Rect:
    """A unit-square window mapped into the dataset's space."""
    return Rect(
        space.x_min + window.x_min * space.width,
        space.y_min + window.y_min * space.height,
        space.x_min + min(window.x_max, 1.0) * space.width,
        space.y_min + min(window.y_max, 1.0) * space.height,
    )


class TestWorkCounts:
    @pytest.mark.parametrize("criterion", ["A", "M", "EA"])
    def test_a_page_is_walked_once_however_often_it_is_missed(
        self, criterion, fresh_tree, monkeypatch
    ):
        tree = fresh_tree
        assert not any(
            tree.pagefile.disk.peek(page_id)._kept for page_id in tree.all_page_ids()
        ), "bulk_load builds no block"
        space = space_of(tree)
        queries = [scaled(w, space) for w in query_windows(200, seed=23)]
        capacity = max(4, round(0.05 * len(tree.all_page_ids())))
        counts = Counter()

        def counted(name, call):
            def wrapper(*args):
                counts[name] += 1
                return call(*args)

            return wrapper

        monkeypatch.setattr(
            page_module, "_scan_block", counted("block", page_module._scan_block)
        )
        monkeypatch.setattr(
            page_module, "mbr_of_rects", counted("mbr", rect_module.mbr_of_rects)
        )

        def replay():
            system = BufferSystem.build(
                policy="ASB",
                capacity=capacity,
                disk=tree.pagefile.disk,
                trace=True,
                policy_kwargs={"criterion": criterion, "record_trace": True},
            )
            scanned = set()
            fetch = system.buffer.fetch

            class Noting:
                def fetch(self, page_id):
                    scanned.add(page_id)
                    return fetch(page_id)

            results = []
            for window in queries:
                with system.buffer.query_scope():
                    results.append(tree.window_query(window, Noting()))
            decisions = [
                (e.kind, e.page_id, e.size, e.delta) for e in system.recorder.events
            ]
            return results, decisions, system.stats_snapshot(), scanned

        counts.clear()
        first = replay()
        assert counts["block"] == len(first[3]), "one block per distinct page scanned"
        built = counts["block"]
        counts.clear()
        second = replay()
        assert second[2]["misses"] == first[2]["misses"] > capacity
        assert counts["block"] == 0, "blocks outlive their frames on a SimulatedDisk"
        if criterion != "EA":
            assert counts["mbr"] == 0, "criteria A and M read the block's bounds"
        assert second[:3] == first[:3]

        # The same replay with the traversal put back on the entry loop.
        monkeypatch.setattr(Page, "matching", walk)
        for page_id in tree.all_page_ids():
            tree.pagefile.disk.peek(page_id).drop_derived()
        counts.clear()
        reference = replay()
        assert counts["block"] == 0 and built > 0
        assert reference[0] == first[0], "results, in order"
        assert reference[1] == first[1], "fetch/hit/miss/evict/promote/adapt events"
        assert reference[2] == first[2], "hit, miss, eviction and write-back counts"

    def test_a_pages_criterion_is_computed_once_per_version(
        self, fresh_tree, monkeypatch
    ):
        tree = fresh_tree
        space = space_of(tree)
        queries = [scaled(w, space) for w in query_windows(200, seed=31)]
        capacity = max(4, round(0.05 * len(tree.all_page_ids())))
        computed = Counter()
        area = spatial.SPATIAL_CRITERIA["A"]

        def counted(page):
            computed[page.page_id] += 1
            return area(page)

        monkeypatch.setitem(spatial.SPATIAL_CRITERIA, "A", counted)

        def replay():
            system = BufferSystem.build(
                policy="ASB", capacity=capacity, disk=tree.pagefile.disk
            )
            results = []
            for window in queries:
                with system.buffer.query_scope():
                    results.append(tree.window_query(window, system.buffer))
            return results, system.stats_snapshot()

        first = replay()
        assert first[1]["evictions"] > capacity
        assert computed and max(computed.values()) == 1, "once per page, not per load"
        computed.clear()
        assert replay() == first
        assert not computed, "a page loaded again brings its criterion along"

    def test_a_catalogue_pages_criteria_are_computed_once(
        self, fresh_tree, monkeypatch
    ):
        """A page rebuilt from a recorded trace's catalogue keeps its
        criteria across loads, buffers and policies, as a tree's page does:
        one recorded reference string, replayed twice over one
        ``disk_from_catalogue`` disk with ASB and A, then with EO."""
        tree = fresh_tree
        space = space_of(tree)
        queries = [WindowQuery(scaled(w, space)) for w in query_windows(200, seed=41)]
        capacity = max(4, round(0.05 * len(tree.all_page_ids())))
        recorded = record_run(
            record_trace(tree, queries).references, tree.pagefile.disk, LRU(), capacity
        )
        disk = disk_from_catalogue(recorded.catalogue)
        requests = recorded.requests()
        computed = Counter()
        mbrs = []
        for name in ("A", "EO"):
            criterion = spatial.SPATIAL_CRITERIA[name]

            def counted(page, name=name, criterion=criterion):
                computed[page.page_id, name] += 1
                return criterion(page)

            monkeypatch.setitem(spatial.SPATIAL_CRITERIA, name, counted)

        def counted_mbr(rects):
            mbrs.append(1)
            return rect_module.mbr_of_rects(rects)

        monkeypatch.setattr(page_module, "mbr_of_rects", counted_mbr)

        def replay():
            stats = []
            for policy in (ASB(), SpatialPolicy("A"), SpatialPolicy("EO")):
                buffer = replay_requests(disk, requests, policy, capacity)
                stats.append(buffer.stats.snapshot())
            return stats

        first = replay()
        assert min(stats["evictions"] for stats in first) > capacity
        assert {name for _, name in computed} == {"A", "EO"}
        assert max(computed.values()) == 1, "once per page version, not per load"
        once = dict(computed)
        mbrs.clear()
        assert replay() == first
        assert computed == once, "a page loaded again brings its criteria along"
        assert not mbrs, "nor does it recompute its MBR"

    def test_a_seam_free_miss_never_enters_the_reference_path(
        self, fresh_tree, monkeypatch
    ):
        tree = fresh_tree
        space = space_of(tree)
        queries = [scaled(w, space) for w in query_windows(50, seed=37)]
        capacity = max(4, round(0.05 * len(tree.all_page_ids())))
        entered = Counter()
        reference = BufferManager.complete_miss

        def counted(buffer, page):
            entered[buffer.observer is not None] += 1
            return reference(buffer, page)

        monkeypatch.setattr(BufferManager, "complete_miss", counted)
        stats = {}
        for observed in (False, True):
            system = BufferSystem.build(
                policy="ASB", capacity=capacity, disk=tree.pagefile.disk, trace=observed
            )
            for window in queries:
                with system.buffer.query_scope():
                    tree.window_query(window, system.buffer)
            stats[observed] = system.stats_snapshot()
        assert stats[False] == stats[True] and stats[False]["misses"] > capacity
        assert entered[False] == 0, "the compiled path serves every seam-free miss"
        assert entered[True] == stats[True]["misses"]


class TestPackedPagesAreScannedInPlace:
    def test_a_traversal_over_a_byte_medium_builds_no_entry_object(
        self, fresh_tree, monkeypatch
    ):
        tree = fresh_tree
        memory = tree.pagefile.disk
        durable = DurableDisk(page_size=PAGE_SIZE)
        for page_id in tree.all_page_ids():
            durable.store(memory.peek(page_id))
        space = space_of(tree)
        queries = [scaled(w, space) for w in query_windows(200, seed=29)]
        capacity = max(4, round(0.05 * len(tree.all_page_ids())))

        unpacks = Counter()
        original = serialization.PageImage.entries

        def counted(image):
            unpacks["unpack"] += 1
            return original(image)

        monkeypatch.setattr(serialization.PageImage, "entries", counted)

        def replay(disk):
            system = BufferSystem.build(
                policy="ASB", capacity=capacity, disk=disk, page_size=PAGE_SIZE
            )
            results = []
            for window in queries:
                with system.buffer.query_scope():
                    results.append(tree.window_query(window, system.buffer))
            return results, system

        from_bytes, system = replay(durable)
        assert unpacks["unpack"] == 0
        assert system.buffer.stats.misses > capacity
        assert all(
            frame.page.image() is not None for frame in system.buffer.frames.values()
        )
        from_objects, _ = replay(memory)
        assert from_bytes == from_objects
        assert sum(map(len, from_bytes)) > 0
