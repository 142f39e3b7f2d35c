"""The mqr-tree (Moreau & Osborn, "mqr-tree: a 2-dimensional spatial
access method").

The mqr-tree abandons the R-tree's "pack k rectangles per node" layout
for a *two-dimensional node*: every node has five **locations** — NE,
SE, SW, NW and EQ — and an entry lives in the location given by the
spatial relationship between its centroid and the centroid of the
node's MBR.  Because placement follows geometry instead of a packing
heuristic, sibling subtrees occupy *disjoint* quadrants of their
parent's centroid, and node MBRs at equal levels of the tree do not
overlap (for point data; extended objects that straddle a centroid
reduce, rather than eliminate, overlap — exactly the paper's result).

Design notes of this implementation:

* One node is one :class:`~repro.storage.page.Page`.  Locations are
  **derived**, never stored: the location of an entry is recomputed from
  its MBR centroid and the node centroid whenever it is needed, so the
  on-page representation is the same ``PageEntry`` every other index
  uses and the whole storage / WAL / wire stack works unchanged.
* The five centroid relations partition the plane *totally and
  disjointly* (half-open quadrants)::

      EQ: x = cx and y = cy          NE: x >= cx and y > cy
      SE: x > cx and y <= cy         SW: x <= cx and y < cy
      NW: x < cx and y >= cy

* **Insertion** grows the node MBR first, then revalidates: if the
  centroid moved, every entry is re-derived against the new centroid and
  any subnode whose MBR no longer fits its quadrant region undergoes
  **partial extraction** — only the entries that crossed the moved
  centroid line are pulled out and re-placed; subtrees that still fit
  are kept whole.  Only then is the new object placed.
* A location holds at most one subnode.  Two objects colliding in one
  location are pushed into a fresh subnode when their centroids separate
  under the group's own centroid; inseparable groups (duplicate points,
  pathological extended objects) stay in the node as a small bucket, so
  recursion always terminates.
* **Queries** (window and point) traverse by MBR geometry only and
  request every page through the supplied accessor, so the index runs
  unmodified under any buffer manager, the WAL, the server and the
  tuner.  Updates inside :meth:`~repro.sam.base.SpatialIndex.via` are
  charged against the buffer like every other index.

Compared to the R*-tree the nodes are tiny (at most five locations), so
the same dataset produces many more, much smaller pages and a taller
tree — page-reference strings with a structure the R*-tree never
generates, which is what the policy × index experiments need.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.geometry.rect import Point, Rect, mbr_of_rects
from repro.sam.base import PageAccessor, SpatialIndex, TreeStats
from repro.storage.page import Page, PageEntry, PageId, PageType
from repro.storage.pagefile import PageFile

#: The five spatial relationships between an entry centroid and the node
#: centroid.  The order is the paper's clockwise convention.
NE, SE, SW, NW, EQ = range(5)

LOCATION_NAMES = ("NE", "SE", "SW", "NW", "EQ")


def location_of(point: Point, center: Point) -> int:
    """The location of a centroid relative to a node centroid.

    The five relations are half-open so that they partition the plane:
    every centroid derives exactly one location.
    """
    if point.x == center.x and point.y == center.y:
        return EQ
    if point.x >= center.x and point.y > center.y:
        return NE
    if point.x > center.x and point.y <= center.y:
        return SE
    if point.x <= center.x and point.y < center.y:
        return SW
    return NW  # point.x < center.x and point.y >= center.y


def region_contains(location: int, center: Point, mbr: Rect) -> bool:
    """Does ``mbr`` lie fully inside the (half-open) quadrant region?

    The regions of the four compass locations are pairwise disjoint —
    not even boundaries are shared — so subnode MBRs that each fit their
    region cannot overlap at all.  EQ has no region: a subnode deriving
    EQ is always a violation.
    """
    if location == NE:
        return mbr.x_min >= center.x and mbr.y_min > center.y
    if location == SE:
        return mbr.x_min > center.x and mbr.y_max <= center.y
    if location == SW:
        return mbr.x_max <= center.x and mbr.y_max < center.y
    if location == NW:
        return mbr.x_max < center.x and mbr.y_min >= center.y
    return False


def _is_subnode(entry: PageEntry) -> bool:
    return entry.payload is None and entry.child is not None


def _loc(x: float, y: float, cx: float, cy: float) -> int:
    """:func:`location_of` on plain floats (the insertion hot path)."""
    if x == cx and y == cy:
        return EQ
    if x >= cx and y > cy:
        return NE
    if x > cx and y <= cy:
        return SE
    if x <= cx and y < cy:
        return SW
    return NW


def _region_holds(location: int, cx: float, cy: float, mbr: Rect) -> bool:
    """:func:`region_contains` on plain floats (the insertion hot path)."""
    if location == NE:
        return mbr.x_min >= cx and mbr.y_min > cy
    if location == SE:
        return mbr.x_min > cx and mbr.y_max <= cy
    if location == SW:
        return mbr.x_max <= cx and mbr.y_max < cy
    if location == NW:
        return mbr.x_max < cx and mbr.y_min >= cy
    return False


def _separable(entries: list[PageEntry]) -> bool:
    """Would these entries occupy more than one location of a fresh node?

    The test that guarantees termination of subnode creation: a group is
    pushed down only if it spreads over at least two locations under its
    own union centroid, so every recursion level strictly shrinks the
    groups.  Duplicate points (all EQ) and degenerate extended-object
    clusters stay bucketed in place.
    """
    union = mbr_of_rects(entry.mbr for entry in entries)
    cx = (union.x_min + union.x_max) * 0.5
    cy = (union.y_min + union.y_max) * 0.5
    first = -1
    for entry in entries:
        mbr = entry.mbr
        location = _loc(
            (mbr.x_min + mbr.x_max) * 0.5, (mbr.y_min + mbr.y_max) * 0.5, cx, cy
        )
        if first == -1:
            first = location
        elif location != first:
            return True
    return False


class MqrTree(SpatialIndex):
    """An mqr-tree over a page file."""

    def __init__(self, pagefile: PageFile | None = None) -> None:
        super().__init__(pagefile if pagefile is not None else PageFile())
        self.root_id: PageId | None = None
        self.entry_count = 0
        self._page_ids: set[PageId] = set()
        #: Authoritative node MBRs (always equal to the union of the
        #: node's entry MBRs; cached so insertion is O(1) per level).
        self._mbrs: dict[PageId, Rect] = {}
        #: Subtree heights (``Page.level`` mirrors this cache).
        self._levels: dict[PageId, int] = {}

    # ------------------------------------------------------------------
    # Page helpers
    # ------------------------------------------------------------------

    def _new_page(self) -> Page:
        page = self.pagefile.allocate(PageType.DATA, 0)
        self._page_ids.add(page.page_id)
        self._levels[page.page_id] = 0
        self._register_new_page(page)
        return page

    def _drop_page(self, page_id: PageId) -> None:
        self._page_ids.discard(page_id)
        self._mbrs.pop(page_id, None)
        self._levels.pop(page_id, None)
        self._free_page(page_id)

    def _refresh_meta(self, page: Page) -> None:
        """Recompute level (subtree height) and page type from the entries."""
        level = 0
        for entry in page.entries:
            if _is_subnode(entry):
                level = max(level, self._levels[entry.child] + 1)
        page.level = level
        self._levels[page.page_id] = level
        page.page_type = PageType.DATA if level == 0 else PageType.DIRECTORY

    def _slot_of(self, page: Page, location: int) -> list[PageEntry]:
        """The entries currently deriving ``location`` in this node."""
        node_mbr = self._mbrs[page.page_id]
        cx = (node_mbr.x_min + node_mbr.x_max) * 0.5
        cy = (node_mbr.y_min + node_mbr.y_max) * 0.5
        slot = []
        for entry in page.entries:
            mbr = entry.mbr
            if (
                _loc(
                    (mbr.x_min + mbr.x_max) * 0.5,
                    (mbr.y_min + mbr.y_max) * 0.5,
                    cx,
                    cy,
                )
                == location
            ):
                slot.append(entry)
        return slot

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def insert(self, mbr: Rect, payload: Any) -> None:
        """Insert one object with the given MBR."""
        entry = PageEntry(mbr=mbr, payload=payload)
        self.entry_count += 1
        if self.root_id is None:
            root = self._new_page()
            root.entries.append(entry)
            self._mbrs[root.page_id] = mbr
            self.root_id = root.page_id
            self._mark_dirty(root)
            return
        self._insert_into(self.root_id, entry)

    def bulk_load(self, items: Iterable[tuple[Rect, Any]]) -> None:
        """Build the tree by repeated insertion (the mqr-tree has no
        packing algorithm; placement is fully determined by geometry)."""
        for mbr, payload in items:
            self.insert(mbr, payload)

    def _insert_into(self, page_id: PageId, entry: PageEntry) -> None:
        """Insert an object entry under the node ``page_id``.

        The paper's order of operations: grow the node MBR to include
        the object *first*, revalidate the existing entries against the
        moved centroid, and only then place the object.
        """
        page = self._page(page_id)
        old_mbr = self._mbrs[page_id]
        new_mbr = old_mbr.union(entry.mbr)
        if new_mbr != old_mbr:
            self._mbrs[page_id] = new_mbr
            if new_mbr.center != old_mbr.center:
                self._revalidate(page)
        self._place_object(page, entry)
        self._refresh_meta(page)
        self._mark_dirty(page)

    def _place_object(self, page: Page, entry: PageEntry) -> None:
        """Place an object entry in the location its centroid derives.

        Assumes the node MBR already covers the entry.  EQ is a plain
        bucket (objects whose centroid *is* the node centroid cannot be
        pushed down — a fresh subnode would reproduce the collision).
        """
        node_mbr = self._mbrs[page.page_id]
        cx = (node_mbr.x_min + node_mbr.x_max) * 0.5
        cy = (node_mbr.y_min + node_mbr.y_max) * 0.5
        mbr = entry.mbr
        location = _loc(
            (mbr.x_min + mbr.x_max) * 0.5, (mbr.y_min + mbr.y_max) * 0.5, cx, cy
        )
        if location == EQ:
            page.entries.append(entry)
            return
        slot = self._slot_of(page, location)
        for occupant in slot:
            if _is_subnode(occupant):
                # Route into the existing subnode of this quadrant.
                self._insert_into(occupant.child, entry)
                occupant.mbr = self._mbrs[occupant.child]
                return
        if not slot:
            page.entries.append(entry)
            return
        group = slot + [entry]
        if _separable(group):
            for occupant in slot:
                page.entries.remove(occupant)
            page.entries.append(self._build_node(group))
        else:
            page.entries.append(entry)  # inseparable: bucket in place

    def _build_node(self, objects: list[PageEntry]) -> PageEntry:
        """Build a subtree from a batch of object entries; return its entry.

        The node MBR is fixed to the union of the batch before any
        object is placed, so no revalidation can trigger mid-build and
        termination follows from :func:`_separable` alone.
        """
        page = self._new_page()
        union = mbr_of_rects(entry.mbr for entry in objects)
        self._mbrs[page.page_id] = union
        cx = (union.x_min + union.x_max) * 0.5
        cy = (union.y_min + union.y_max) * 0.5
        groups: dict[int, list[PageEntry]] = {}
        for entry in objects:
            mbr = entry.mbr
            location = _loc(
                (mbr.x_min + mbr.x_max) * 0.5,
                (mbr.y_min + mbr.y_max) * 0.5,
                cx,
                cy,
            )
            groups.setdefault(location, []).append(entry)
        for location, group in sorted(groups.items()):
            if location == EQ or len(group) == 1 or not _separable(group):
                page.entries.extend(group)
            else:
                page.entries.append(self._build_node(group))
        self._refresh_meta(page)
        self._mark_dirty(page)
        return PageEntry(mbr=union, child=page.page_id)

    def _revalidate(self, page: Page) -> None:
        """Re-derive every entry after the node centroid moved.

        Subnodes keep their place while their MBR still fits the quadrant
        region of their (re-derived) location.  A subnode that straddles
        the moved centroid undergoes *partial extraction*: only the
        entries of its subtree that crossed the centroid line are pulled
        out and re-placed, intact inner subtrees are pruned from the
        walk.  A subnode that derives EQ or collides with another
        subnode (possible only for extended objects) is dissolved
        entirely.  The node MBR is a fixed point during revalidation (no
        object leaves the node), so this never cascades upward.
        """
        node_mbr = self._mbrs[page.page_id]
        cx = (node_mbr.x_min + node_mbr.x_max) * 0.5
        cy = (node_mbr.y_min + node_mbr.y_max) * 0.5
        entries = page.entries
        page.entries = []
        objects: list[PageEntry] = []
        taken: set[int] = set()
        for entry in entries:
            if not _is_subnode(entry):
                objects.append(entry)
                continue
            mbr = entry.mbr
            location = _loc(
                (mbr.x_min + mbr.x_max) * 0.5,
                (mbr.y_min + mbr.y_max) * 0.5,
                cx,
                cy,
            )
            if location == EQ or location in taken:
                objects.extend(self._dissolve(entry))
                continue
            if not _region_holds(location, cx, cy, mbr):
                replacement = self._extract_outside(
                    entry, location, cx, cy, objects
                )
                if replacement is None:
                    continue
                entry = replacement
            taken.add(location)
            page.entries.append(entry)
        for entry in objects:
            self._place_object(page, entry)
        self._refresh_meta(page)
        self._mark_dirty(page)

    def _extract_outside(
        self,
        entry: PageEntry,
        location: int,
        cx: float,
        cy: float,
        extracted: list[PageEntry],
    ) -> "PageEntry | None":
        """Pull the entries outside ``region(location)`` out of a subtree.

        Appends the extracted object entries to ``extracted`` and returns
        the replacement entry for the (shrunken) subtree — ``None`` when
        nothing remains.  Subtrees already inside the region are kept
        without descending into them; the remaining union is inside the
        region by construction, because quadrant regions are closed
        under the union of contained boxes.
        """
        page = self._page(entry.child)
        kept: list[PageEntry] = []
        for child in page.entries:
            mbr = child.mbr
            if _region_holds(location, cx, cy, mbr):
                kept.append(child)
            elif _is_subnode(child):
                replacement = self._extract_outside(
                    child, location, cx, cy, extracted
                )
                if replacement is not None:
                    kept.append(replacement)
            else:
                extracted.append(child)
        if not kept:
            self._drop_page(page.page_id)
            return None
        if len(kept) == 1 and _is_subnode(kept[0]):
            self._drop_page(page.page_id)
            return kept[0]
        page.entries = kept
        old_mbr = self._mbrs[page.page_id]
        new_mbr = mbr_of_rects(child.mbr for child in kept)
        self._mbrs[page.page_id] = new_mbr
        if new_mbr.center != old_mbr.center:
            self._revalidate(page)
        else:
            self._refresh_meta(page)
            self._mark_dirty(page)
        return PageEntry(mbr=new_mbr, child=page.page_id)

    def _dissolve(self, entry: PageEntry) -> list[PageEntry]:
        """Collect all object entries of a subtree, freeing its pages."""
        collected: list[PageEntry] = []
        stack = [entry.child]
        while stack:
            page_id = stack.pop()
            page = self._page(page_id)
            for child in page.entries:
                if _is_subnode(child):
                    stack.append(child.child)
                else:
                    collected.append(child)
            self._drop_page(page_id)
        return collected

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------

    def delete(self, mbr: Rect, payload: Any) -> bool:
        """Remove the entry with this MBR and payload; True if found."""
        if self.root_id is None:
            return False
        result = self._delete_from(self.root_id, mbr, payload)
        if result is False:
            return False
        self.entry_count -= 1
        if result is None:
            self.root_id = None
        elif result.child != self.root_id:
            # The old root collapsed to a single subnode: hoist it.
            self.root_id = result.child
        return True

    def _delete_from(
        self, page_id: PageId, mbr: Rect, payload: Any
    ) -> "PageEntry | None | bool":
        """Delete under ``page_id``.

        Returns ``False`` when the entry is not in this subtree, ``None``
        when the subtree became empty (page freed), or the replacement
        entry for the subtree — the same node with a fresh MBR, or its
        single remaining subnode hoisted one level up.
        """
        page = self._page(page_id)
        found = False
        for index, entry in enumerate(page.entries):
            if not _is_subnode(entry) and entry.mbr == mbr and entry.payload == payload:
                del page.entries[index]
                found = True
                break
        if not found:
            for index, entry in enumerate(page.entries):
                if not _is_subnode(entry) or not entry.mbr.contains(mbr):
                    continue
                result = self._delete_from(entry.child, mbr, payload)
                if result is False:
                    continue
                if result is None:
                    del page.entries[index]
                else:
                    page.entries[index] = result
                found = True
                break
        if not found:
            return False
        if not page.entries:
            self._drop_page(page_id)
            return None
        old_mbr = self._mbrs[page_id]
        new_mbr = mbr_of_rects(entry.mbr for entry in page.entries)
        self._mbrs[page_id] = new_mbr
        if new_mbr.center != old_mbr.center:
            self._revalidate(page)
        self._refresh_meta(page)
        self._mark_dirty(page)
        if len(page.entries) == 1 and _is_subnode(page.entries[0]):
            hoisted = page.entries[0]
            self._drop_page(page_id)
            return hoisted
        return PageEntry(mbr=new_mbr, child=page_id)

    # ------------------------------------------------------------------
    # Queries — all page requests go through ``accessor``
    # ------------------------------------------------------------------

    def window_query(
        self, window: Rect, accessor: PageAccessor | None = None
    ) -> list[Any]:
        """Payloads of all objects whose MBR intersects the window."""
        if self.root_id is None:
            return []
        accessor = self._accessor_or_build(accessor)
        results: list[Any] = []
        stack: list[PageId] = [self.root_id]
        while stack:
            page = accessor.fetch(stack.pop())
            for entry in page.entries:
                if not entry.mbr.intersects(window):
                    continue
                if _is_subnode(entry):
                    stack.append(entry.child)
                else:
                    results.append(entry.payload)
        return results

    def point_query(
        self, point: Point, accessor: PageAccessor | None = None
    ) -> list[Any]:
        """Payloads of all objects whose MBR contains the point."""
        if self.root_id is None:
            return []
        accessor = self._accessor_or_build(accessor)
        results: list[Any] = []
        stack: list[PageId] = [self.root_id]
        while stack:
            page = accessor.fetch(stack.pop())
            for entry in page.entries:
                if not entry.mbr.contains_point(point):
                    continue
                if _is_subnode(entry):
                    stack.append(entry.child)
                else:
                    results.append(entry.payload)
        return results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> TreeStats:
        directory = 0
        data = 0
        for page_id in self._page_ids:
            if self._levels[page_id] > 0:
                directory += 1
            else:
                data += 1
        height = 0
        if self.root_id is not None:
            height = self._levels[self.root_id] + 1
        return TreeStats(
            page_count=directory + data,
            directory_pages=directory,
            data_pages=data,
            height=height,
            entry_count=self.entry_count,
        )

    def all_page_ids(self) -> list[PageId]:
        return sorted(self._page_ids)

    def validate(self, strict_regions: bool = False) -> None:
        """Check the structural invariants; raises AssertionError on damage.

        Always verified: cached node MBRs equal the union of the entries,
        parent entries carry their child's MBR, levels are exact subtree
        heights, page types match, every object is reachable exactly once.

        ``strict_regions`` additionally asserts the paper's organisation
        for point data: every subnode lies fully inside the (half-open)
        quadrant region of its derived location, at most one subnode per
        location, no subnode derives EQ — which together imply zero
        overlap between node MBRs at equal levels.
        """
        if self.root_id is None:
            assert self.entry_count == 0 and not self._page_ids
            return
        seen_objects = 0
        seen_pages: set[PageId] = set()
        stack: list[tuple[PageId, Rect]] = [
            (self.root_id, self._mbrs[self.root_id])
        ]
        while stack:
            page_id, expected_mbr = stack.pop()
            assert page_id not in seen_pages, f"page {page_id} reached twice"
            seen_pages.add(page_id)
            page = self._page(page_id)
            assert page.entries, f"page {page_id} is empty"
            union = mbr_of_rects(entry.mbr for entry in page.entries)
            assert union == expected_mbr == self._mbrs[page_id], (
                f"page {page_id}: MBR drift (union {union}, cached "
                f"{self._mbrs[page_id]}, expected {expected_mbr})"
            )
            center = union.center
            level = 0
            taken: set[int] = set()
            for entry in page.entries:
                if not _is_subnode(entry):
                    seen_objects += 1
                    continue
                level = max(level, self._levels[entry.child] + 1)
                stack.append((entry.child, entry.mbr))
                if strict_regions:
                    location = location_of(entry.mbr.center, center)
                    assert location != EQ, (
                        f"page {page_id}: subnode {entry.child} derives EQ"
                    )
                    assert location not in taken, (
                        f"page {page_id}: two subnodes in "
                        f"{LOCATION_NAMES[location]}"
                    )
                    taken.add(location)
                    assert region_contains(location, center, entry.mbr), (
                        f"page {page_id}: subnode {entry.child} outside its "
                        f"{LOCATION_NAMES[location]} region"
                    )
            assert self._levels[page_id] == level == page.level, (
                f"page {page_id}: level drift"
            )
            expected_type = PageType.DATA if level == 0 else PageType.DIRECTORY
            assert page.page_type is expected_type
        assert seen_pages == self._page_ids, "page-id set drift"
        assert seen_objects == self.entry_count, (
            f"object count mismatch: {seen_objects} reachable, "
            f"{self.entry_count} recorded"
        )
