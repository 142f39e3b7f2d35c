"""The R*-tree (Beckmann, Kriegel, Schneider, Seeger 1990).

The paper's databases are managed by R*-trees (maximum 51 entries per
directory page and 42 per data page for database 1), so this is the primary
spatial access method of the reproduction.  The implementation covers the
full algorithm suite:

* **ChooseSubtree** with minimum overlap enlargement at the leaf level and
  minimum area enlargement above it;
* **forced reinsertion** (30 % of the entries, once per level and insertion);
* the **R\\* split** (margin-driven axis choice, overlap-driven distribution
  choice);
* **deletion** with tree condensation and re-insertion of orphaned entries;
* **STR bulk loading** for building large trees quickly with a controlled
  storage utilisation (used by the experiment harness to build paper-scale
  trees in reasonable time).

Construction operates directly on the page file (unaccounted: the paper
clears the buffer before the measured query phase); queries request every
page through the supplied accessor, normally a buffer manager.
"""

from __future__ import annotations

import functools
import heapq
import math
from typing import Any, Iterable

from repro.geometry.rect import Point, Rect, mbr_of_rects
from repro.sam.base import PageAccessor, SpatialIndex, TreeStats
from repro.storage.page import Page, PageEntry, PageId, PageType
from repro.storage.pagefile import PageFile


@functools.cache
def _numpy():
    """numpy, or ``None`` where it is not installed: optional acceleration
    of single inserts; the library itself has no hard dependencies.

    Imported on first use.  A process that only reads or bulk-loads — the
    page server, every ``bench/run.py`` workload — never pays its 13 MB of
    resident memory and 150 ms of import.
    """
    try:
        import numpy
    except ImportError:  # pragma: no cover - exercised on numpy-free installs
        return None
    return numpy


def _choose_subtree_leaf_numpy(entries: list["PageEntry"], mbr: Rect) -> int | None:
    """Vectorised leaf-level ChooseSubtree; ``None`` without numpy.

    Computes, for every candidate entry, the summed overlap with all other
    entries before and after enlarging it by ``mbr`` — the same key the
    scalar loop builds, evaluated as matrix operations.
    """
    _np = _numpy()
    if _np is None:
        return None
    boxes = _np.array(
        [(e.mbr.x_min, e.mbr.y_min, e.mbr.x_max, e.mbr.y_max) for e in entries]
    )
    n = len(entries)
    enlarged = boxes.copy()
    enlarged[:, 0] = _np.minimum(enlarged[:, 0], mbr.x_min)
    enlarged[:, 1] = _np.minimum(enlarged[:, 1], mbr.y_min)
    enlarged[:, 2] = _np.maximum(enlarged[:, 2], mbr.x_max)
    enlarged[:, 3] = _np.maximum(enlarged[:, 3], mbr.y_max)

    def pairwise_overlap(lhs: "_np.ndarray") -> "_np.ndarray":
        width = _np.minimum(lhs[:, None, 2], boxes[None, :, 2]) - _np.maximum(
            lhs[:, None, 0], boxes[None, :, 0]
        )
        height = _np.minimum(lhs[:, None, 3], boxes[None, :, 3]) - _np.maximum(
            lhs[:, None, 1], boxes[None, :, 1]
        )
        overlap = _np.clip(width, 0.0, None) * _np.clip(height, 0.0, None)
        _np.fill_diagonal(overlap, 0.0)
        return overlap.sum(axis=1)

    overlap_before = pairwise_overlap(boxes)
    overlap_after = pairwise_overlap(enlarged)
    areas = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    enlarged_areas = (enlarged[:, 2] - enlarged[:, 0]) * (
        enlarged[:, 3] - enlarged[:, 1]
    )
    keys = list(
        zip(overlap_after - overlap_before, enlarged_areas - areas, areas)
    )
    best = min(range(n), key=lambda i: keys[i])
    return best


class RStarTree(SpatialIndex):
    """An R*-tree over a page file."""

    def __init__(
        self,
        pagefile: PageFile | None = None,
        max_dir_entries: int = 51,
        max_data_entries: int = 42,
        min_fill: float = 0.4,
        reinsert_fraction: float = 0.3,
    ) -> None:
        super().__init__(pagefile if pagefile is not None else PageFile())
        if max_dir_entries < 4 or max_data_entries < 4:
            raise ValueError("R*-tree nodes need a capacity of at least 4")
        if not 0.0 < min_fill <= 0.5:
            raise ValueError("min_fill must be in (0, 0.5]")
        self.max_dir_entries = max_dir_entries
        self.max_data_entries = max_data_entries
        self.min_dir_entries = max(2, int(round(min_fill * max_dir_entries)))
        self.min_data_entries = max(2, int(round(min_fill * max_data_entries)))
        self.reinsert_fraction = reinsert_fraction
        self.root_id: PageId | None = None
        self.height = 0  # number of levels; 1 == a single leaf root
        self.entry_count = 0
        self._page_ids: set[PageId] = set()
        # Levels that already used forced reinsertion during the current
        # insertion ("the first overflow treatment on each level").
        self._reinserted_levels: set[int] = set()
        # Entries waiting for (re-)insertion as (entry, target_level) pairs.
        self._pending: list[tuple[PageEntry, int]] = []

    # ------------------------------------------------------------------
    # Page helpers
    # ------------------------------------------------------------------

    def _new_page(self, level: int) -> Page:
        page_type = PageType.DATA if level == 0 else PageType.DIRECTORY
        page = self.pagefile.allocate(page_type, level)
        self._page_ids.add(page.page_id)
        self._register_new_page(page)
        return page

    def _max_entries(self, level: int) -> int:
        return self.max_data_entries if level == 0 else self.max_dir_entries

    def _min_entries(self, level: int) -> int:
        return self.min_data_entries if level == 0 else self.min_dir_entries

    def _root(self) -> Page:
        if self.root_id is None:
            raise RuntimeError("the tree is empty")
        return self._page(self.root_id)

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def insert(self, mbr: Rect, payload: Any, object_page: PageId | None = None) -> None:
        """Insert one object.

        ``object_page`` optionally links the data entry to an object page
        holding the exact representation (Section 2.1's third category).
        """
        entry = PageEntry(mbr=mbr, child=object_page, payload=payload)
        self.entry_count += 1
        if self.root_id is None:
            root = self._new_page(level=0)
            root.entries.append(entry)
            self.root_id = root.page_id
            self.height = 1
            return
        self._reinserted_levels = set()
        self._pending = [(entry, 0)]
        while self._pending:
            pending_entry, target_level = self._pending.pop()
            self._insert_at_level(pending_entry, target_level)

    def _insert_at_level(self, entry: PageEntry, target_level: int) -> None:
        root = self._root()
        split = self._insert_recursive(root, root.level, entry, target_level)
        if split is not None:
            self._grow_root(split)

    def _grow_root(self, split_entry: PageEntry) -> None:
        old_root = self._root()
        new_root = self._new_page(level=old_root.level + 1)
        old_mbr = old_root.mbr()
        assert old_mbr is not None
        new_root.entries.append(PageEntry(mbr=old_mbr, child=old_root.page_id))
        new_root.entries.append(split_entry)
        self.root_id = new_root.page_id
        self.height += 1

    def _insert_recursive(
        self, node: Page, level: int, entry: PageEntry, target_level: int
    ) -> PageEntry | None:
        """Insert ``entry`` under ``node``; return a split entry if any."""
        if level == target_level:
            node.entries.append(entry)
            self._mark_dirty(node)
        else:
            index = self._choose_subtree(node, entry.mbr)
            child_entry = node.entries[index]
            child = self._page(child_entry.child)  # type: ignore[arg-type]
            split = self._insert_recursive(child, level - 1, entry, target_level)
            child_mbr = child.mbr()
            assert child_mbr is not None
            node.entries[index] = PageEntry(
                mbr=child_mbr, child=child_entry.child, payload=child_entry.payload
            )
            if split is not None:
                node.entries.append(split)
            self._mark_dirty(node)
        if len(node.entries) > self._max_entries(level):
            return self._overflow_treatment(node, level)
        return None

    def _choose_subtree(self, node: Page, mbr: Rect) -> int:
        """R* ChooseSubtree: index of the child entry to descend into."""
        entries = node.entries
        if node.level == 1:
            # Children are leaves: minimise overlap enlargement, resolve
            # ties by area enlargement, then by area.  The pairwise overlap
            # scan is O(M^2); with the paper's fanout of 51 it dominates
            # insertion cost, so a vectorised path is used when numpy is
            # available (pure-Python fallback below is exact-equivalent).
            if len(entries) >= 8:
                vectorised = _choose_subtree_leaf_numpy(entries, mbr)
                if vectorised is not None:
                    return vectorised
            best_index = 0
            best_key: tuple[float, float, float] | None = None
            for i, candidate in enumerate(entries):
                enlarged = candidate.mbr.union(mbr)
                overlap_before = 0.0
                overlap_after = 0.0
                for j, other in enumerate(entries):
                    if i == j:
                        continue
                    overlap_before += candidate.mbr.intersection_area(other.mbr)
                    overlap_after += enlarged.intersection_area(other.mbr)
                key = (
                    overlap_after - overlap_before,
                    enlarged.area - candidate.mbr.area,
                    candidate.mbr.area,
                )
                if best_key is None or key < best_key:
                    best_key = key
                    best_index = i
            return best_index
        # Children are directory pages: minimise area enlargement, then area.
        best_index = 0
        best_key2: tuple[float, float] | None = None
        for i, candidate in enumerate(entries):
            key2 = (candidate.mbr.enlargement(mbr), candidate.mbr.area)
            if best_key2 is None or key2 < best_key2:
                best_key2 = key2
                best_index = i
        return best_index

    # ------------------------------------------------------------------
    # Overflow treatment: forced reinsert or split
    # ------------------------------------------------------------------

    def _overflow_treatment(self, node: Page, level: int) -> PageEntry | None:
        is_root = node.page_id == self.root_id
        first_on_level = level not in self._reinserted_levels
        if not is_root and first_on_level and self.reinsert_fraction > 0.0:
            self._reinserted_levels.add(level)
            self._force_reinsert(node, level)
            return None
        return self._split(node, level)

    def _force_reinsert(self, node: Page, level: int) -> None:
        """Remove the entries farthest from the node centre and re-queue them.

        R* reinserts p = 30 % of the M+1 entries, sorted by the distance of
        their centre from the centre of the node MBR; the farthest entries
        are removed and reinserted closest-first ("close reinsert").
        """
        count = max(1, int(round(self.reinsert_fraction * len(node.entries))))
        node_mbr = node.mbr()
        assert node_mbr is not None
        center = node_mbr.center
        by_distance = sorted(
            node.entries,
            key=lambda e: e.mbr.center.distance_to(center),
        )
        keep = by_distance[: len(node.entries) - count]
        reinsert = by_distance[len(node.entries) - count :]
        node.entries = keep
        self._mark_dirty(node)
        # Push farthest first so the pending stack pops closest first.
        for entry in reversed(reinsert):
            self._pending.append((entry, level))

    # ------------------------------------------------------------------
    # The R* split
    # ------------------------------------------------------------------

    def _split(self, node: Page, level: int) -> PageEntry:
        """Split an overflowing node in place; return the new sibling entry."""
        group_a, group_b = self._choose_split(node.entries, self._min_entries(level))
        sibling = self._new_page(level)
        node.entries = group_a
        sibling.entries = group_b
        self._mark_dirty(node)
        sibling_mbr = sibling.mbr()
        assert sibling_mbr is not None
        return PageEntry(mbr=sibling_mbr, child=sibling.page_id)

    def _choose_split(
        self, entries: list[PageEntry], min_entries: int
    ) -> tuple[list[PageEntry], list[PageEntry]]:
        """ChooseSplitAxis + ChooseSplitIndex of the R*-tree."""
        total = len(entries)
        # Distributions split after (m-1+k) entries with k = 1..(M-2m+2);
        # both groups then hold at least m entries (total = M+1).
        max_k = total - 2 * min_entries + 1
        if max_k < 1:
            # Degenerate capacity; fall back to an even split by x-order.
            ordered = sorted(entries, key=lambda e: (e.mbr.x_min, e.mbr.x_max))
            half = total // 2
            return ordered[:half], ordered[half:]

        def distributions(sort_key) -> Iterable[tuple[list[PageEntry], list[PageEntry]]]:
            ordered = sorted(entries, key=sort_key)
            for k in range(1, max_k + 1):
                split_at = min_entries - 1 + k
                yield ordered[:split_at], ordered[split_at:]

        sort_keys = {
            "x": [
                lambda e: (e.mbr.x_min, e.mbr.x_max),
                lambda e: (e.mbr.x_max, e.mbr.x_min),
            ],
            "y": [
                lambda e: (e.mbr.y_min, e.mbr.y_max),
                lambda e: (e.mbr.y_max, e.mbr.y_min),
            ],
        }
        # ChooseSplitAxis: minimise the summed margin over all distributions.
        best_axis = "x"
        best_margin_sum = math.inf
        for axis, keys in sort_keys.items():
            margin_sum = 0.0
            for key in keys:
                for group_a, group_b in distributions(key):
                    margin_sum += (
                        mbr_of_rects(e.mbr for e in group_a).margin
                        + mbr_of_rects(e.mbr for e in group_b).margin
                    )
            if margin_sum < best_margin_sum:
                best_margin_sum = margin_sum
                best_axis = axis
        # ChooseSplitIndex: minimise overlap, then total area.
        best_split: tuple[list[PageEntry], list[PageEntry]] | None = None
        best_key: tuple[float, float] | None = None
        for key_fn in sort_keys[best_axis]:
            for group_a, group_b in distributions(key_fn):
                mbr_a = mbr_of_rects(e.mbr for e in group_a)
                mbr_b = mbr_of_rects(e.mbr for e in group_b)
                candidate_key = (
                    mbr_a.intersection_area(mbr_b),
                    mbr_a.area + mbr_b.area,
                )
                if best_key is None or candidate_key < best_key:
                    best_key = candidate_key
                    best_split = (list(group_a), list(group_b))
        assert best_split is not None
        return best_split

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------

    def delete(self, mbr: Rect, payload: Any) -> bool:
        """Remove the entry with this MBR and payload; True if found."""
        if self.root_id is None:
            return False
        path = self._find_leaf_path(self._root(), mbr, payload)
        if path is None:
            return False
        leaf = path[-1][0]
        for i, entry in enumerate(leaf.entries):
            if entry.payload == payload and entry.mbr == mbr:
                del leaf.entries[i]
                break
        self._mark_dirty(leaf)
        self.entry_count -= 1
        self._condense(path)
        return True

    def _find_leaf_path(
        self, node: Page, mbr: Rect, payload: Any
    ) -> list[tuple[Page, int]] | None:
        """Path of (page, index-in-parent) ending at the leaf holding the entry.

        The root's parent index is -1.
        """
        stack: list[list[tuple[Page, int]]] = [[(node, -1)]]
        while stack:
            path = stack.pop()
            page, _ = path[-1]
            if page.is_leaf:
                for entry in page.entries:
                    if entry.payload == payload and entry.mbr == mbr:
                        return path
                continue
            for i, entry in enumerate(page.entries):
                if entry.mbr.contains(mbr):
                    child = self._page(entry.child)  # type: ignore[arg-type]
                    stack.append(path + [(child, i)])
        return None

    def _condense(self, path: list[tuple[Page, int]]) -> None:
        """CondenseTree: dissolve underfull nodes, re-insert their entries."""
        orphans: list[tuple[PageEntry, int]] = []
        for depth in range(len(path) - 1, 0, -1):
            page, parent_index = path[depth]
            parent = path[depth - 1][0]
            if len(page.entries) < self._min_entries(page.level):
                del parent.entries[parent_index]
                self._mark_dirty(parent)
                # Later siblings shifted left; fix indexes recorded deeper in
                # the path is unnecessary since we walk bottom-up and each
                # index refers to its own parent, captured before mutation.
                for entry in page.entries:
                    orphans.append((entry, page.level))
                self._page_ids.discard(page.page_id)
                self._free_page(page.page_id)
            else:
                child_mbr = page.mbr()
                assert child_mbr is not None
                old = parent.entries[parent_index]
                parent.entries[parent_index] = PageEntry(
                    mbr=child_mbr, child=old.child, payload=old.payload
                )
                self._mark_dirty(parent)
        self._shrink_root()
        if orphans:
            self._reinserted_levels = set(range(self.height))  # splits only
            for entry, level in orphans:
                self._pending.append((entry, level))
            while self._pending:
                entry, level = self._pending.pop()
                if level >= self.height:
                    # The tree shrank below the orphan's level; re-insert its
                    # descendants' data entries instead.
                    for data_entry in self._collect_data_entries(entry):
                        self._pending.append((data_entry, 0))
                    continue
                self._insert_at_level(entry, level)
        self._shrink_root()

    def _collect_data_entries(self, entry: PageEntry) -> list[PageEntry]:
        if entry.child is None or entry.payload is not None:
            return [entry]
        collected: list[PageEntry] = []
        stack = [entry]
        while stack:
            current = stack.pop()
            if current.child is not None and current.payload is None:
                page = self._page(current.child)
                if page.page_type is PageType.OBJECT:
                    collected.append(current)
                    continue
                stack.extend(page.entries)
                self._page_ids.discard(page.page_id)
                self._free_page(page.page_id)
            else:
                collected.append(current)
        return collected

    def _shrink_root(self) -> None:
        while self.root_id is not None:
            root = self._root()
            if root.is_leaf:
                if not root.entries:
                    self._page_ids.discard(root.page_id)
                    self._free_page(root.page_id)
                    self.root_id = None
                    self.height = 0
                return
            if len(root.entries) == 1:
                child_id = root.entries[0].child
                assert child_id is not None
                self._page_ids.discard(root.page_id)
                self._free_page(root.page_id)
                self.root_id = child_id
                self.height -= 1
            else:
                return

    # ------------------------------------------------------------------
    # Bulk loading (Sort-Tile-Recursive)
    # ------------------------------------------------------------------

    def bulk_load(
        self,
        items: Iterable[tuple[Rect, Any]],
        fill: float = 0.7,
        object_pages: dict[Any, PageId] | None = None,
        method: str = "str",
    ) -> None:
        """Build the tree bottom-up with STR or Hilbert packing.

        ``fill`` controls storage utilisation: the paper's database 1 holds
        1,641,079 entries in 56,745 data pages, i.e. ~69 % of the 42-entry
        capacity, so 0.7 is the default.  ``object_pages`` optionally maps
        payloads to the object pages holding their exact representation
        (see :mod:`repro.storage.objects`).  ``method`` selects the packing
        order: ``"str"`` (Sort-Tile-Recursive) or ``"hilbert"`` (Kamel &
        Faloutsos' Hilbert packing).  Only valid on an empty tree.
        """
        if self.root_id is not None:
            raise RuntimeError("bulk_load() requires an empty tree")
        if not 0.0 < fill <= 1.0:
            raise ValueError("fill must be in (0, 1]")
        if method not in ("str", "hilbert"):
            raise ValueError("method must be 'str' or 'hilbert'")
        item_list = list(items)
        if not item_list:
            return
        self.entry_count = len(item_list)
        links = object_pages or {}
        entries = [
            PageEntry(mbr=mbr, payload=payload, child=links.get(payload))
            for mbr, payload in item_list
        ]
        level = 0
        while True:
            capacity = max(2, int(self._max_entries(level) * fill))
            if method == "hilbert":
                pages = self._hilbert_pack(entries, level, capacity)
            else:
                pages = self._str_pack(entries, level, capacity)
            if len(pages) == 1:
                self.root_id = pages[0].page_id
                self.height = level + 1
                return
            entries = []
            for page in pages:
                page_mbr = page.mbr()
                assert page_mbr is not None
                entries.append(PageEntry(mbr=page_mbr, child=page.page_id))
            level += 1

    def _str_pack(
        self, entries: list[PageEntry], level: int, capacity: int
    ) -> list[Page]:
        """Pack entries into pages of one level using Sort-Tile-Recursive."""
        page_count = math.ceil(len(entries) / capacity)
        slab_count = math.ceil(math.sqrt(page_count))
        per_slab = slab_count * capacity
        by_x = sorted(entries, key=lambda e: (e.mbr.center.x, e.mbr.center.y))
        pages: list[Page] = []
        for slab_start in range(0, len(by_x), per_slab):
            slab = by_x[slab_start : slab_start + per_slab]
            slab.sort(key=lambda e: (e.mbr.center.y, e.mbr.center.x))
            for page_start in range(0, len(slab), capacity):
                page = self._new_page(level)
                page.entries = slab[page_start : page_start + capacity]
                pages.append(page)
        self._rebalance_tail(pages, level)
        return pages

    def _hilbert_pack(
        self, entries: list[PageEntry], level: int, capacity: int
    ) -> list[Page]:
        """Pack entries into pages of one level in Hilbert-curve order."""
        from repro.geometry.hilbert import hilbert_encode

        space = mbr_of_rects(e.mbr for e in entries)
        if space.area == 0.0:
            space = Rect(
                space.x_min, space.y_min, space.x_min + 1.0, space.y_min + 1.0
            )
        ordered = sorted(
            entries, key=lambda e: hilbert_encode(e.mbr.center, space)
        )
        pages: list[Page] = []
        for start in range(0, len(ordered), capacity):
            page = self._new_page(level)
            page.entries = ordered[start : start + capacity]
            pages.append(page)
        self._rebalance_tail(pages, level)
        return pages

    def _rebalance_tail(self, pages: list[Page], level: int) -> None:
        """Redistribute trailing entries so no page violates the minimum fill.

        STR packing can leave a short tail page (e.g. 12 directory entries
        packed 5+5+2 with a minimum of 3).  Pool pages from the end until an
        even redistribution satisfies the minimum, then re-chunk.
        """
        min_entries = self._min_entries(level)
        if len(pages) < 2 or len(pages[-1].entries) >= min_entries:
            return
        pooled_pages = [pages.pop()]
        pooled: list[PageEntry] = list(pooled_pages[0].entries)
        while pages and len(pooled) < min_entries * len(pooled_pages):
            donor = pages.pop()
            pooled_pages.append(donor)
            pooled = list(donor.entries) + pooled
        chunk_count = len(pooled_pages)
        base = len(pooled) // chunk_count
        remainder = len(pooled) % chunk_count
        position = 0
        # Refill the pooled pages in their original (front-to-back) order.
        for index, page in enumerate(reversed(pooled_pages)):
            size = base + (1 if index < remainder else 0)
            page.entries = pooled[position : position + size]
            position += size
            pages.append(page)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def window_query(
        self,
        window: Rect,
        accessor: PageAccessor | None = None,
        fetch_objects: bool = False,
    ) -> list[Any]:
        """Payloads of all objects whose MBR intersects the window."""
        if self.root_id is None:
            return []
        accessor = self._accessor_or_build(accessor)
        results: list[Any] = []
        stack: list[PageId] = [self.root_id]
        while stack:
            page = accessor.fetch(stack.pop())
            if not page.is_leaf:
                stack.extend(page.matching(window))
            elif fetch_objects:
                # The one caller that needs a leaf entry's payload and child.
                for entry in page.entries:
                    if entry.mbr.intersects(window):
                        results.append(entry.payload)
                        if entry.child is not None:
                            accessor.fetch(entry.child)
            else:
                results.extend(page.matching(window))
        return results

    def point_query(
        self,
        point: Point,
        accessor: PageAccessor | None = None,
        fetch_objects: bool = False,
    ) -> list[Any]:
        """Payloads of all objects whose MBR contains the point.

        Rectangles are closed, so this is the window query of the
        degenerate window: the same four comparisons per entry.
        """
        return self.window_query(point.as_rect(), accessor, fetch_objects)

    def knn(
        self, point: Point, k: int, accessor: PageAccessor | None = None
    ) -> list[Any]:
        """The k objects with the smallest MINDIST to ``point``.

        Best-first search (Hjaltason/Samet): the priority queue holds
        *deferred* page references ordered by MINDIST; a page is fetched
        only when its queue entry is popped, so subtrees farther than the
        k-th best object are never read.
        """
        if self.root_id is None or k < 1:
            return []
        accessor = self._accessor_or_build(accessor)
        counter = 0  # tie-breaker to keep heap entries comparable
        # Heap items: (distance, counter, is_object, payload-or-page-id).
        heap: list[tuple[float, int, bool, Any]] = [
            (0.0, counter, False, self.root_id)
        ]
        results: list[Any] = []
        while heap and len(results) < k:
            distance, _, is_object, item = heapq.heappop(heap)
            if is_object:
                results.append(item)
                continue
            page = accessor.fetch(item)
            for entry in page.entries:
                counter += 1
                entry_distance = entry.mbr.min_distance_to_point(point)
                if page.is_leaf:
                    heapq.heappush(
                        heap, (entry_distance, counter, True, entry.payload)
                    )
                else:
                    heapq.heappush(
                        heap, (entry_distance, counter, False, entry.child)
                    )
        return results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> TreeStats:
        directory = 0
        data = 0
        for page_id in self._page_ids:
            page = self._page(page_id)
            if page.page_type is PageType.DIRECTORY:
                directory += 1
            else:
                data += 1
        return TreeStats(
            page_count=directory + data,
            directory_pages=directory,
            data_pages=data,
            height=self.height,
            entry_count=self.entry_count,
        )

    def all_page_ids(self) -> list[PageId]:
        return sorted(self._page_ids)

    def validate(self) -> None:
        """Check the structural invariants; raises AssertionError on damage.

        Verified invariants: every directory entry's MBR equals its child's
        MBR; levels decrease by one on the way down; leaves are at level 0;
        nodes except the root respect the minimum fill; the recorded entry
        count matches the leaves; no page carries a stale scan block (an
        in-place edit that was not followed by ``_mark_dirty``).
        """
        if self.root_id is None:
            assert self.height == 0 and self.entry_count == 0
            return
        seen_entries = 0
        stack: list[tuple[PageId, int]] = [(self.root_id, self.height - 1)]
        while stack:
            page_id, expected_level = stack.pop()
            page = self._page(page_id)
            assert page.level == expected_level, (
                f"page {page_id}: level {page.level} != expected {expected_level}"
            )
            if page.page_id != self.root_id:
                assert len(page.entries) >= self._min_entries(page.level), (
                    f"page {page_id} under-full: {len(page.entries)} entries"
                )
            assert len(page.entries) <= self._max_entries(page.level), (
                f"page {page_id} over-full: {len(page.entries)} entries"
            )
            assert page._scan_is_exact(), f"page {page_id}: stale scan block"
            if page.is_leaf:
                seen_entries += len(page.entries)
                continue
            for entry in page.entries:
                assert entry.child is not None
                child = self._page(entry.child)
                child_mbr = child.mbr()
                assert child_mbr == entry.mbr, (
                    f"page {page_id}: stale MBR for child {entry.child}"
                )
                stack.append((entry.child, expected_level - 1))
        assert seen_entries == self.entry_count, (
            f"entry count mismatch: {seen_entries} in leaves, "
            f"{self.entry_count} recorded"
        )
