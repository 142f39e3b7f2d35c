"""The grid file (Nievergelt, Hinterberger, Sevcik 1984).

The contrast index beside the paper's R*-tree:
structurally unlike a tree, a *non-hierarchical* directory maps grid cells
to data buckets, giving two-disk-access point queries.  Its page-access
profile differs fundamentally from tree descent — every query touches
directory page(s) plus bucket pages directly, with no intermediate levels
for LRU-P to prioritise — which is why the policy x index x workload
matrix and ``ablation_sams`` run the policies on it.

Layout on pages:

* **linear scales** (the split positions per axis) are index metadata kept
  in memory, as in the original design;
* the **directory** is a grid of bucket references, stored row-partitioned
  on DIRECTORY pages (one page per directory stripe);
* **buckets** are DATA pages holding object entries; several grid cells
  may share one bucket (the grid file's bucket-sharing property), and a
  bucket splits when full, refining a linear scale when necessary.

Window queries visit all cells the window intersects and filter each
bucket by actual MBR intersection (:meth:`Page.matching`, the scan the
R*-tree uses), so an extended object is replicated into the bucket of
every cell its MBR overlaps (results are de-duplicated).  A point query
is the inherited degenerate window: off the split lines, one directory
page and one bucket.
"""

from __future__ import annotations

import bisect
from typing import Any

from repro.geometry.rect import Rect
from repro.sam.base import PageAccessor, SpatialIndex, TreeStats
from repro.storage.page import Page, PageEntry, PageId, PageType
from repro.storage.pagefile import PageFile

#: Number of directory cells per directory page stripe.
CELLS_PER_DIRECTORY_PAGE = 256


class GridFile(SpatialIndex):
    """A two-level grid file with bucket sharing and replication."""

    def __init__(
        self,
        space: Rect,
        pagefile: PageFile | None = None,
        bucket_capacity: int = 42,
        max_splits: int = 32,
    ) -> None:
        super().__init__(pagefile if pagefile is not None else PageFile())
        if bucket_capacity < 2:
            raise ValueError("bucket capacity must be at least 2")
        if max_splits < 1:
            raise ValueError("max_splits must be at least 1")
        self.space = space
        self.bucket_capacity = bucket_capacity
        self.max_splits = max_splits
        self.entry_count = 0
        self._page_ids: set[PageId] = set()
        # Linear scales: interior split positions per axis (sorted).
        self._x_scale: list[float] = []
        self._y_scale: list[float] = []
        # Directory: grid[cell_x][cell_y] -> bucket page id.
        first_bucket = self._new_bucket()
        self._grid: list[list[PageId]] = [[first_bucket.page_id]]
        # Directory pages mirror the grid for access accounting; rebuilt
        # whenever the directory geometry changes.
        self._directory_pages: list[Page] = []
        self._rebuild_directory_pages()

    # ------------------------------------------------------------------
    # Page helpers
    # ------------------------------------------------------------------

    def _new_bucket(self) -> Page:
        page = self.pagefile.allocate(PageType.DATA, level=0)
        self._page_ids.add(page.page_id)
        self._register_new_page(page)
        return page

    def _rebuild_directory_pages(self) -> None:
        """Re-pack the directory grid onto DIRECTORY pages.

        Each directory page covers a contiguous stripe of cells; its
        entries carry the cell regions (the complete, overlap-free
        partition the paper's Section 2.3 mentions) and the bucket ids.
        """
        for page in self._directory_pages:
            self._page_ids.discard(page.page_id)
            self.pagefile.free(page.page_id)
        self._directory_pages = []
        cells: list[tuple[Rect, PageId]] = []
        for cell_x in range(len(self._grid)):
            for cell_y in range(len(self._grid[0])):
                cells.append(
                    (self._cell_region(cell_x, cell_y), self._grid[cell_x][cell_y])
                )
        for start in range(0, len(cells), CELLS_PER_DIRECTORY_PAGE):
            page = self.pagefile.allocate(PageType.DIRECTORY, level=1)
            self._page_ids.add(page.page_id)
            self._register_new_page(page)
            for region, bucket_id in cells[start : start + CELLS_PER_DIRECTORY_PAGE]:
                page.entries.append(PageEntry(mbr=region, child=bucket_id))
            self._directory_pages.append(page)

    # ------------------------------------------------------------------
    # Grid geometry
    # ------------------------------------------------------------------

    def _cell_region(self, cell_x: int, cell_y: int) -> Rect:
        x_bounds = [self.space.x_min, *self._x_scale, self.space.x_max]
        y_bounds = [self.space.y_min, *self._y_scale, self.space.y_max]
        return Rect(
            x_bounds[cell_x],
            y_bounds[cell_y],
            x_bounds[cell_x + 1],
            y_bounds[cell_y + 1],
        )

    def _cells_overlapping(self, rect: Rect) -> list[tuple[int, int]]:
        """Indexes of all grid cells the (closed) rectangle overlaps.

        Cells are closed at their boundaries like :class:`Rect`, so a
        coordinate lying exactly on a split line belongs to the cells on
        both sides — hence ``bisect_left`` for the lower end and
        ``bisect_right`` for the upper end.
        """
        x_lo = bisect.bisect_left(self._x_scale, rect.x_min)
        x_hi = bisect.bisect_right(self._x_scale, rect.x_max)
        y_lo = bisect.bisect_left(self._y_scale, rect.y_min)
        y_hi = bisect.bisect_right(self._y_scale, rect.y_max)
        return [
            (cell_x, cell_y)
            for cell_x in range(x_lo, x_hi + 1)
            for cell_y in range(y_lo, y_hi + 1)
        ]

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def insert(self, mbr: Rect, payload: Any) -> None:
        if not mbr.intersects(self.space):
            raise ValueError("object lies outside the grid file's space")
        self.entry_count += 1
        # A split renumbers the cells still to visit (a refined scale shifts
        # their indexes), so start over on the fresh cell list after one;
        # the cells already done hold the replica and are skipped.
        while any(
            self._insert_into_cell(cell, mbr, payload)
            for cell in self._cells_overlapping(mbr)
        ):
            pass

    def _insert_into_cell(
        self, cell: tuple[int, int], mbr: Rect, payload: Any
    ) -> bool:
        """Place one replica; ``True`` when that split a bucket."""
        bucket = self._page(self._grid[cell[0]][cell[1]])
        if any(
            entry.payload == payload and entry.mbr == mbr
            for entry in bucket.entries
        ):
            return False  # replica already present via a sharing bucket
        bucket.entries.append(PageEntry(mbr=mbr, payload=payload))
        self._mark_dirty(bucket)
        if len(bucket.entries) <= self.bucket_capacity:
            return False
        return self._split_bucket(bucket)

    def _split_bucket(self, bucket: Page) -> bool:
        """Split an overflowing bucket, refining a scale if necessary.

        ``False`` when the refinement budget is spent and the overflow is
        tolerated (the grid is unchanged).
        """
        cells = [
            (cell_x, cell_y)
            for cell_x in range(len(self._grid))
            for cell_y in range(len(self._grid[0]))
            if self._grid[cell_x][cell_y] == bucket.page_id
        ]
        if len(cells) > 1:
            # Bucket shared by several cells: split the cell group in two
            # along its longer side, no directory refinement needed.
            xs = sorted({cell_x for cell_x, _ in cells})
            ys = sorted({cell_y for _, cell_y in cells})
            sibling = self._new_bucket()
            if len(xs) >= len(ys):
                moved = {c for c in cells if c[0] >= xs[len(xs) // 2]}
            else:
                moved = {c for c in cells if c[1] >= ys[len(ys) // 2]}
            for cell_x, cell_y in moved:
                self._grid[cell_x][cell_y] = sibling.page_id
            self._redistribute(bucket, sibling)
            self._rebuild_directory_pages()
            return True
        if len(self._x_scale) + len(self._y_scale) >= 2 * self.max_splits:
            return False  # refinement budget exhausted: tolerate the overflow
        # Single cell: refine the directory by splitting the cell's longer
        # axis at its midpoint.
        (cell_x, cell_y) = cells[0]
        region = self._cell_region(cell_x, cell_y)
        sibling = self._new_bucket()
        if region.width >= region.height:
            split_at = region.center.x
            self._x_scale.insert(cell_x, split_at)
            self._grid.insert(cell_x + 1, list(self._grid[cell_x]))
            self._grid[cell_x + 1][cell_y] = sibling.page_id
        else:
            split_at = region.center.y
            self._y_scale.insert(cell_y, split_at)
            for column in self._grid:
                column.insert(cell_y + 1, column[cell_y])
            self._grid[cell_x][cell_y + 1] = sibling.page_id
        self._redistribute(bucket, sibling)
        self._rebuild_directory_pages()
        return True

    def _redistribute(self, bucket: Page, sibling: Page) -> None:
        """Re-home the two buckets' entries according to the new grid."""
        entries = bucket.entries + sibling.entries
        bucket.entries = []
        sibling.entries = []
        self._mark_dirty(bucket)
        self._mark_dirty(sibling)
        targets = {bucket.page_id: bucket, sibling.page_id: sibling}
        for entry in entries:
            placed: set[PageId] = set()
            for cell in self._cells_overlapping(entry.mbr):
                bucket_id = self._grid[cell[0]][cell[1]]
                target = targets.get(bucket_id)
                if target is not None and bucket_id not in placed:
                    placed.add(bucket_id)
                    target.entries.append(entry)

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------

    def delete(self, mbr: Rect, payload: Any) -> bool:
        """Remove all replicas of an object (lazy: no grid coarsening)."""
        removed = False
        seen: set[PageId] = set()
        for cell in self._cells_overlapping(mbr):
            bucket_id = self._grid[cell[0]][cell[1]]
            if bucket_id in seen:
                continue
            seen.add(bucket_id)
            bucket = self._page(bucket_id)
            kept = [
                entry
                for entry in bucket.entries
                if not (entry.payload == payload and entry.mbr == mbr)
            ]
            if len(kept) != len(bucket.entries):
                bucket.entries = kept
                self._mark_dirty(bucket)
                removed = True
        if removed:
            self.entry_count -= 1
        return removed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _directory_page_for_cell(self, cell: tuple[int, int]) -> Page:
        columns = len(self._grid[0])
        flat_index = cell[0] * columns + cell[1]
        return self._directory_pages[flat_index // CELLS_PER_DIRECTORY_PAGE]

    def window_query(
        self, window: Rect, accessor: PageAccessor | None = None
    ) -> list[Any]:
        accessor = self._accessor_or_build(accessor)
        results: list[Any] = []
        seen_payloads: set[Any] = set()
        seen_buckets: set[PageId] = set()
        seen_directory: set[PageId] = set()
        for cell in self._cells_overlapping(window):
            directory_page = self._directory_page_for_cell(cell)
            if directory_page.page_id not in seen_directory:
                seen_directory.add(directory_page.page_id)
                accessor.fetch(directory_page.page_id)
            bucket_id = self._grid[cell[0]][cell[1]]
            if bucket_id in seen_buckets:
                continue
            seen_buckets.add(bucket_id)
            # A bucket is a level-0 DATA page: matching() yields payloads.
            for payload in accessor.fetch(bucket_id).matching(window):
                if payload not in seen_payloads:
                    seen_payloads.add(payload)
                    results.append(payload)
        return results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> TreeStats:
        directory = len(self._directory_pages)
        data = len(self._page_ids) - directory
        return TreeStats(
            page_count=len(self._page_ids),
            directory_pages=directory,
            data_pages=data,
            height=2,
            entry_count=self.entry_count,
        )

    def all_page_ids(self) -> list[PageId]:
        return sorted(self._page_ids)

    @property
    def grid_shape(self) -> tuple[int, int]:
        return (len(self._grid), len(self._grid[0]))
