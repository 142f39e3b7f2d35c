"""Page allocation on top of the simulated disk.

A :class:`PageFile` hands out dense page ids and creates pages of a given
type and level.  Spatial access methods build their structure through a page
file and later read it back through a buffer manager; keeping allocation
here (rather than in each SAM) gives all indexes identical id behaviour,
which matters for the disk's sequential-access detection.
"""

from __future__ import annotations

from typing import Any

from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page, PageId, PageType


class PageFile:
    """Allocates, stores and frees pages on a :class:`SimulatedDisk`."""

    def __init__(self, disk: SimulatedDisk | None = None) -> None:
        self.disk = disk if disk is not None else SimulatedDisk()
        self._next_id: PageId = 0
        self._freed: list[PageId] = []
        self._accessor: Any = None

    def attach_accessor(self, accessor: Any) -> None:
        """Register the buffer serving this file's pages.

        While attached, :meth:`free` invalidates the page's buffered frame
        before releasing the id.  Without the hook, freeing a resident
        (possibly dirty) page leaves a stale frame: a later allocation
        reusing the id would be shadowed by the dead frame, and its dirty
        write-back would clobber the reused page — the classic
        deallocation bug of buffer managers.
        ``SpatialIndex.via`` attaches the live accessor automatically.
        """
        self._accessor = accessor

    def detach_accessor(self) -> None:
        self._accessor = None

    def allocate(self, page_type: PageType, level: int = 0) -> Page:
        """Create a new empty page and store it (unaccounted)."""
        page = Page(page_id=self.next_id(), page_type=page_type, level=level)
        self.disk.store(page)
        return page

    def next_id(self) -> PageId:
        """Hand out the id of a new page, which the caller stores.

        Freed ids are reused in LIFO order, like a freelist in a real
        storage manager.
        """
        if self._freed:
            return self._freed.pop()
        page_id = self._next_id
        self._next_id += 1
        return page_id

    def free(self, page_id: PageId) -> None:
        """Release a page; its id becomes reusable.

        If an accessor is attached (see :meth:`attach_accessor`), any
        resident frame for the page is discarded first, so the freed id
        can be reused without serving stale content or writing a dead
        dirty frame over the new page.
        """
        if page_id not in self.disk:
            raise KeyError(f"cannot free unknown page {page_id}")
        discard = getattr(self._accessor, "discard", None)
        if discard is not None:
            discard(page_id)
        self.disk.delete(page_id)
        self._freed.append(page_id)

    def store(self, page: Page) -> None:
        """Persist a page without counting an access (build phase)."""
        self.disk.store(page)

    @property
    def page_count(self) -> int:
        """Number of live pages in the file."""
        return len(self.disk)
