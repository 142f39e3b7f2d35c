"""Shared interfaces of the spatial access methods.

Indexes are *built* directly on their page file (tree construction happens
before the measured query phase; the paper clears the buffer before each
query set) and *queried* through a page accessor (see :mod:`repro.access`,
whose protocol and unbuffered accessors are re-exported here).  Any object
with a ``fetch(page_id) -> Page`` method qualifies — in the experiments
that is a buffer manager, so every page request of a query is a buffer
request.
"""

from __future__ import annotations

import abc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from repro.access import (
    BuildAccessor,
    DirectAccessor,
    FullPageAccessor,
    PageAccessor,
)
from repro.geometry.rect import Point, Rect
from repro.storage.page import Page, PageId
from repro.storage.pagefile import PageFile

__all__ = [
    "BuildAccessor",
    "DirectAccessor",
    "FullPageAccessor",
    "PageAccessor",
    "SpatialIndex",
    "TreeStats",
]


@dataclass(slots=True)
class TreeStats:
    """Structural statistics of a built index (cf. the paper's Section 3)."""

    page_count: int
    directory_pages: int
    data_pages: int
    height: int
    entry_count: int

    @property
    def directory_fraction(self) -> float:
        """Share of directory pages (paper: 2.84 % for DB 1, 2.87 % for DB 2)."""
        if self.page_count == 0:
            return 0.0
        return self.directory_pages / self.page_count


class SpatialIndex(abc.ABC):
    """Base class of all spatial access methods."""

    def __init__(self, pagefile: PageFile) -> None:
        self.pagefile = pagefile
        self._build_accessor = BuildAccessor(pagefile)
        self._live_accessor: PageAccessor | None = None

    # ------------------------------------------------------------------
    # Page access — honours the live accessor set by :meth:`via`
    # ------------------------------------------------------------------

    def _page(self, page_id: PageId) -> Page:
        """Read a page for an index operation.

        Outside :meth:`via` this is the unaccounted build path (the paper
        builds its trees before the measured phase); inside, every page
        request goes through the live accessor, so index *updates* are
        charged against the buffer like queries are.
        """
        if self._live_accessor is not None:
            return self._live_accessor.fetch(page_id)
        return self.pagefile.disk.peek(page_id)

    def _mark_dirty(self, page: Page) -> None:
        """Flag a page as modified when operating through a buffer.

        Pages mutated during an update must be written back on eviction.
        If the buffer already evicted the (then-clean) page, the write is
        charged immediately instead.  With or without a buffer, the page's
        scan block goes first: it may describe the entries as they were.
        """
        page.drop_derived()
        accessor = self._live_accessor
        mark = getattr(accessor, "mark_dirty", None)
        if mark is None:
            return
        try:
            mark(page.page_id)
        except KeyError:
            accessor.disk.write(page)  # type: ignore[union-attr]

    def _register_new_page(self, page: Page) -> None:
        """Announce a freshly allocated page to the live accessor.

        New pages are born in the buffer (no read charged); outside
        :meth:`via` this is a no-op.
        """
        install = getattr(self._live_accessor, "install", None)
        if install is not None:
            install(page)

    @contextmanager
    def via(self, accessor: PageAccessor) -> Iterator[None]:
        """Route all index page accesses through ``accessor``.

        Used for the update experiments (the paper's future work #2/#3):
        inside the context, inserts and deletes fetch their pages through
        the buffer and dirty the pages they mutate.  The accessor is also
        attached to the page file, so every ``pagefile.free`` invalidates
        the page's buffered frame before the id becomes reusable (without
        that, a reused id would be served from a stale frame — the classic
        deallocation bug of buffer managers).
        """
        if self._live_accessor is not None:
            raise RuntimeError("a live accessor is already installed")
        self._live_accessor = accessor
        self.pagefile.attach_accessor(accessor)
        try:
            yield
        finally:
            self._live_accessor = None
            self.pagefile.detach_accessor()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def insert(self, mbr: Rect, payload: Any) -> None:
        """Insert one object with the given MBR."""

    # ------------------------------------------------------------------
    # Queries — all page requests go through ``accessor``
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def window_query(
        self, window: Rect, accessor: PageAccessor | None = None
    ) -> list[Any]:
        """Payloads of all objects whose MBR intersects ``window``."""

    def point_query(
        self, point: Point, accessor: PageAccessor | None = None
    ) -> list[Any]:
        """Payloads of all objects whose MBR contains ``point``.

        By default a degenerate window query; indexes override it when they
        can do better.
        """
        return self.window_query(point.as_rect(), accessor)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def stats(self) -> TreeStats:
        """Structural statistics of the index."""

    @abc.abstractmethod
    def all_page_ids(self) -> list[PageId]:
        """Ids of every page belonging to the index."""

    def _accessor_or_build(self, accessor: PageAccessor | None) -> PageAccessor:
        if accessor is not None:
            return accessor
        if self._live_accessor is not None:
            return self._live_accessor
        return self._build_accessor
