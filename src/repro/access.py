"""The page-accessor protocol: the one seam between consumers and buffers.

Every layer that *consumes* pages — the spatial access methods, queries,
the experiment harness, the workload drivers — programs against
:class:`PageAccessor` and nothing else.  Every layer that *serves* pages —
:class:`~repro.buffer.manager.BufferManager`,
:class:`~repro.buffer.concurrent.ConcurrentBufferManager`, and the
unbuffered accessors below — implements it.  The protocol is the
architectural seam future scaling work (async I/O, multi-backend pools,
distributed shards) plugs into: a traversal written against it runs
unchanged on any of them.

The surface is deliberately small:

``fetch``
    Request a page; the accessor decides whether that is a frame hit, a
    disk read, or (concurrently) a coalesced wait on another thread's read.
``pinned``
    RAII pin guard: ``with accessor.pinned(page_id) as page:`` fetches the
    page, protects it from eviction inside the block, and releases the pin
    on exit even when the block raises.
``mark_dirty`` / ``install`` / ``discard``
    The update path: flag a resident page as modified, place a freshly
    allocated page into the buffer without charging a read, and drop a
    deallocated page without write-back.
``query_scope``
    Bracket one query so that its page accesses are *correlated* (the
    paper's Section 2.2 notion, consumed by LRU-K).

Unbuffered accessors implement the mutation surface as no-ops: there are
no frames to pin, dirty, or invalidate, so the operations are trivially
satisfied and a traversal never needs to know which accessor it runs on.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Protocol, runtime_checkable

from repro.storage.page import Page, PageId

if TYPE_CHECKING:
    from contextlib import AbstractContextManager

    from repro.storage.pagefile import PageFile


@runtime_checkable
class PageAccessor(Protocol):
    """Anything that can serve page requests.

    ``isinstance(obj, PageAccessor)`` checks only ``fetch`` — the minimal
    capability a read-only traversal needs — so lightweight test doubles
    with a single method still qualify.  The full service surface is
    :class:`FullPageAccessor`; all shipped accessors implement it.
    """

    def fetch(self, page_id: PageId) -> Page: ...


@runtime_checkable
class FullPageAccessor(PageAccessor, Protocol):
    """The complete accessor surface: fetch / pin-guard / update / scope."""

    def mark_dirty(self, page_id: PageId) -> None: ...

    def install(self, page: Page) -> None: ...

    def discard(self, page_id: PageId) -> None: ...

    def pin(self, page_id: PageId) -> None: ...

    def unpin(self, page_id: PageId) -> None: ...

    def pinned(self, page_id: PageId) -> "AbstractContextManager[Page]": ...

    def query_scope(self) -> "AbstractContextManager[int]": ...


class UnbufferedAccessor:
    """Shared base of the accessors that read pages without caching them.

    There is nothing resident, so pinning, dirtying, installing and
    discarding have no effect; the methods exist so that code written
    against :class:`FullPageAccessor` runs unchanged.  ``query_scope``
    hands out fresh ids from a private counter — without a buffer there is
    no correlation tracking, but callers may still nest scopes.
    """

    def fetch(self, page_id: PageId) -> Page:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- update surface: nothing is resident, nothing to do ------------

    def mark_dirty(self, page_id: PageId) -> None:
        """No-op: an unbuffered accessor holds no modified frames."""

    def install(self, page: Page) -> None:
        """No-op: new pages go straight to their page file."""

    def discard(self, page_id: PageId) -> None:
        """No-op: there is no stale frame to invalidate."""

    # -- pinning: nothing can be evicted, so pins are free -------------

    def pin(self, page_id: PageId) -> None:
        """No-op: unbuffered pages cannot be evicted."""

    def unpin(self, page_id: PageId) -> None:
        """No-op counterpart of :meth:`pin`."""

    @contextmanager
    def pinned(self, page_id: PageId) -> Iterator[Page]:
        """Fetch ``page_id``; the 'pin' costs nothing here."""
        yield self.fetch(page_id)

    # -- query correlation ---------------------------------------------

    _scope_counter = 0

    @contextmanager
    def query_scope(self) -> Iterator[int]:
        """Hand out a fresh scope id (no correlation without a buffer)."""
        self._scope_counter += 1
        yield self._scope_counter


class DirectAccessor(UnbufferedAccessor):
    """Unbuffered accessor reading straight from the disk, with accounting.

    Used to measure the no-buffer baseline and in tests; every fetch is one
    disk read.
    """

    def __init__(self, pagefile: "PageFile") -> None:
        self._pagefile = pagefile

    def fetch(self, page_id: PageId) -> Page:
        return self._pagefile.disk.read(page_id)


class BuildAccessor(UnbufferedAccessor):
    """Unaccounted accessor for the construction phase."""

    def __init__(self, pagefile: "PageFile") -> None:
        self._pagefile = pagefile

    def fetch(self, page_id: PageId) -> Page:
        return self._pagefile.disk.peek(page_id)
