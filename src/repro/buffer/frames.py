"""Buffer frames and the slot-based frame table.

A frame records logical timestamps (the buffer's access counter, never wall
clock — experiments must be deterministic), the id of the query that last
touched the page (for LRU-K's correlated-access rule), a pin count, a dirty
flag, and a small cache for the spatial criteria, which are pure functions
of the page content: it memoises, for one load, the values the page version
keeps itself (see :func:`~repro.buffer.policies.spatial.spatial_criterion`;
the paper notes that area and margin cause "only a small overhead" when a
page is loaded; caching keeps EO affordable too).

:class:`FrameTable` is the hot-path container behind
:class:`~repro.buffer.manager.BufferManager` (and the metadata-only ghost
caches of :mod:`repro.tuning`):

* it *is* a dict (``page_id -> Frame``), so lookups, membership tests and
  iteration run at C speed and keep dict insertion order — the stable
  tie-breaking order several policies' ``min()`` calls rely on;
* frames live in a flat slot pool (:attr:`FrameTable.slots`), grown once to
  buffer capacity and then recycled in place on every admit — steady-state
  misses allocate no frame objects and reuse the per-slot criterion-cache
  dict;
* every resident frame sits on an intrusive doubly-linked *recency chain*
  (:attr:`Frame.lru_prev` / :attr:`Frame.lru_next`, least-recently-used at
  :attr:`FrameTable.head`, most-recently-used at :attr:`FrameTable.tail`),
  so a hit is O(1) pointer surgery and recency-based policies walk victims
  off the head instead of sorting or scanning the whole table.

Chain invariants (see docs/architecture.md "Hot path"):

1. every frame in the dict is on the chain exactly once; no other frame is;
2. chain order equals ascending ``last_access`` — the manager's logical
   clock is strictly monotonic and ticks once per request, so timestamps
   are unique and the order is total;
3. mutation goes through :meth:`FrameTable.admit` / :meth:`~FrameTable.adopt`
   / :meth:`~FrameTable.remove` / :meth:`~FrameTable.move_to_tail` /
   :meth:`~FrameTable.clear` only; the raw ``dict`` mutators are disabled
   because they would silently desynchronise the chain.

Invariant 2 holds *at every read*, not after every hit: a hit appends the
frame to :attr:`FrameTable.pending` (one C-level list append) and the
pointer surgery is replayed in batch — deduplicated, in access order — the
next time anything reads the chain (:attr:`~FrameTable.head` /
:attr:`~FrameTable.tail` / :meth:`~FrameTable.iter_recency`) or mutates it
(:meth:`~FrameTable.admit` / :meth:`~FrameTable.adopt` /
:meth:`~FrameTable.remove`).  Frame timestamps are always eager; only the
chain *order* is deferred, which no reader can observe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.storage.page import Page, PageId


@dataclass(slots=True, eq=False)
class Frame:
    """One buffer slot holding a resident page.

    ``eq=False`` keeps identity comparison and hashing: the deferred
    recency splice (:meth:`FrameTable.move_to_tail`) dedupes pending
    frames through a dict, and two frames are never "equal" anyway —
    each resident page has exactly one.
    """

    page: Page
    loaded_at: int
    last_access: int
    last_query: int
    pin_count: int = 0
    dirty: bool = False
    #: Per-load memo of spatial criteria, keyed by name ("A", "EA", ...).
    crit_cache: dict[str, float] = field(default_factory=dict)
    #: Index into the owning :class:`FrameTable`'s slot pool; ``-1`` for
    #: frames built outside a pool (ghost frames, standalone tests).
    slot: int = -1
    #: Intrusive recency links: the chain neighbours towards the LRU end
    #: (``lru_prev``) and the MRU end (``lru_next``); ``None`` at the ends.
    lru_prev: "Frame | None" = None
    lru_next: "Frame | None" = None

    @property
    def page_id(self) -> PageId:
        return self.page.page_id

    @property
    def pinned(self) -> bool:
        return self.pin_count > 0

    def touch(self, clock: int, query_id: int) -> None:
        """Record an access at logical time ``clock`` by query ``query_id``."""
        self.last_access = clock
        self.last_query = query_id

    def invalidate_criteria(self) -> None:
        """Drop cached spatial criteria after the page content changed."""
        self.crit_cache.clear()


class FrameTable(dict):
    """Slot-based frame table: a dict of resident frames plus the recency chain.

    The dict part maps ``page_id`` to the resident :class:`Frame`; the slot
    part recycles frame objects so the steady state allocates nothing per
    miss; the chain part keeps frames ordered by last access.  See the
    module docstring for the invariants.
    """

    __slots__ = ("slots", "_free", "_head", "_tail", "pending")

    #: Pending recency renewals are spliced in batch once the buffer grows
    #: this long, bounding its memory on hit-only streams; chain readers
    #: flush it regardless, so the threshold is invisible to correctness.
    PENDING_LIMIT = 4096

    def __init__(self) -> None:
        super().__init__()
        #: The flat slot pool: every frame this table ever created, in slot
        #: order.  Grows to buffer capacity, then recycles.
        self.slots: list[Frame] = []
        self._free: list[Frame] = []
        self._head: Frame | None = None
        self._tail: Frame | None = None
        #: Deferred recency renewals, in access order (may repeat frames).
        #: A hit only appends here; the O(1) pointer surgery happens in
        #: :meth:`_flush_pending`, deduplicated, the next time anything
        #: reads or mutates the chain.
        self.pending: list[Frame] = []

    # ------------------------------------------------------------------
    # Recency chain
    # ------------------------------------------------------------------

    @property
    def head(self) -> Frame | None:
        """Least-recently-used end of the recency chain (first victim pick)."""
        if self.pending:
            self._flush_pending()
        return self._head

    @property
    def tail(self) -> Frame | None:
        """Most-recently-used end of the recency chain."""
        if self.pending:
            self._flush_pending()
        return self._tail

    def _link_tail(self, frame: Frame) -> None:
        tail = self._tail
        frame.lru_prev = tail
        frame.lru_next = None
        if tail is None:
            self._head = frame
        else:
            tail.lru_next = frame
        self._tail = frame

    def _unlink(self, frame: Frame) -> None:
        prev = frame.lru_prev
        nxt = frame.lru_next
        if prev is None:
            self._head = nxt
        else:
            prev.lru_next = nxt
        if nxt is None:
            self._tail = prev
        else:
            nxt.lru_prev = prev
        frame.lru_prev = None
        frame.lru_next = None

    def _flush_pending(self) -> None:
        """Replay deferred renewals: last access per frame wins, in order.

        ``dict.fromkeys(reversed(...))`` keeps each frame's *last* pending
        occurrence at C speed; replaying those in chronological order
        restores invariant 2 exactly — the chain ends up identical to one
        maintained eagerly.  Every entry references a resident frame:
        hits only touch resident pages, and :meth:`admit`/:meth:`adopt`/
        :meth:`remove` flush before a frame can leave the table or a slot
        can be recycled.  The O(1) splice of each renewal is inlined: an
        ASB promotion flushes about one frame per hit since the last one.
        """
        pending = self.pending
        newest_first = dict.fromkeys(reversed(pending))
        pending.clear()
        tail = self._tail
        for frame in reversed(newest_first):
            if frame is tail:
                continue
            prev = frame.lru_prev
            nxt = frame.lru_next
            if prev is None:
                self._head = nxt
            else:
                prev.lru_next = nxt
            nxt.lru_prev = prev  # nxt is not None: frame is not the tail
            tail.lru_next = frame
            frame.lru_prev = tail
            frame.lru_next = None
            tail = frame
        self._tail = tail

    def move_to_tail(self, frame: Frame) -> None:
        """Renew ``frame``'s recency; the splice itself is deferred.

        Appending to :attr:`pending` is all a hit pays; the chain is
        repaired wholesale (deduplicated) at the next read.  Timestamps on
        the frame are the caller's business and stay eager, so only the
        *chain order* is lazy — never anything a policy computes from
        frame fields.
        """
        pending = self.pending
        pending.append(frame)
        if len(pending) >= self.PENDING_LIMIT:
            self._flush_pending()

    def iter_recency(self) -> Iterator[Frame]:
        """Resident frames from least to most recently used."""
        if self.pending:
            self._flush_pending()
        frame = self._head
        while frame is not None:
            yield frame
            frame = frame.lru_next

    # ------------------------------------------------------------------
    # Flushing dict accessors: a frame handed out carries its chain links,
    # so any read that yields frames makes the chain order current first.
    # ``get`` is the deliberate exception — it is the hot-path probe.
    # ------------------------------------------------------------------

    def __getitem__(self, page_id: PageId) -> Frame:
        if self.pending:
            self._flush_pending()
        return dict.__getitem__(self, page_id)

    def __iter__(self) -> Iterator[PageId]:
        if self.pending:
            self._flush_pending()
        return dict.__iter__(self)

    def keys(self):  # type: ignore[override]
        if self.pending:
            self._flush_pending()
        return dict.keys(self)

    def values(self):  # type: ignore[override]
        if self.pending:
            self._flush_pending()
        return dict.values(self)

    def items(self):  # type: ignore[override]
        if self.pending:
            self._flush_pending()
        return dict.items(self)

    # ------------------------------------------------------------------
    # Admission / removal
    # ------------------------------------------------------------------

    def admit(self, page: Page, clock: int, query_id: int) -> Frame:
        """Slot a freshly read page in at the MRU end, recycling a frame.

        The first ``capacity`` admits create the slot pool; afterwards
        every admit reuses a free slot in place (criterion cache cleared,
        counters reset) so the miss path allocates nothing.
        """
        if self.pending:
            # Deferred renewals precede this admission chronologically and
            # must land before the new tail frame.
            self._flush_pending()
        stale = dict.pop(self, page.page_id, None)
        if stale is not None:
            # Re-admitting a resident id (a concurrent install raced a miss
            # loader).  The dict overwrite alone would leave the old frame
            # linked in the chain forever — a zombie the policy could later
            # select as a non-resident victim.  Unlink and recycle it first.
            self._unlink(stale)
            if stale.slot >= 0:
                self._free.append(stale)
        free = self._free
        if free:
            frame = free.pop()
            frame.page = page
            frame.loaded_at = clock
            frame.last_access = clock
            frame.last_query = query_id
            frame.pin_count = 0
            frame.dirty = False
            cache = frame.crit_cache
            if cache:
                cache.clear()
        else:
            frame = Frame(
                page=page,
                loaded_at=clock,
                last_access=clock,
                last_query=query_id,
            )
            frame.slot = len(self.slots)
            self.slots.append(frame)
        dict.__setitem__(self, page.page_id, frame)
        self._link_tail(frame)
        return frame

    def adopt(self, frame: Frame) -> Frame:
        """Insert an externally built frame (ghost caches seed their own).

        Adopted frames keep ``slot == -1`` and are never recycled into the
        pool — their lifetime belongs to the caller.
        """
        if self.pending:
            self._flush_pending()
        dict.__setitem__(self, frame.page.page_id, frame)
        self._link_tail(frame)
        return frame

    def remove(self, page_id: PageId) -> Frame | None:
        """Unlink and drop a resident frame; returns it (``None`` if absent).

        Pooled frames go back on the free list *after* this call returns,
        so eviction hooks holding the frame observe its final state; the
        slot is only rewritten by a later :meth:`admit`.
        """
        if self.pending:
            # Apply the frame's own deferred renewals while it is still
            # linked; afterwards no deferred entry may reference it.
            self._flush_pending()
        frame = dict.pop(self, page_id, None)
        if frame is None:
            return None
        self._unlink(frame)
        if frame.slot >= 0:
            self._free.append(frame)
        return frame

    def clear(self) -> None:  # type: ignore[override]
        """Drop every resident frame and reset the chain; slots survive."""
        dict.clear(self)
        self.pending.clear()
        self._head = None
        self._tail = None
        self._free = list(self.slots)

    # ------------------------------------------------------------------
    # Disabled dict mutators — they would desynchronise the chain
    # ------------------------------------------------------------------

    def _reject(self, *args, **kwargs):
        raise TypeError(
            "FrameTable mutation must go through admit()/adopt()/remove()/"
            "clear() so the recency chain stays consistent"
        )

    __setitem__ = _reject
    __delitem__ = _reject
    pop = _reject  # type: ignore[assignment]
    popitem = _reject  # type: ignore[assignment]
    setdefault = _reject  # type: ignore[assignment]
    update = _reject  # type: ignore[assignment]
