"""The buffer manager.

A :class:`BufferManager` owns a fixed number of frames, serves page
requests, and delegates the victim decision to a replacement policy.  The
division of labour follows the paper:

* the manager implements everything policy-independent — hit/miss
  accounting, the logical clock, query correlation scopes, pinning,
  dirty-page write-back, and clearing the buffer between query sets
  (Section 3: "Before performing a new set of queries, the buffer was
  cleared in order to increase the comparability of the results");
* the policy implements only the replacement decision (Section 2), via the
  hooks defined in :mod:`repro.buffer.policies.base`.

All timestamps are logical (one tick per page request); no wall clock is
involved anywhere, so runs are deterministic and replayable.

Hot path.  Resident frames live in a :class:`~repro.buffer.frames.FrameTable`
(slot pool + intrusive recency chain), and ``fetch`` is *rebound per
instance*: while no observer, durability seam or tuning tap is attached,
requests run through one closure compiled by :meth:`_refresh_fast_path` —
one dict probe, inline accounting, a deferred chain splice, and the policy's
``on_hit`` only when the policy overrides it.  Attaching any seam (they are
properties) swaps the class-level reference path
(:meth:`begin_request` / :meth:`serve_hit` / :meth:`complete_miss`) back in;
both paths leave the same clock, stats, recency order and frame stamps, so
the seams just stop being free to *check* and start being used.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.buffer.frames import Frame, FrameTable
from repro.buffer.stats import BufferStats
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page, PageId

if TYPE_CHECKING:
    from repro.buffer.policies.base import ReplacementPolicy
    from repro.obs.events import EventSink
    from repro.wal.manager import DurabilityManager


class BufferFullError(RuntimeError):
    """Every frame is pinned and a new page must be loaded.

    This is the buffer's *typed backpressure signal*: in-process callers
    catch it and release pins (or retry later); the page service
    (:mod:`repro.server`) translates it into a ``RETRY_AFTER`` response
    instead of letting it kill the connection.  It is raised before any
    state changes, so a failed admission leaves the buffer intact.
    """


class BufferManager:
    """Caches pages of a :class:`SimulatedDisk` in ``capacity`` frames."""

    def __init__(
        self,
        disk: SimulatedDisk,
        capacity: int,
        policy: "ReplacementPolicy",
        observer: "EventSink | None" = None,
        durability: "DurabilityManager | None" = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("buffer capacity must be at least 1")
        self.disk = disk
        self.capacity = capacity
        self.frames: FrameTable = FrameTable()
        self._stats = BufferStats()
        self._policy = policy
        self._observer = observer
        self._durability = durability
        self._tuner: "object | None" = None
        self._clock = 0
        self._query_id = 0
        self._in_query = False
        self._pinned_frames = 0
        policy.attach(self)
        self._refresh_fast_path()

    # ------------------------------------------------------------------
    # Seams: every one is a property so that attaching or detaching it
    # re-decides whether the inlined fast path may serve requests.
    # ------------------------------------------------------------------

    @property
    def policy(self) -> "ReplacementPolicy":
        """The active replacement policy (swap via :meth:`switch_policy`)."""
        return self._policy

    @policy.setter
    def policy(self, policy: "ReplacementPolicy") -> None:
        self._policy = policy
        self._refresh_fast_path()

    @property
    def observer(self) -> "EventSink | None":
        """Optional event sink (see :mod:`repro.obs`).  ``None`` means every
        emission site reduces to one attribute check — tracing costs
        nothing unless someone listens."""
        return self._observer

    @observer.setter
    def observer(self, sink: "EventSink | None") -> None:
        self._observer = sink
        self._refresh_fast_path()

    @property
    def durability(self) -> "DurabilityManager | None":
        """Optional durability seam (see :mod:`repro.wal.manager`).  Like
        the observer, ``None`` reduces every hook site to one attribute
        check, keeping the undurable core bit-identical."""
        return self._durability

    @durability.setter
    def durability(self, durability: "DurabilityManager | None") -> None:
        self._durability = durability
        self._refresh_fast_path()

    @property
    def tuner(self) -> "object | None":
        """Optional self-tuning tap (see :mod:`repro.tuning`): an object
        with ``on_access(manager, frame, hit)``, called after every served
        request so ghost caches can shadow the live reference stream.
        ``None`` costs nothing and stays bit-identical."""
        return self._tuner

    @tuner.setter
    def tuner(self, tuner: "object | None") -> None:
        self._tuner = tuner
        self._refresh_fast_path()

    def _refresh_fast_path(self) -> None:
        """Rebind ``fetch`` to the inlined fast path iff no seam is live.

        The fast path assumes: no observer to emit to, no durability tick,
        no tuning tap.  The policy's ``on_hit`` is *elided* (not called at
        all) when the policy inherits the base no-op — checked by identity
        against :class:`~repro.buffer.policies.base.ReplacementPolicy`, so
        a policy that overrides the hook always receives it.

        The path is built as a closure so the frame table, its bound
        ``get``, the stats object and the hook are free variables instead
        of per-request attribute lookups.  All of them are stable for the
        life of the manager (``clear()`` resets them in place); anything
        that can change — policy, seams — rebuilds the closure through the
        property setters.
        """
        from repro.buffer.policies.base import ReplacementPolicy

        # Back to the class-level reference fetch; it serves every request
        # while a seam is live, and the fast path's misses otherwise.
        # ``del``, not ``__dict__.pop``: touching ``__dict__`` materialises
        # it, which de-specialises every attribute load of the hot path on
        # CPython 3.11+ (measured: -25 % on hits).
        try:
            del self.fetch
        except AttributeError:
            pass
        if (
            self._observer is not None
            or self._durability is not None
            or self._tuner is not None
        ):
            return

        policy = self._policy
        if type(policy).on_hit is ReplacementPolicy.on_hit:
            hook = None
        else:
            hook = policy.on_hit
        mgr = self
        table = self.frames
        get = table.get
        stats = self._stats
        miss = self.fetch
        length = len
        limit = table.PENDING_LIMIT
        pending = table.pending
        pend = pending.append
        flush = table._flush_pending

        def fetch_fast(page_id: PageId) -> Page:
            """Seam-free ``fetch``: the reference steps, inlined.

            Clock, stats and frame stamps are eager and equal the
            reference path's exactly; only the chain splice is deferred
            (see :meth:`FrameTable.move_to_tail`).  The hook runs *before*
            the timestamp renewal and the recency append — ASB reads the
            pre-renewal recency (its chain walk enters through the
            flushing ``tail`` property, so deferred renewals of earlier
            requests are applied, and this request's own renewal is not
            yet pending).
            """
            frame = get(page_id)
            if frame is None:
                # No state was touched yet: the reference path takes over.
                return miss(page_id)
            mgr._clock = clock = mgr._clock + 1
            stats.requests += 1
            stats.hits += 1
            if mgr._in_query:
                query_id = mgr._query_id
            else:
                mgr._query_id = query_id = mgr._query_id + 1
            if hook is not None:
                hook(frame, frame.last_query == query_id)
            frame.last_access = clock
            frame.last_query = query_id
            frame.access_count += 1
            pend(frame)
            if length(pending) >= limit:
                flush()
            return frame.page

        self.fetch = fetch_fast  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    # Logical time and query correlation
    # ------------------------------------------------------------------

    @property
    def stats(self) -> BufferStats:
        """Hit/miss accounting."""
        return self._stats

    @property
    def clock(self) -> int:
        """The logical access counter (one tick per request)."""
        return self._clock

    @property
    def current_query(self) -> int:
        """Id of the running query; accesses sharing it are correlated."""
        return self._query_id

    @contextmanager
    def query_scope(self) -> Iterator[int]:
        """Bracket one query: all requests inside are correlated.

        The paper (Section 2.2) treats two page accesses as correlated if
        they belong to the same query; LRU-K folds correlated re-references
        into a single history entry.
        """
        self._query_id += 1
        self._in_query = True
        self.stats.queries += 1
        try:
            yield self._query_id
        finally:
            self._in_query = False

    # ------------------------------------------------------------------
    # Page requests
    # ------------------------------------------------------------------

    def fetch(self, page_id: PageId) -> Page:
        """Request a page; serve it from a frame or load it from disk.

        The three steps — :meth:`begin_request`, :meth:`serve_hit`,
        :meth:`complete_miss` — are exposed separately so that wrappers
        (the concurrent buffer service) can interleave their own logic
        (lock hand-off, miss coalescing) between them while reusing the
        single-threaded core unchanged.  When no seam is attached the
        instance serves requests through the closure built by
        :meth:`_refresh_fast_path` instead, with bit-identical results.
        """
        self.begin_request(page_id)
        frame = self.frames.get(page_id)
        if frame is not None:
            return self.serve_hit(frame)
        self.stats.misses += 1
        page = self.disk.read(page_id)
        return self.complete_miss(page)

    def begin_request(self, page_id: PageId) -> None:
        """Step 1 of a request: advance the clock, count it, emit ``fetch``."""
        self._clock += 1
        self._stats.requests += 1
        if not self._in_query:
            # Requests outside any query scope get a fresh query id each, so
            # they are never correlated with one another.
            self._query_id += 1
        observer = self._observer
        if observer is not None:
            observer.emit(
                BufferEvent(
                    kind="fetch",
                    clock=self._clock,
                    page_id=page_id,
                    query=self._query_id,
                )
            )
        durability = self._durability
        if durability is not None:
            durability.tick(self)

    def serve_hit(self, frame: Frame) -> Page:
        """Step 2a: the page is resident — account the hit and serve it."""
        self.stats.hits += 1
        correlated = frame.last_query == self._query_id
        observer = self._observer
        if observer is not None:
            observer.emit(
                BufferEvent(
                    kind="hit",
                    clock=self._clock,
                    page_id=frame.page_id,
                    query=self._query_id,
                    correlated=correlated,
                    level=frame.page.level,
                )
            )
        # The policy hook runs before the timestamp renewal so policies
        # can still see the page's recency as of *before* this access
        # (ASB's LRU-criterion comparison relies on that).
        self._policy.on_hit(frame, correlated)
        frame.touch(self._clock, self._query_id)
        self.frames.move_to_tail(frame)
        tuner = self._tuner
        if tuner is not None:
            tuner.on_access(self, frame, True)
        return frame.page

    def complete_miss(self, page: Page) -> Page:
        """Step 2b: the page was read from disk — emit ``miss`` and admit it.

        The caller is responsible for incrementing ``stats.misses`` *before*
        the disk read (as :meth:`fetch` does), so a failed read still counts
        as the miss that caused it.
        """
        observer = self._observer
        if observer is not None:
            observer.emit(
                BufferEvent(
                    kind="miss",
                    clock=self._clock,
                    page_id=page.page_id,
                    query=self._query_id,
                    level=page.level,
                )
            )
        frame = self._admit(page)
        tuner = self._tuner
        if tuner is not None:
            tuner.on_access(self, frame, False)
        return frame.page

    def _admit(self, page: Page) -> Frame:
        """Place a freshly read page into a frame, evicting if needed."""
        if len(self.frames) >= self.capacity:
            self._evict_one()
        frame = self.frames.admit(page, self._clock, self._query_id)
        self._policy.on_load(frame)
        return frame

    def _evict_one(self) -> None:
        """Ask the policy for a victim and drop it (writing back if dirty).

        Raises :class:`BufferFullError` when every resident frame is
        pinned — guaranteed here at the manager level, so no policy's
        internal selection (``min()`` over an empty candidate list would
        surface as an opaque :class:`ValueError`) can leak through.
        """
        if self._pinned_frames >= len(self.frames):
            raise BufferFullError(
                f"all {len(self.frames)} resident pages are pinned; "
                "cannot evict to make room"
            )
        victim_id = self._policy.select_victim()
        frame = self.frames.get(victim_id)
        if frame is None:
            raise RuntimeError(
                f"policy selected page {victim_id}, which is not resident"
            )
        if frame.pinned:
            raise RuntimeError(f"policy selected pinned page {victim_id}")
        self._drop(frame)

    def _drop(self, frame: Frame) -> None:
        # The evict event reports whether the eviction *found* the frame
        # dirty; capture that before the write-back cleans the flag.
        was_dirty = frame.dirty
        self.writeback_frame(frame)
        self.frames.remove(frame.page_id)
        self.stats.evictions += 1
        observer = self._observer
        if observer is not None:
            observer.emit(
                BufferEvent(
                    kind="evict",
                    clock=self._clock,
                    page_id=frame.page_id,
                    dirty=was_dirty,
                    age=self._clock - frame.loaded_at,
                )
            )
        self._policy.on_evict(frame)

    def writeback_frame(self, frame: Frame, disk: object | None = None) -> None:
        """Write one dirty frame back and mark it clean; no-op when clean.

        The single write-back site shared by evictions, :meth:`flush` and
        the background flusher (which passes its retry-wrapped ``disk``).
        When a durability seam is attached, the WAL invariant is enforced
        here: the page's covering log records are forced durable before
        the data-disk write.
        """
        if not frame.dirty:
            return
        durability = self._durability
        if durability is not None:
            durability.before_writeback(frame.page_id)
        (disk if disk is not None else self.disk).write(frame.page)
        frame.dirty = False
        self.stats.writebacks += 1
        observer = self._observer
        if observer is not None:
            observer.emit(
                BufferEvent(
                    kind="writeback", clock=self._clock, page_id=frame.page_id
                )
            )

    def install(self, page: Page) -> None:
        """Place a newly allocated page into a frame without a disk read.

        Freshly created pages (index node splits during buffered updates)
        are born in the buffer in a real system — charging a read for them
        would be wrong.  The page enters dirty: it has never been written.
        If the id is already resident (an id reused after :meth:`discard`),
        the frame is replaced.
        """
        self._clock += 1
        existing = self.frames.get(page.page_id)
        if existing is not None:
            self.discard(page.page_id)
        frame = self._admit(page)
        frame.dirty = True
        durability = self._durability
        if durability is not None:
            durability.on_page_update(frame.page)

    def discard(self, page_id: PageId) -> None:
        """Drop a resident page without writing it back.

        Used when a page is *deallocated* (its content is dead, write-back
        would be wasted I/O — and a stale frame under a reused id would
        corrupt the view).  A no-op for non-resident pages.  The dropped
        frame counts as an eviction, matching the ``evict`` event emitted
        below — event-stream replays and :class:`BufferStats` must agree.
        """
        frame = self.frames.get(page_id)
        if frame is None:
            return
        if frame.pinned:
            raise RuntimeError(f"cannot discard pinned page {page_id}")
        self.frames.remove(page_id)
        self.stats.evictions += 1
        if self._observer is not None:
            self._observer.emit(
                BufferEvent(
                    kind="evict",
                    clock=self._clock,
                    page_id=page_id,
                    dirty=frame.dirty,
                    age=self._clock - frame.loaded_at,
                )
            )
        self._policy.on_evict(frame)

    # ------------------------------------------------------------------
    # Pinning and dirtying
    # ------------------------------------------------------------------

    @property
    def pinned_count(self) -> int:
        """Number of resident frames currently holding at least one pin."""
        return self._pinned_frames

    def pin(self, page_id: PageId) -> None:
        """Protect a resident page from eviction (e.g. R-tree root pinning)."""
        frame = self._frame_or_raise(page_id)
        frame.pin_count += 1
        if frame.pin_count == 1:
            self._pinned_frames += 1

    def fetch_pinned(self, page_id: PageId) -> Page:
        """Fetch a page and pin it in one step (service hook).

        The page-service PIN operation needs "make resident, then pin"
        as one call; sequentially that is just fetch + pin.  The caller
        owns the pin and must :meth:`unpin` it later.
        """
        page = self.fetch(page_id)
        self.pin(page_id)
        return page

    @contextmanager
    def pinned(self, page_id: PageId) -> Iterator[Page]:
        """RAII pin guard: fetch the page and keep it pinned in the block.

        ``with buffer.pinned(page_id) as page:`` guarantees the page stays
        resident for the duration of the block and that the pin is released
        on exit — including when the block raises.  Guards nest: each entry
        adds one pin, each exit removes exactly one.
        """
        page = self.fetch(page_id)
        self.pin(page_id)
        try:
            yield page
        finally:
            # The frame may have left the buffer through clear(force=True)
            # or a force-unpin; releasing a pin that no longer exists must
            # not mask the block's own exception with a bookkeeping error.
            frame = self.frames.get(page_id)
            if frame is not None and frame.pin_count > 0:
                self.unpin(page_id)

    def unpin(self, page_id: PageId) -> None:
        frame = self._frame_or_raise(page_id)
        if frame.pin_count == 0:
            raise ValueError(f"page {page_id} is not pinned")
        frame.pin_count -= 1
        if frame.pin_count == 0:
            self._pinned_frames -= 1

    def mark_dirty(self, page_id: PageId) -> None:
        """Flag a resident page as modified; it is written back on eviction."""
        frame = self._frame_or_raise(page_id)
        frame.dirty = True
        frame.invalidate_criteria()
        frame.page.drop_scan()
        self._policy.on_update(frame)
        durability = self._durability
        if durability is not None:
            durability.on_page_update(frame.page)

    def _frame_or_raise(self, page_id: PageId) -> Frame:
        frame = self.frames.get(page_id)
        if frame is None:
            raise KeyError(f"page {page_id} is not resident")
        return frame

    # ------------------------------------------------------------------
    # Live policy hand-off (see :mod:`repro.tuning`)
    # ------------------------------------------------------------------

    def switch_policy(self, policy: "ReplacementPolicy") -> "ReplacementPolicy":
        """Hand the buffer to a fresh policy without evicting a page.

        The safe hand-off protocol of the tuning controller: the incoming
        policy attaches, rebuilds its bookkeeping from the resident frames
        (:meth:`~repro.buffer.policies.base.ReplacementPolicy.seed_resident`
        replays them oldest-access first), and only then becomes the
        active policy — no frame is dropped, copied or unpinned, and the
        hit/miss accounting is untouched, so ``hits + misses ==
        requests`` holds across the switch.  Returns the replaced policy
        (now detached from duty but still bound to this buffer for
        introspection).

        The resident frames are handed over straight off the recency
        chain, which is already ordered oldest-access first — the
        migration costs O(1) per resident page, no sorting.
        """
        old = self._policy
        if policy is old:
            return old
        policy.attach(self)
        policy.seed_resident(list(self.frames.iter_recency()))
        self.policy = policy
        return old

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def flush(self) -> None:
        """Write all dirty frames back to disk without evicting them."""
        for frame in self.frames.values():
            self.writeback_frame(frame)

    def drain(self) -> None:
        """Graceful-shutdown hook: flush everything through the WAL path.

        With a durability seam attached this takes a checkpoint (all
        dirty frames written back under the WAL invariant, durable
        CHECKPOINT record) and syncs the log; without one it is a plain
        :meth:`flush`.
        """
        durability = self._durability
        if durability is not None:
            durability.checkpoint(self)
            durability.sync()
        else:
            self.flush()

    def clear(self, force: bool = False) -> None:
        """Empty the buffer (flushing dirty pages) and reset the policy.

        Statistics are reset too: the paper clears the buffer before every
        query set so that sets can be compared in isolation.

        A clear while frames are pinned would leave the pin holders with
        dangling references to pages that are no longer resident, so it
        raises :class:`BufferFullError` *before* touching any state.  Pass
        ``force=True`` to override: the pins are dropped with a warning and
        the clear proceeds — only safe when the caller knows every pin
        holder is gone (e.g. tearing down an experiment).
        """
        if self._pinned_frames > 0:
            if not force:
                raise BufferFullError(
                    f"clear() with {self._pinned_frames} pinned frame(s) "
                    "resident would dangle their pins; unpin first or pass "
                    "force=True"
                )
            import warnings

            warnings.warn(
                f"clear(force=True) dropped {self._pinned_frames} pinned "
                "frame(s); any outstanding pin guards now reference "
                "non-resident pages",
                RuntimeWarning,
                stacklevel=2,
            )
            for frame in self.frames.values():
                frame.pin_count = 0
        self.flush()
        for frame in list(self.frames.values()):
            self._policy.on_evict(frame)
        self.frames.clear()
        self._pinned_frames = 0
        self._policy.reset()
        self.stats.reset()

    def contains(self, page_id: PageId) -> bool:
        return page_id in self.frames

    def __len__(self) -> int:
        return len(self.frames)

    def resident_ids(self) -> list[PageId]:
        return sorted(self.frames)

    def evictable_frames(self) -> list[Frame]:
        """All unpinned frames — the victim universe offered to policies."""
        return [frame for frame in self.frames.values() if not frame.pinned]


# Imported last: repro.obs depends on this module for its replay driver, so
# a top-of-file import would be circular.  By this point every name the obs
# package needs is defined, and the import succeeds from either direction.
from repro.obs.events import BufferEvent  # noqa: E402
