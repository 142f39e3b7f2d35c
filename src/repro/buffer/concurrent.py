"""A thread-safe buffer service over the single-threaded core.

The paper's ASB is motivated by servers where "different queries ... are
processed concurrently"; this module provides the execution path that lets
the reproduction actually *run* concurrent clients instead of simulating
interleavings.  :class:`ConcurrentBufferManager` implements the full page
accessor protocol (see :mod:`repro.access`), so indexes, queries and
workload drivers written against the protocol run on it unchanged.

Design
======

**Sharded locks.**  The frame pool is split into ``shards`` independent
sub-pools, each a plain single-threaded
:class:`~repro.buffer.manager.BufferManager` (frame table + its own policy
instance) guarded by one lock.  Pages route to shards by id, so threads
touching disjoint pages contend only on their shard, and the classical
one-big-latch bottleneck (the contention point buffer-management surveys
engineer around) shrinks by the shard count.  Because each shard runs the
unmodified sequential core, every policy's documented invariants hold
per shard — a policy never observes concurrent mutation.

**Lock-free statistics.**  The hot-path counters (requests, hits, misses,
coalesced waits, query scopes) go to per-thread counter records registered
once per thread; reading :attr:`stats` merges the records.  No counter
update takes a lock, and no thread writes another thread's record.

**Miss coalescing.**  Concurrent misses on the same page would each issue
the identical disk read.  A per-shard in-flight table makes the first
misser the *loader* (it reads the disk outside the shard lock, then admits
the page); later missers wait on an event the first of them creates and
are then served from the frame it installed.  Exactly one disk read per
coalesced group — waiters count as hits on the loaded frame, with the wait
recorded in the ``coalesced`` counter.

**Query correlation.**  Scope ids come from one process-wide counter, and
the current scope travels in a ``threading.local``: each thread's scope
brackets *its* queries, so two clients' concurrent queries are never
correlated (the multi-client semantics LRU-K needs), while one client's
page accesses within a query still are.

Logical clocks are per shard.  Single-threaded replays through a
one-shard service behave exactly like a plain :class:`BufferManager`;
with several shards, event streams interleave in emission order and each
shard ticks independently — consumers that need a total order get the
lock-acquisition order of the (thread-safe) observer.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterator

from repro.buffer.manager import BufferManager
from repro.buffer.stats import BufferStats
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page, PageId

if TYPE_CHECKING:
    from repro.buffer.policies.base import ReplacementPolicy
    from repro.obs.events import EventSink
    from repro.wal.manager import DurabilityManager

#: A fresh policy per shard — policy instances bind to one buffer manager.
PolicyFactory = Callable[[], "ReplacementPolicy"]


class _ThreadCounters:
    """One thread's private slice of the service statistics."""

    __slots__ = ("requests", "hits", "misses", "coalesced", "queries")

    def __init__(self) -> None:
        self.requests = 0
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self.queries = 0


class _InFlight:
    """One in-progress disk read that concurrent missers wait on."""

    __slots__ = ("event", "error", "superseded")

    def __init__(self) -> None:
        #: Created by the first waiter and set by the loader, both under
        #: the shard lock; a miss nobody waits on allocates none.
        self.event: threading.Event | None = None
        self.error: BaseException | None = None
        #: Set by install()/discard() while the read is in flight: the
        #: bytes being loaded may describe an older version of the page
        #: than what just went through the buffer, so the loader must not
        #: admit them (see the retry loop in fetch()).
        self.superseded = False


class _Shard:
    """One lock-protected sub-pool: a sequential core plus coalescing state."""

    __slots__ = ("lock", "manager", "inflight")

    def __init__(self, manager: BufferManager) -> None:
        self.lock = threading.RLock()
        self.manager = manager
        self.inflight: dict[PageId, _InFlight] = {}


class ConcurrentBufferManager:
    """Thread-safe page service: sharded sequential cores, coalesced misses.

    Implements the full page accessor protocol.  ``capacity`` is the total
    frame count, split as evenly as possible over ``shards`` sub-pools;
    ``policy_factory`` is called once per shard (policies bind to a single
    manager).  An ``observer`` is wrapped in a
    :class:`~repro.obs.events.LockingSink` automatically, so any
    single-threaded sink can be attached directly.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        capacity: int,
        policy_factory: PolicyFactory,
        shards: int = 4,
        observer: "EventSink | None" = None,
        durability: "DurabilityManager | None" = None,
    ) -> None:
        from repro.obs.events import LockingSink

        if shards < 1:
            raise ValueError("shard count must be at least 1")
        if capacity < shards:
            raise ValueError(
                f"capacity {capacity} cannot give each of {shards} shards a frame"
            )
        if durability is not None and durability.checkpoint_interval:
            # A checkpoint must cover *every* frame pool, but the tick hook
            # fires inside one shard core and sees only that shard's
            # frames.  Automatic checkpoints would silently violate the
            # redo-start guarantee; use the explicit checkpoint() instead.
            raise ValueError(
                "automatic checkpoints (checkpoint_interval > 0) are only "
                "valid for a single sequential buffer; call "
                "ConcurrentBufferManager.checkpoint() explicitly"
            )
        self.disk = disk
        self.capacity = capacity
        self._observer = LockingSink.wrapping(observer)
        #: Shared durability seam, if any (all shards feed one WAL; its
        #: internal lock always nests *inside* the shard locks).
        self.durability = durability
        base, extra = divmod(capacity, shards)
        self._shards = [
            _Shard(
                BufferManager(
                    disk,
                    base + (1 if index < extra else 0),
                    policy_factory(),
                    observer=self._observer,
                    durability=durability,
                )
            )
            for index in range(shards)
        ]
        # Process-wide query ids: `next()` on an itertools.count is atomic
        # under CPython, so scope allocation takes no lock.
        self._query_ids = itertools.count(1)
        self._scopes = threading.local()
        # Per-thread counter records.  Registration (first use per thread)
        # takes the registry lock once; every later update is lock-free.
        self._counters_local = threading.local()
        self._registry: list[_ThreadCounters] = []
        self._registry_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Internals: routing, counters, query binding
    # ------------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def shard_of(self, page_id: PageId) -> int:
        """Index of the shard serving ``page_id`` (stable, id-hash routing)."""
        return page_id % len(self._shards)

    def _shard(self, page_id: PageId) -> _Shard:
        return self._shards[page_id % len(self._shards)]

    def _counters(self) -> _ThreadCounters:
        counters = getattr(self._counters_local, "value", None)
        if counters is None:
            counters = _ThreadCounters()
            self._counters_local.value = counters
            with self._registry_lock:
                self._registry.append(counters)
        return counters

    def _scope_stack(self) -> list[int]:
        stack = getattr(self._scopes, "stack", None)
        if stack is None:
            stack = []
            self._scopes.stack = stack
        return stack

    def _request_query_id(self) -> int:
        """The current thread's scope id, or a fresh uncorrelated one."""
        stack = self._scope_stack()
        if stack:
            return stack[-1]
        return next(self._query_ids)

    @staticmethod
    def _bind(manager: BufferManager, query_id: int) -> None:
        """Impose the calling thread's query context on a shard core.

        The sequential core keeps its query state in instance fields; under
        the shard lock we overwrite them with the thread's scope before
        every operation, so correlation follows threads, not shards.
        ``_in_query`` stays True so the core never allocates ids of its
        own — all ids come from the process-wide counter.
        """
        manager._query_id = query_id
        manager._in_query = True

    # ------------------------------------------------------------------
    # Page requests
    # ------------------------------------------------------------------

    def fetch(self, page_id: PageId) -> Page:
        """Request a page; at most one disk read per concurrent miss group."""
        counters = self._counters()
        counters.requests += 1
        query_id = self._request_query_id()
        shard = self._shard(page_id)
        manager = shard.manager
        first_attempt = True
        counted_miss = False
        while True:
            with shard.lock:
                self._bind(manager, query_id)
                if first_attempt:
                    manager.begin_request(page_id)
                    first_attempt = False
                frame = manager.frames.get(page_id)
                if frame is not None:
                    counters.hits += 1
                    return manager.serve_hit(frame)
                entry = shard.inflight.get(page_id)
                if entry is None:
                    # We are the loader for this miss group.  One request is
                    # at most one miss, however many times the loop retries.
                    entry = _InFlight()
                    shard.inflight[page_id] = entry
                    if not counted_miss:
                        manager.stats.misses += 1
                        counters.misses += 1
                        counted_miss = True
                    am_loader = True
                else:
                    if entry.event is None:
                        entry.event = threading.Event()
                    am_loader = False
            if not am_loader:
                # Another thread is already reading this page: wait without
                # holding the shard lock, then retry the lookup.  If the
                # frame was evicted again before we re-acquired the lock,
                # the loop promotes us to loader — a genuine second miss.
                counters.coalesced += 1
                entry.event.wait()
                if entry.error is not None:
                    raise entry.error
                continue
            # Loader path: the read happens outside the lock so the shard
            # keeps serving hits (and other misses) meanwhile.
            try:
                page = self.disk.read(page_id)
            except BaseException as exc:
                with shard.lock:
                    del shard.inflight[page_id]
                    entry.error = exc
                    if entry.event is not None:
                        entry.event.set()
                raise
            with shard.lock:
                self._bind(manager, query_id)
                try:
                    frame = manager.frames.get(page_id)
                    if frame is not None:
                        # install() made the page resident while we were off
                        # the lock reading disk — it goes straight through
                        # the shard lock and never consults the in-flight
                        # table.  Admitting our (stale) copy on top would
                        # orphan the resident frame inside the recency
                        # chain; serve the resident page instead.
                        return frame.page
                    if not entry.superseded:
                        return manager.complete_miss(page)
                    # An install()/discard() landed during our read and its
                    # frame is already gone again (evicted after write-back,
                    # or deallocated).  Our bytes may predate it — admitting
                    # them would resurrect a stale version.  Retry: the
                    # eviction wrote the newer version back before dropping
                    # the frame, so a fresh read observes it.
                except BaseException as exc:
                    entry.error = exc
                    raise
                finally:
                    del shard.inflight[page_id]
                    if entry.event is not None:
                        entry.event.set()

    def install(self, page: Page) -> None:
        """Place a newly allocated page into its shard without a disk read."""
        shard = self._shard(page.page_id)
        with shard.lock:
            self._bind(shard.manager, self._request_query_id())
            shard.manager.install(page)
            self._supersede(shard, page.page_id)

    def discard(self, page_id: PageId) -> None:
        """Drop a resident page without write-back (deallocation)."""
        shard = self._shard(page_id)
        with shard.lock:
            shard.manager.discard(page_id)
            self._supersede(shard, page_id)

    @staticmethod
    def _supersede(shard: _Shard, page_id: PageId) -> None:
        """Flag in-flight loads whose bytes this mutation may have outdated.

        Called under the shard lock by install()/discard().  A loader off
        the lock in ``disk.read`` may be holding bytes that predate this
        mutation; if the mutated frame is evicted again before the loader
        re-acquires the lock, the resident-frame re-check alone would not
        stop it from admitting the stale copy.
        """
        entry = shard.inflight.get(page_id)
        if entry is not None:
            entry.superseded = True

    def mark_dirty(self, page_id: PageId) -> None:
        shard = self._shard(page_id)
        with shard.lock:
            shard.manager.mark_dirty(page_id)

    # ------------------------------------------------------------------
    # Pinning
    # ------------------------------------------------------------------

    def pin(self, page_id: PageId) -> None:
        shard = self._shard(page_id)
        with shard.lock:
            shard.manager.pin(page_id)

    def unpin(self, page_id: PageId) -> None:
        shard = self._shard(page_id)
        with shard.lock:
            shard.manager.unpin(page_id)

    @property
    def pinned_count(self) -> int:
        """Pinned resident frames across all shards (snapshot)."""
        total = 0
        for shard in self._shards:
            with shard.lock:
                total += shard.manager._pinned_frames
        return total

    def fetch_pinned(self, page_id: PageId) -> Page:
        """Fetch a page and pin it in one step, race-safe (service hook).

        Another thread's eviction can win the window between the fetch
        and the pin, so the pair retries under the shard lock until the
        page is both resident and pinned — the same loop as
        :meth:`pinned`, but with the pin's lifetime owned by the caller
        (the page service holds it across requests until UNPIN).
        """
        shard = self._shard(page_id)
        while True:
            page = self.fetch(page_id)
            with shard.lock:
                if page_id in shard.manager.frames:
                    shard.manager.pin(page_id)
                    return page

    @contextmanager
    def pinned(self, page_id: PageId) -> Iterator[Page]:
        """RAII pin guard, race-safe: retries if the page is evicted
        between the fetch and the pin (another thread's eviction can win
        that window), so the block always sees a resident, pinned page."""
        shard = self._shard(page_id)
        while True:
            page = self.fetch(page_id)
            with shard.lock:
                if page_id in shard.manager.frames:
                    shard.manager.pin(page_id)
                    break
        try:
            yield page
        finally:
            with shard.lock:
                frame = shard.manager.frames.get(page_id)
                if frame is not None and frame.pin_count > 0:
                    shard.manager.unpin(page_id)

    # ------------------------------------------------------------------
    # Query correlation
    # ------------------------------------------------------------------

    @contextmanager
    def query_scope(self) -> Iterator[int]:
        """Bracket one query of the *calling thread*.

        Scope ids are process-wide unique, so queries of different threads
        are never correlated; within the block, the thread's page accesses
        share the id (the paper's correlation unit).
        """
        query_id = next(self._query_ids)
        stack = self._scope_stack()
        stack.append(query_id)
        self._counters().queries += 1
        try:
            yield query_id
        finally:
            stack.pop()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def flush(self) -> None:
        """Write all dirty frames back, shard by shard."""
        for shard in self._shards:
            with shard.lock:
                shard.manager.flush()

    def drain(self) -> None:
        """Graceful-shutdown hook: flush everything through the WAL path.

        With a durability seam attached this is a full checkpoint (all
        shards flushed under the WAL invariant, durable CHECKPOINT
        record) followed by a log sync, so the durable medium equals a
        committed-prefix replay; without one it is a plain :meth:`flush`.
        Like :meth:`checkpoint`, call it at a quiescent point — the page
        server stops admitting requests before draining.
        """
        if self.durability is not None:
            self.checkpoint()
            self.durability.sync()
        else:
            self.flush()

    def _require_durability(self) -> "DurabilityManager":
        if self.durability is None:
            raise RuntimeError(
                "no durability seam attached (pass durability= to the "
                "constructor)"
            )
        return self.durability

    def commit(self) -> int:
        """Request a durability point on the shared WAL (group commit)."""
        return self._require_durability().commit()

    def checkpoint(self) -> int:
        """Flush every shard's dirty frames, then log a durable CHECKPOINT.

        Like :meth:`clear`, this is a quiescent-point operation: updates
        running concurrently with the checkpoint may land in an
        already-flushed shard and be logged *before* the CHECKPOINT
        record, which redo would then skip.  Call it between batches, not
        under them.  Returns the checkpoint LSN.
        """
        durability = self._require_durability()
        durability.begin_checkpoint()
        for shard in self._shards:
            with shard.lock:
                durability.flush_buffer(shard.manager)
        return durability.finish_checkpoint()

    def clear(self, force: bool = False) -> None:
        """Empty every shard and zero the statistics.

        Raises :class:`~repro.buffer.manager.BufferFullError` if any shard
        holds pinned frames (see :meth:`BufferManager.clear`); the check
        runs across all shards *before* any shard is cleared, so a refused
        clear leaves the whole service untouched.  Like its sequential
        counterpart this is a quiescent-point operation: concurrent
        fetches during a clear see either the old or the new epoch.
        """
        from repro.buffer.manager import BufferFullError

        if not force:
            pinned = 0
            for shard in self._shards:
                with shard.lock:
                    pinned += shard.manager._pinned_frames
            if pinned:
                raise BufferFullError(
                    f"clear() with {pinned} pinned frame(s) resident would "
                    "dangle their pins; unpin first or pass force=True"
                )
        for shard in self._shards:
            with shard.lock:
                shard.manager.clear(force=force)
        with self._registry_lock:
            for counters in self._registry:
                counters.requests = 0
                counters.hits = 0
                counters.misses = 0
                counters.coalesced = 0
                counters.queries = 0

    # ------------------------------------------------------------------
    # Statistics and introspection
    # ------------------------------------------------------------------

    @property
    def stats(self) -> BufferStats:
        """Merged statistics snapshot (fresh object, like the partitioned
        manager's): request counters from the per-thread records,
        eviction/write-back counters from the shard cores."""
        total = BufferStats()
        with self._registry_lock:
            records = list(self._registry)
        for counters in records:
            total.requests += counters.requests
            total.hits += counters.hits
            total.misses += counters.misses
            total.queries += counters.queries
        for shard in self._shards:
            with shard.lock:
                total.evictions += shard.manager.stats.evictions
                total.writebacks += shard.manager.stats.writebacks
        return total

    @property
    def coalesced_misses(self) -> int:
        """Requests that waited on another thread's in-flight read."""
        with self._registry_lock:
            records = list(self._registry)
        return sum(counters.coalesced for counters in records)

    def stats_snapshot(self) -> dict[str, float]:
        """The merged stats as a dict, with the coalescing counter added."""
        snapshot = self.stats.snapshot()
        snapshot["coalesced"] = self.coalesced_misses
        return snapshot

    @property
    def observer(self) -> "EventSink | None":
        """The (lock-wrapped) event sink shared by all shards."""
        return self._observer

    def contains(self, page_id: PageId) -> bool:
        shard = self._shard(page_id)
        with shard.lock:
            return shard.manager.contains(page_id)

    def __len__(self) -> int:
        total = 0
        for shard in self._shards:
            with shard.lock:
                total += len(shard.manager)
        return total

    def resident_ids(self) -> list[PageId]:
        ids: list[PageId] = []
        for shard in self._shards:
            with shard.lock:
                ids.extend(shard.manager.resident_ids())
        return sorted(ids)

    def shard_managers(self) -> list[BufferManager]:
        """The per-shard sequential cores (introspection and tests).

        Callers must not mutate them while other threads are active."""
        return [shard.manager for shard in self._shards]
