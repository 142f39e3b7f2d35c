"""The durability seam between buffer managers and the write-ahead log.

A :class:`DurabilityManager` owns the WAL, the page-LSN table and the
background write-back machinery.  Buffer managers talk to it through four
narrow hooks — ``on_page_update`` (a page was dirtied or installed),
``before_writeback`` (the WAL invariant), ``tick`` (background cadence)
and ``free_page`` (durable deallocation) — and pass ``durability=None``
to opt out entirely: with the seam unplugged every hook site reduces to
one attribute check, so the sequential cores stay golden-trace-identical.

The WAL invariant
=================

No page reaches the data disk before the log records describing its
content are durable: ``before_writeback`` forces
``flush_to(page_lsn)`` and then *verifies* ``page_lsn <= flushed_lsn``,
raising :class:`WalInvariantError` if the log failed to keep the promise.
The invariant is what makes redo-only recovery sufficient — every byte on
the data disk is explained by a durable log record.

Background write-back
=====================

``flush_interval > 0`` turns on the background flusher: every that many
buffer requests, up to ``flush_batch`` *cold* dirty frames are written
back without being evicted.  Cold is defined by the **active replacement
policy** via :meth:`~repro.buffer.policies.base.ReplacementPolicy.flush_priority`
— the frames the policy would evict soonest are cleaned first, so a later
eviction finds them clean (no forced write in the latency path) and the
flusher never distorts the eviction order itself (it touches no
policy state, only the dirty flag).

``checkpoint_interval > 0`` additionally takes periodic checkpoints:
flush *all* dirty frames, sync the page store, then log a CHECKPOINT
record — recovery may skip every earlier record.  Automatic checkpoints require a single
sequential buffer (a checkpoint must cover every frame pool); the
concurrent service exposes an explicit all-shard
:meth:`~repro.buffer.concurrent.ConcurrentBufferManager.checkpoint`
instead.

Both the flusher and recovery write through a bounded-retry wrapper
(:class:`~repro.storage.retry.RetryingDisk`), so transient disk failures
do not abort background cleaning or redo.
"""

from __future__ import annotations

import itertools
import threading
from typing import TYPE_CHECKING

from repro.storage.page import Page, PageId
from repro.storage.retry import RetryingDisk, RetryPolicy
from repro.wal.durable import DurableDisk
from repro.wal.log import WriteAheadLog

if TYPE_CHECKING:
    from typing import Callable

    from repro.buffer.manager import BufferManager
    from repro.obs.events import EventSink


class WalInvariantError(RuntimeError):
    """A page write-back was attempted before its log records were durable."""


class DurabilityManager:
    """Durable write path: WAL + page LSNs + background flusher/checkpointer.

    One instance serves one :class:`~repro.wal.durable.DurableDisk` and
    may be shared by several buffer shards (all methods take an internal
    re-entrant lock; the lock order is always shard lock → durability
    lock, so shard-holding callers never deadlock).
    """

    def __init__(
        self,
        disk: DurableDisk,
        wal: WriteAheadLog | None = None,
        *,
        group_window: int = 1,
        flush_interval: int = 0,
        flush_batch: int = 8,
        checkpoint_interval: int = 0,
        observer: "EventSink | None" = None,
        retry: RetryPolicy | None = None,
        sleeper: "Callable[[float], None] | None" = None,
    ) -> None:
        self.disk = disk
        self.wal = wal if wal is not None else WriteAheadLog(
            group_window=group_window, crash=disk.crash, observer=observer
        )
        if observer is not None and self.wal.observer is None:
            self.wal.observer = observer
        self.observer = observer
        self.flush_interval = flush_interval
        self.flush_batch = flush_batch
        self.checkpoint_interval = checkpoint_interval
        #: page -> LSN of the record describing its current content.
        self.page_lsn: dict[PageId, int] = {}
        self._writer = RetryingDisk(disk, retry or RetryPolicy(), sleeper)
        self._lock = threading.RLock()
        # ``next()`` on an itertools.count is atomic under CPython, so
        # counting requests takes no lock.
        self._requests = itertools.count(1)

    # ------------------------------------------------------------------
    # Hooks called by the buffer managers
    # ------------------------------------------------------------------

    def on_page_update(self, page: Page) -> int:
        """A page was dirtied or installed: log its full image.

        Called *after* the mutation (``mark_dirty`` follows the edit), so
        the image is the page's post-update content.  Returns the LSN.
        """
        with self._lock:
            lsn = self.wal.append_page_image(page, self.disk.page_size)
            self.page_lsn[page.page_id] = lsn
            return lsn

    def before_writeback(self, page_id: PageId) -> None:
        """Enforce the WAL invariant ahead of a data-disk write."""
        with self._lock:
            lsn = self.page_lsn.get(page_id)
            if lsn is None:
                return
            self.wal.flush_to(lsn)
            if lsn > self.wal.flushed_lsn:
                raise WalInvariantError(
                    f"page {page_id} at LSN {lsn} would reach disk ahead "
                    f"of the log (flushed_lsn={self.wal.flushed_lsn})"
                )

    def commit(self) -> int:
        """Request a durability point (group commit decides the fsync)."""
        with self._lock:
            return self.wal.commit()

    def tick(self, buffer: "BufferManager") -> None:
        """Background cadence, driven by the buffer's request stream.

        Runs the flusher every ``flush_interval`` requests and a
        checkpoint every ``checkpoint_interval`` requests.  The caller
        already holds its shard lock (if any); frames of *other* shards
        are never touched here.
        """
        requests = next(self._requests)
        if self.flush_interval and requests % self.flush_interval == 0:
            self.flush_cold(buffer)
        if self.checkpoint_interval and requests % self.checkpoint_interval == 0:
            self.checkpoint(buffer)

    # ------------------------------------------------------------------
    # Background write-back
    # ------------------------------------------------------------------

    def flush_cold(self, buffer: "BufferManager", batch: int | None = None) -> int:
        """Clean up to ``batch`` cold dirty frames without evicting them.

        Candidates are the unpinned dirty frames, ordered by the active
        policy's :meth:`flush_priority` (lowest = closest to eviction), so
        write-back follows the eviction order instead of fighting it.
        Returns the number of frames cleaned.
        """
        if batch is None:
            batch = self.flush_batch
        policy = buffer.policy
        candidates = [
            frame
            for frame in buffer.frames.values()
            if frame.dirty and not frame.pinned
        ]
        candidates.sort(key=policy.flush_priority)
        cleaned = 0
        for frame in candidates[:batch]:
            buffer.writeback_frame(frame, disk=self._writer)
            cleaned += 1
        if cleaned:
            observer = self.observer
            if observer is not None:
                observer.emit(
                    BufferEvent(
                        kind="bg_flush",
                        clock=self.wal.flushed_lsn,
                        size=cleaned,
                    )
                )
        return cleaned

    def checkpoint(self, buffer: "BufferManager") -> int:
        """Flush *every* dirty frame, then log a durable CHECKPOINT.

        After the record, every page state logged before it is on the
        data disk, so recovery redo may start at the checkpoint.  Pinned
        frames are written back too — pinning protects residency, not
        cleanliness — because a skipped dirty frame would invalidate the
        redo-start guarantee.  Returns the checkpoint LSN.

        The three phases are exposed separately so the sharded concurrent
        service can flush each shard under its own lock between
        :meth:`begin_checkpoint` and :meth:`finish_checkpoint`.
        """
        self.begin_checkpoint()
        self.flush_buffer(buffer)
        return self.finish_checkpoint()

    def begin_checkpoint(self) -> None:
        """Phase 1: the ``checkpoint.before`` crash point."""
        crash = self.disk.crash
        if crash is not None:
            crash.reached("checkpoint.before")

    def flush_buffer(self, buffer: "BufferManager") -> None:
        """Phase 2: write back every dirty frame of one buffer (pool)."""
        for frame in list(buffer.frames.values()):
            if frame.dirty:
                buffer.writeback_frame(frame, disk=self._writer)

    def finish_checkpoint(self) -> int:
        """Phase 3: log the durable CHECKPOINT record; returns its LSN.

        The pages written back are synced first: the record lets recovery
        skip the log records that would otherwise restore them.
        """
        self.disk.sync()
        with self._lock:
            lsn = self.wal.append_checkpoint()
            self.wal.sync()
        crash = self.disk.crash
        if crash is not None:
            crash.reached("checkpoint.after")
        observer = self.observer
        if observer is not None:
            observer.emit(
                BufferEvent(kind="checkpoint", clock=lsn, lsn=lsn)
            )
        return lsn

    # ------------------------------------------------------------------
    # Durable deallocation
    # ------------------------------------------------------------------

    def free_page(self, buffer: "BufferManager | None", page_id: PageId) -> int:
        """Durably deallocate a page: discard, log FREE, flush, zero slot.

        The slot is zeroed only after the FREE record is durable — the
        deallocation analogue of the write-back invariant (otherwise a
        crash between delete and fsync would lose the only evidence the
        page died).  Returns the FREE record's LSN.
        """
        if buffer is not None:
            buffer.discard(page_id)
        with self._lock:
            lsn = self.wal.append_free(page_id)
            self.wal.flush_to(lsn)
            self.page_lsn.pop(page_id, None)
        self.disk.delete(page_id)
        return lsn

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def sync(self) -> None:
        """Force every pending log record durable (clean shutdown)."""
        with self._lock:
            self.wal.sync()


# Imported last: repro.obs imports buffer modules at package-init time, so
# importing it at the top of a module the buffer layer references would
# cycle during interpreter start-up.
from repro.obs.events import BufferEvent  # noqa: E402
