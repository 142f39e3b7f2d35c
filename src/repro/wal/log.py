"""The write-ahead log: append/fsync semantics and group commit.

Records are appended to a volatile tail and become durable only when an
``fsync`` copies them onto the log's byte store.  The log's contract is
the classic WAL rule consumed by the buffer layer: **no page may be
written back to the data disk before the log records describing its
state are durable** (``page_lsn <= flushed_lsn`` — enforced by
:class:`~repro.wal.manager.DurabilityManager.before_writeback`).

Redo records carry **full page images** (physical redo).  Full images
make redo idempotent and order-insensitive per page — replaying a prefix
of the durable log always yields a consistent image, which is what makes
the crash-injection property (:mod:`repro.wal.harness`) decidable at the
byte level.

**Group commit** batches fsyncs: each :meth:`commit` appends a COMMIT
record but only every ``group_window``-th commit pays an fsync, so the
fsync count per committed operation drops by the window factor — the
trade measured by ``wal.fsyncs_per_commit`` and ``wal.commit_us`` of
``python3 bench/run.py --workload served-mixed --trace 1``.  A commit is
durable (and only then survives a crash) once the fsync covering it
completes; the durable prefix of the log *is* the committed prefix.

Record format (little-endian)::

    lsn (Q) | kind (B) | page_id (q) | payload_len (I) | payload |
    crc32 over all preceding record bytes (I)

The trailing CRC makes a torn fsync detectable: scanning stops at the
first record whose checksum fails or whose bytes are truncated.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.storage.page import Page, PageId
from repro.storage.serialization import encode_page
from repro.wal.bytestore import ByteStore, MemoryByteStore
from repro.wal.crash import CrashError, CrashInjector

if TYPE_CHECKING:
    from repro.obs.events import EventSink

_RECORD_HEAD = struct.Struct("<QBqI")
_RECORD_CRC = struct.Struct("<I")

#: Record kinds.
PAGE_IMAGE = 1  #: full encoded page after an update (physical redo)
FREE = 2        #: the page was deallocated; its slot is dead
COMMIT = 3      #: durability point requested by the caller
CHECKPOINT = 4  #: all earlier page states are on the data disk

KIND_NAMES = {PAGE_IMAGE: "page", FREE: "free", COMMIT: "commit",
              CHECKPOINT: "checkpoint"}


@dataclass(frozen=True, slots=True)
class WalRecord:
    """One decoded log record."""

    lsn: int
    kind: int
    page_id: PageId
    payload: bytes = b""

    @property
    def kind_name(self) -> str:
        return KIND_NAMES.get(self.kind, f"unknown({self.kind})")


@dataclass(slots=True)
class WalStats:
    """Counters of one log's life (the group-commit benchmark's metric)."""

    appends: int = 0
    commits: int = 0
    fsyncs: int = 0
    records_flushed: int = 0
    bytes_flushed: int = 0

    @property
    def commits_per_fsync(self) -> float:
        """The group-commit batching factor (1.0 = no batching)."""
        if self.fsyncs == 0:
            return 0.0
        return self.commits / self.fsyncs


def _encode_record(lsn: int, kind: int, page_id: PageId, payload: bytes) -> bytes:
    head = _RECORD_HEAD.pack(lsn, kind, page_id, len(payload))
    body = head + payload
    return body + _RECORD_CRC.pack(zlib.crc32(body))


class WriteAheadLog:
    """An append-only, checksummed log over a byte store.

    ``group_window`` is the group-commit batch size: an fsync happens on
    every ``group_window``-th commit (window 1 = synchronous commit).
    ``flush_to`` and ``sync`` force durability regardless of the window —
    the write-back invariant and shutdown use them.
    """

    def __init__(
        self,
        store: ByteStore | None = None,
        group_window: int = 1,
        crash: CrashInjector | None = None,
        observer: "EventSink | None" = None,
    ) -> None:
        if group_window < 1:
            raise ValueError("group_window must be at least 1")
        self.store = store if store is not None else MemoryByteStore()
        self.group_window = group_window
        self.crash = crash
        self.observer = observer
        self.stats = WalStats()
        #: LSN of the last record whose bytes are durably on the store.
        self.flushed_lsn = 0
        self._pending: list[tuple[int, bytes]] = []
        self._pending_commits = 0
        self._durable_end = self.store.size()
        self._next_lsn = 1
        if self._durable_end:
            # Reopening an existing log: continue after the valid prefix.
            last = 0
            end = 0
            for record, record_end in self._scan():
                last = record.lsn
                end = record_end
            self.flushed_lsn = last
            self._durable_end = end
            self._next_lsn = last + 1

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def _append(self, kind: int, page_id: PageId, payload: bytes) -> int:
        if self.crash is not None:
            self.crash.reached("wal.append")
        lsn = self._next_lsn
        self._next_lsn += 1
        self._pending.append((lsn, _encode_record(lsn, kind, page_id, payload)))
        self.stats.appends += 1
        observer = self.observer
        if observer is not None:
            observer.emit(
                BufferEvent(
                    kind="wal_append",
                    clock=lsn,
                    lsn=lsn,
                    page_id=page_id if kind in (PAGE_IMAGE, FREE) else None,
                )
            )
        return lsn

    def append_page_image(self, page: Page, page_size: int) -> int:
        """Log the full current image of ``page``; returns its LSN."""
        return self._append(
            PAGE_IMAGE, page.page_id, encode_page(page, page_size)
        )

    def append_free(self, page_id: PageId) -> int:
        """Log the deallocation of a page."""
        return self._append(FREE, page_id, b"")

    def append_checkpoint(self) -> int:
        """Log a checkpoint; redo may start after this record."""
        return self._append(CHECKPOINT, -1, b"")

    def commit(self) -> int:
        """Request a durability point; fsyncs when the group window fills.

        Returns the COMMIT record's LSN.  The commit is durable once
        ``flushed_lsn`` reaches that LSN — immediately for window 1,
        after up to ``group_window - 1`` further commits otherwise.
        """
        lsn = self._append(COMMIT, -1, b"")
        self.stats.commits += 1
        self._pending_commits += 1
        if self._pending_commits >= self.group_window:
            self.fsync()
        return lsn

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def fsync(self) -> None:
        """Persist every pending record; advances ``flushed_lsn``."""
        crash = self.crash
        if crash is not None:
            crash.reached("wal.fsync.before")
        if not self._pending:
            if crash is not None:
                crash.reached("wal.fsync.torn")
                crash.reached("wal.fsync.after")
            return
        blob = b"".join(record for _, record in self._pending)
        last_lsn = self._pending[-1][0]
        count = len(self._pending)
        if crash is not None and crash.trips("wal.fsync.torn"):
            # A prefix of the batch reaches the medium; the scan will stop
            # at the first truncated record.
            self.store.write_at(self._durable_end, blob[: len(blob) // 2])
            raise CrashError("wal.fsync.torn")
        self.store.write_at(self._durable_end, blob)
        self.store.sync()
        self._durable_end += len(blob)
        self.flushed_lsn = last_lsn
        self._pending.clear()
        self._pending_commits = 0
        self.stats.fsyncs += 1
        self.stats.records_flushed += count
        self.stats.bytes_flushed += len(blob)
        observer = self.observer
        if observer is not None:
            observer.emit(
                BufferEvent(
                    kind="wal_fsync",
                    clock=last_lsn,
                    lsn=last_lsn,
                    size=count,
                )
            )
        if crash is not None:
            crash.reached("wal.fsync.after")

    def flush_to(self, lsn: int) -> None:
        """Make every record up to ``lsn`` durable (the WAL invariant)."""
        if lsn > self.flushed_lsn:
            self.fsync()

    def sync(self) -> None:
        """Force all pending records durable (shutdown, checkpoints)."""
        self.fsync()

    @property
    def pending_records(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    # Scanning (recovery)
    # ------------------------------------------------------------------

    def _scan(self) -> Iterator[tuple[WalRecord, int]]:
        """Valid records of the durable prefix, with their end offsets.

        Stops at the first truncated or checksum-failing record — the
        torn tail of a crashed fsync.  Pending (volatile) records are
        invisible here by construction.
        """
        offset = 0
        size = self.store.size()
        while offset + _RECORD_HEAD.size + _RECORD_CRC.size <= size:
            head = self.store.read_at(offset, _RECORD_HEAD.size)
            if len(head) < _RECORD_HEAD.size:
                return
            lsn, kind, page_id, payload_len = _RECORD_HEAD.unpack(head)
            if lsn == 0:
                return
            end = offset + _RECORD_HEAD.size + payload_len + _RECORD_CRC.size
            if end > size:
                return
            body = self.store.read_at(
                offset, _RECORD_HEAD.size + payload_len
            )
            (stored_crc,) = _RECORD_CRC.unpack(
                self.store.read_at(end - _RECORD_CRC.size, _RECORD_CRC.size)
            )
            if zlib.crc32(body) != stored_crc:
                return
            payload = body[_RECORD_HEAD.size :]
            yield WalRecord(lsn=lsn, kind=kind, page_id=page_id,
                            payload=payload), end
            offset = end

    def records(self) -> Iterator[WalRecord]:
        """The durable, checksum-valid record prefix in LSN order."""
        for record, _ in self._scan():
            yield record


# Imported last to mirror the buffer module's convention: repro.obs pulls
# in buffer types at import time, so a top-of-file import would cycle.
from repro.obs.events import BufferEvent  # noqa: E402
