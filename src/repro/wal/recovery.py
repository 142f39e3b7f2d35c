"""ARIES-style redo recovery: replay the durable log onto the data disk.

The write path logs **full page images**, so recovery is one redo pass
after an analysis pass: one scan of the durable, checksum-valid log prefix
finds the last complete CHECKPOINT record, a second re-applies every later
PAGE_IMAGE / FREE record in LSN order; neither holds more than one record.
Full-image redo is idempotent — recovering twice, or
re-applying records whose effect already reached the disk, converges to
the same image — and repairs torn page slots (their covering record is
durable by the WAL invariant).

There is no undo pass: the system has no multi-operation transactions —
a logged update is committed once its record is durable, so the durable
log prefix *is* the committed prefix and recovery reconstructs exactly
the committed state.  The crash-injection harness
(:mod:`repro.wal.harness`) checks this property bit-for-bit at every
crash point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.storage.retry import RetryPolicy, call_with_retry
from repro.wal.durable import DurableDisk
from repro.wal.log import CHECKPOINT, COMMIT, FREE, PAGE_IMAGE, WriteAheadLog

if TYPE_CHECKING:
    from typing import Callable

    from repro.obs.events import EventSink


@dataclass(slots=True)
class RecoveryReport:
    """What one recovery pass did."""

    records_scanned: int = 0
    redo_from_lsn: int = 0
    last_lsn: int = 0
    pages_redone: int = 0
    frees_redone: int = 0
    commits_seen: int = 0
    checkpoints_seen: int = 0

    @property
    def records_redone(self) -> int:
        return self.pages_redone + self.frees_redone

    def snapshot(self) -> dict[str, int]:
        return {
            "records_scanned": self.records_scanned,
            "redo_from_lsn": self.redo_from_lsn,
            "last_lsn": self.last_lsn,
            "pages_redone": self.pages_redone,
            "frees_redone": self.frees_redone,
            "commits_seen": self.commits_seen,
            "checkpoints_seen": self.checkpoints_seen,
        }


def recover(
    wal: WriteAheadLog,
    disk: DurableDisk,
    *,
    observer: "EventSink | None" = None,
    retry: RetryPolicy | None = None,
    sleeper: "Callable[[float], None] | None" = None,
) -> RecoveryReport:
    """Redo the durable log onto ``disk``; returns a :class:`RecoveryReport`.

    Scans stop at the log's torn tail automatically (record checksums).
    Slot restores run under bounded retry, so a transient disk failure
    during redo does not abort recovery.
    """
    report = RecoveryReport()
    redo_from = 0
    for record in wal.records():
        report.records_scanned += 1
        report.last_lsn = record.lsn
        if record.kind == CHECKPOINT:
            redo_from = record.lsn
            report.checkpoints_seen += 1
        elif record.kind == COMMIT:
            report.commits_seen += 1
    report.redo_from_lsn = redo_from
    for record in wal.records():
        if record.lsn <= redo_from:
            continue
        if record.kind == PAGE_IMAGE:
            call_with_retry(
                lambda record=record: disk.restore(record.page_id, record.payload),
                retry,
                sleeper,
            )
            report.pages_redone += 1
        elif record.kind == FREE:
            disk.delete(record.page_id)
            report.frees_redone += 1
    if observer is not None:
        observer.emit(
            BufferEvent(
                kind="recover",
                clock=report.last_lsn,
                lsn=report.last_lsn,
                size=report.records_redone,
            )
        )
    return report


def replay_durable_prefix(
    wal: WriteAheadLog, base_image: bytes, page_size: int = 4096
) -> bytes:
    """The *specification* image: base media plus every durable record.

    Mounts a copy of ``base_image`` and applies the full durable log in
    LSN order, ignoring checkpoints.  The crash property states that
    ``recover()`` on the crashed media yields exactly this image — the
    committed prefix replayed from scratch.
    """
    disk = DurableDisk.from_image(base_image, page_size=page_size)
    for record in wal.records():
        if record.kind == PAGE_IMAGE:
            disk.restore(record.page_id, record.payload)
        elif record.kind == FREE:
            disk.delete(record.page_id)
    return disk.image()


# Imported last — see repro.wal.manager for the cycle rationale.
from repro.obs.events import BufferEvent  # noqa: E402
