"""Crash injection for the durable write path.

A *crash point* is a named place in the disk or WAL code where a simulated
process death can be armed.  The crash-injection harness
(:mod:`repro.wal.harness`) arms one point, runs an update stream until the
:class:`CrashError` fires, then runs recovery and checks the recovered
disk image against a replay of the durable log prefix — the property that
makes the write path trustworthy at *every* interleaving of log, data and
fsync operations.

Torn variants (``*.torn``) model the nastiest failure: the crash happens
*mid-write*, leaving a prefix of the bytes on the medium.  The durable
disk and the log both checksum their units, so a torn unit is detected
(never silently served) and recovery repairs it from the log.
"""

from __future__ import annotations

#: The closed set of crash points, in write-path order.
CRASH_POINTS = (
    "wal.append",          # before a record is even buffered — it is lost
    "wal.fsync.before",    # pending records lost, durable tail unchanged
    "wal.fsync.torn",      # fsync persists only a prefix of the pending bytes
    "wal.fsync.after",     # records durable, but the caller never learns
    "disk.write.before",   # page write-back lost entirely
    "disk.write.torn",     # page slot left half-written (checksum broken)
    "disk.write.after",    # page durable, in-memory bookkeeping lost
    "checkpoint.before",   # dirty frames flushed, checkpoint record lost
    "checkpoint.after",    # checkpoint record durable, crash right after
)


class CrashError(RuntimeError):
    """The simulated process died at an armed crash point.

    Everything volatile (buffer frames, pending WAL records, page-LSN
    table) is gone; the byte stores — durable disk and durable log
    prefix — survive and are what recovery gets to work with.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"simulated crash at {point}")
        self.point = point


class CrashInjector:
    """Arms crash points with a countdown and fires them exactly once.

    ``arm(point, after=n)`` makes the ``n``-th future arrival at ``point``
    crash (``after=0`` crashes the next arrival).  Each armed point fires
    at most once; an unarmed point is free — the checks on the hot path
    are one dict lookup against an (almost always empty) dict.
    """

    def __init__(self) -> None:
        self._armed: dict[str, int] = {}
        #: Points that fired, in order (for harness assertions).
        self.fired: list[str] = []

    def arm(self, point: str, after: int = 0) -> None:
        if point not in CRASH_POINTS:
            raise ValueError(f"unknown crash point {point!r}")
        if after < 0:
            raise ValueError("after must be non-negative")
        self._armed[point] = after

    def trips(self, point: str) -> bool:
        """True when an armed countdown for ``point`` just hit zero.

        Used by the torn variants, where the caller must apply the partial
        effect *before* raising; plain points use :meth:`reached`.
        """
        remaining = self._armed.get(point)
        if remaining is None:
            return False
        if remaining > 0:
            self._armed[point] = remaining - 1
            return False
        del self._armed[point]
        self.fired.append(point)
        return True

    def reached(self, point: str) -> None:
        """Crash here if the point is armed and its countdown expired."""
        if self.trips(point):
            raise CrashError(point)
