"""A simulated disk that counts page accesses.

The paper's experiments report the *number of disk accesses* required to
process a query set — absolute time is irrelevant, hardware-independent
counts are the metric.  :class:`SimulatedDisk` stores pages in memory and
counts every read and write.  It also offers two optional extras used by the
ablation experiments and the test suite:

* a latency model distinguishing random from sequential accesses, so that
  the paper's future-work item "distinguishing random and sequential I/O"
  can be explored (a random access is charged the full seek+rotate cost,
  an access to the physically next page only the transfer cost);
* failure injection (``fail_reads`` / ``fail_writes``) so that the buffer
  manager's error paths can be exercised deterministically.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any

from repro.storage.page import Page, PageId


class DiskError(IOError):
    """Raised when the simulated disk is told to fail an access."""


class TransientDiskError(DiskError):
    """A failure that may succeed on retry (bus glitch, busy device).

    The retry helpers in :mod:`repro.storage.retry` retry these with
    bounded backoff; a plain :class:`DiskError` is permanent and is
    re-raised immediately.
    """


class FailureInjectionMixin:
    """Failure-injection state shared by every disk implementation.

    Two modes:

    * **permanent** — ``fail_reads`` / ``fail_writes`` are page-id sets;
      every access fails with :class:`DiskError` until the id is removed;
    * **transient** — :meth:`fail_transiently` arms the next ``times``
      accesses of one page to fail with :class:`TransientDiskError`, after
      which the access succeeds — the shape a bounded-retry wrapper must
      survive.
    """

    fail_reads: set[PageId]
    fail_writes: set[PageId]
    _transient_failures: dict[tuple[str, PageId], int]

    def _init_failure_injection(self) -> None:
        self.fail_reads = set()
        self.fail_writes = set()
        #: (op, page_id) -> remaining injected transient failures.
        self._transient_failures = {}

    def fail_transiently(
        self, page_id: PageId, op: str = "read", times: int = 1
    ) -> None:
        """Arm the next ``times`` ``op`` accesses of ``page_id`` to fail."""
        if op not in ("read", "write"):
            raise ValueError(f"op must be 'read' or 'write', not {op!r}")
        if times < 1:
            raise ValueError("times must be at least 1")
        self._transient_failures[(op, page_id)] = times

    def _check_failure(self, op: str, page_id: PageId) -> None:
        """Raise the armed failure for this access, if any."""
        permanent = self.fail_reads if op == "read" else self.fail_writes
        if page_id in permanent:
            raise DiskError(f"injected {op} failure for page {page_id}")
        key = (op, page_id)
        remaining = self._transient_failures.get(key)
        if remaining is not None:
            if remaining <= 1:
                del self._transient_failures[key]
            else:
                self._transient_failures[key] = remaining - 1
            raise TransientDiskError(
                f"injected transient {op} failure for page {page_id}"
            )


@dataclass(slots=True)
class DiskStats:
    """Access counters of a simulated disk."""

    reads: int = 0
    writes: int = 0
    sequential_reads: int = 0
    random_reads: int = 0
    elapsed_ms: float = 0.0

    @property
    def accesses(self) -> int:
        """Total number of page transfers (the paper's metric counts reads)."""
        return self.reads + self.writes

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0
        self.sequential_reads = 0
        self.random_reads = 0
        self.elapsed_ms = 0.0


@dataclass(slots=True)
class LatencyModel:
    """Per-access cost model in milliseconds.

    Defaults follow the paper's introduction: a random page access costs
    about 10 ms; a sequential (physically adjacent) access only pays the
    transfer time, modelled as 1 ms.
    """

    random_ms: float = 10.0
    sequential_ms: float = 1.0


class SimulatedDisk(FailureInjectionMixin):
    """In-memory page store with access accounting.

    Pages are stored by reference — the simulation measures access counts,
    not serialisation.  Callers that need copy-on-write semantics (none in
    this library) would layer them on top.
    """

    def __init__(self, latency: LatencyModel | None = None) -> None:
        self._pages: dict[PageId, Page] = {}
        self._latency = latency or LatencyModel()
        self._last_read: PageId | None = None
        self.stats = DiskStats()
        #: Guards the access counters and the sequential-read detector, so
        #: concurrent buffer shards can share one disk without losing
        #: counts (``+=`` on a dataclass field is not atomic).
        self._stats_lock = threading.Lock()
        self._init_failure_injection()

    # ------------------------------------------------------------------
    # Accounted accesses
    # ------------------------------------------------------------------

    def read(self, page_id: PageId) -> Page:
        """Read a page, counting one disk access."""
        if self.fail_reads or self._transient_failures:
            self._check_failure("read", page_id)
        try:
            page = self._pages[page_id]
        except KeyError:
            raise KeyError(f"page {page_id} does not exist on disk") from None
        with self._stats_lock:
            self.stats.reads += 1
            if self._last_read is not None and page_id == self._last_read + 1:
                self.stats.sequential_reads += 1
                self.stats.elapsed_ms += self._latency.sequential_ms
            else:
                self.stats.random_reads += 1
                self.stats.elapsed_ms += self._latency.random_ms
            self._last_read = page_id
        return page

    def write(self, page: Page) -> None:
        """Write a page back, counting one disk access."""
        self._check_failure("write", page.page_id)
        self._pages[page.page_id] = page
        with self._stats_lock:
            self.stats.writes += 1
            self.stats.elapsed_ms += self._latency.random_ms

    # ------------------------------------------------------------------
    # Unaccounted maintenance (tree construction, tests)
    # ------------------------------------------------------------------

    def store(self, page: Page) -> None:
        """Place a page on disk without counting an access.

        Index construction happens before the measured query phase; the
        paper clears the buffer before each query set, so build-time writes
        are not part of any reported number.
        """
        self._pages[page.page_id] = page

    def peek(self, page_id: PageId) -> Page:
        """Read a page without counting an access (testing/inspection)."""
        return self._pages[page_id]

    def delete(self, page_id: PageId) -> None:
        """Remove a page from the disk (unaccounted)."""
        self._pages.pop(page_id, None)

    def __contains__(self, page_id: PageId) -> bool:
        return page_id in self._pages

    def __len__(self) -> int:
        return len(self._pages)

    def page_ids(self) -> list[PageId]:
        return sorted(self._pages)


class DelayedDisk:
    """A disk wrapper whose reads cost real wall-clock time.

    The in-memory disks serve reads in sub-microsecond time; tests and
    benches that need a miss to *cost* something wrap their disk in this.
    The default ``time.sleep`` releases the GIL, so concurrent misses
    overlap (overload probes, the cluster scaling sweep).  ``spin=True``
    busy-waits instead: at SSD-class latencies (~100 µs, ``bench
    tuning``) the scheduler's sleep granularity would overshoot the
    delay several times over.  Everything but ``read`` is forwarded.
    """

    def __init__(self, inner: Any, delay_s: float, spin: bool = False) -> None:
        self._inner = inner
        self._delay_s = delay_s
        self._spin = spin

    def read(self, page_id: PageId) -> Page:
        if self._spin:
            deadline = time.perf_counter() + self._delay_s
            while time.perf_counter() < deadline:
                pass
        else:
            time.sleep(self._delay_s)
        return self._inner.read(page_id)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)
