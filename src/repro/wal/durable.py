"""A byte-durable page store with per-page checksums.

:class:`~repro.storage.disk.SimulatedDisk` holds pages *by reference*: a
mutation of a fetched page is instantly visible "on disk", which is
perfect for counting accesses but useless for durability — there is no
moment at which a page is or is not persistent.  :class:`DurableDisk`
closes that gap: pages live as **encoded bytes** (the binary format of
:mod:`repro.storage.serialization`) in a :class:`~repro.wal.bytestore`
slot, so only an explicit ``write`` changes the medium, and a crash
preserves exactly the bytes written before it.

Each slot carries a CRC-32 of its payload, so a torn write (crash
mid-slot, injected via ``disk.write.torn``) is *detected* on the next
read — :class:`TornPageError` — instead of silently serving garbage.
Recovery repairs torn slots from the write-ahead log.

The access surface matches ``SimulatedDisk`` (accounted ``read``/
``write``, unaccounted ``store``/``peek``/``delete``, stats, latency
model, failure injection), so buffer managers and indexes run on either.
"""

from __future__ import annotations

import struct
import zlib

from repro.storage.disk import (
    DiskError,
    DiskStats,
    FailureInjectionMixin,
    LatencyModel,
)
from repro.storage.page import Page, PageId
from repro.storage.serialization import encode_page, read_page
from repro.wal.bytestore import ByteStore, MemoryByteStore
from repro.wal.crash import CrashError, CrashInjector

_CRC = struct.Struct("<I")


class TornPageError(DiskError):
    """A page slot failed its checksum — a write tore mid-slot."""


class DurableDisk(FailureInjectionMixin):
    """Fixed-slot page store over a byte medium, with checksums.

    Slot layout at byte offset ``page_id * (4 + page_size)``::

        crc32 of payload (I) | payload = encoded page (page_size bytes)

    An all-zero slot is free (the CRC of a zero payload never equals
    zero's stored CRC because a valid payload must start with the page
    magic; liveness is tracked in memory and rebuilt by scanning on
    reopen).
    """

    def __init__(
        self,
        store: ByteStore | None = None,
        page_size: int = 4096,
        latency: LatencyModel | None = None,
        crash: CrashInjector | None = None,
    ) -> None:
        self.store_backend = store if store is not None else MemoryByteStore()
        self.page_size = page_size
        self.slot_size = _CRC.size + page_size
        self._latency = latency or LatencyModel()
        self._last_read: PageId | None = None
        self.stats = DiskStats()
        #: Crash injection hooks; ``None`` means crashes never fire.
        self.crash = crash
        self._init_failure_injection()
        self._live: set[PageId] = set()
        self._scan_existing()

    def _scan_existing(self) -> None:
        """Rebuild the live-page set from the medium (reopen/recovery)."""
        from repro.storage.serialization import MAGIC

        # Ceiling division: canonical images strip trailing zeros, which
        # may truncate the final slot's zero padding — it still counts.
        slots = -(-self.store_backend.size() // self.slot_size)
        for page_id in range(slots):
            payload = self._slot_payload(page_id)
            if payload[:2] == MAGIC:
                self._live.add(page_id)

    # ------------------------------------------------------------------
    # Slot helpers
    # ------------------------------------------------------------------

    def _offset(self, page_id: PageId) -> int:
        return page_id * self.slot_size

    def _slot_payload(self, page_id: PageId) -> bytes:
        blob = self.store_backend.read_at(self._offset(page_id), self.slot_size)
        blob = blob + b"\x00" * (self.slot_size - len(blob))
        return blob[_CRC.size :]

    def _read_slot(self, page_id: PageId) -> bytes:
        """The verified payload of a live slot; raises on torn slots."""
        blob = self.store_backend.read_at(self._offset(page_id), self.slot_size)
        blob = blob + b"\x00" * (self.slot_size - len(blob))
        (stored_crc,) = _CRC.unpack_from(blob, 0)
        payload = blob[_CRC.size :]
        if zlib.crc32(payload) != stored_crc:
            raise TornPageError(
                f"page {page_id}: slot checksum mismatch (torn write)"
            )
        return payload

    def _write_slot(self, page_id: PageId, payload: bytes) -> None:
        blob = _CRC.pack(zlib.crc32(payload)) + payload
        crash = self.crash
        if crash is not None:
            crash.reached("disk.write.before")
            if crash.trips("disk.write.torn"):
                # Persist only a prefix — the checksum no longer matches.
                self.store_backend.write_at(
                    self._offset(page_id), blob[: len(blob) // 2]
                )
                self._live.add(page_id)
                raise CrashError("disk.write.torn")
        self.store_backend.write_at(self._offset(page_id), blob)
        self._live.add(page_id)
        if crash is not None:
            crash.reached("disk.write.after")

    # ------------------------------------------------------------------
    # Accounted accesses
    # ------------------------------------------------------------------

    def read(self, page_id: PageId) -> Page:
        """Read a page, counting one disk access.

        The page comes back packed (:func:`read_page`): verified, with its
        entries still inside the slot bytes until someone reads them.
        """
        self._check_failure("read", page_id)
        if page_id not in self._live:
            raise KeyError(f"page {page_id} does not exist on disk")
        payload = self._read_slot(page_id)
        self.stats.reads += 1
        if self._last_read is not None and page_id == self._last_read + 1:
            self.stats.sequential_reads += 1
            self.stats.elapsed_ms += self._latency.sequential_ms
        else:
            self.stats.random_reads += 1
            self.stats.elapsed_ms += self._latency.random_ms
        self._last_read = page_id
        return read_page(payload, page_id)

    def write(self, page: Page) -> None:
        """Encode and persist a page, counting one disk access."""
        self._check_failure("write", page.page_id)
        self._write_slot(page.page_id, encode_page(page, self.page_size))
        self.stats.writes += 1
        self.stats.elapsed_ms += self._latency.random_ms

    # ------------------------------------------------------------------
    # Unaccounted maintenance
    # ------------------------------------------------------------------

    def store(self, page: Page) -> None:
        """Persist a page without counting an access (build phase)."""
        self._write_slot(page.page_id, encode_page(page, self.page_size))

    def restore(self, page_id: PageId, payload: bytes) -> None:
        """Place raw encoded page bytes into a slot (recovery redo).

        The payload comes from a checksummed WAL record, so it is written
        verbatim — re-encoding would only prove the codec round-trips.
        Write-failure injection applies (redo shares the medium's failure
        modes), which is why recovery wraps restores in bounded retry.
        """
        self._check_failure("write", page_id)
        if len(payload) != self.page_size:
            raise ValueError(
                f"payload is {len(payload)} bytes; slots hold {self.page_size}"
            )
        self._write_slot(page_id, payload)

    def peek(self, page_id: PageId) -> Page:
        """Read a page without counting an access (testing/inspection)."""
        if page_id not in self._live:
            raise KeyError(f"page {page_id} does not exist on disk")
        return read_page(self._read_slot(page_id), page_id)

    def delete(self, page_id: PageId) -> None:
        """Zero a page's slot (unaccounted)."""
        if page_id in self._live:
            self.store_backend.write_at(
                self._offset(page_id), b"\x00" * self.slot_size
            )
            self._live.discard(page_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def image(self) -> bytes:
        """The medium as canonical bytes — the unit of the crash property.

        Trailing zero bytes are stripped: they are dead space (a live slot
        starts with the page magic, so an all-zero tail can never hold
        one), and whether a medium ever *extended* over a since-freed slot
        is not an observable difference.  Stripping makes two media that
        agree on every slot compare equal, and remounting a stripped
        image is lossless — reads past the end zero-pad.
        """
        return self.store_backend.image().rstrip(b"\x00")

    @classmethod
    def from_image(
        cls,
        image: bytes,
        page_size: int = 4096,
        crash: CrashInjector | None = None,
    ) -> "DurableDisk":
        """Mount a copy of a medium (simulated reboot on cloned media)."""
        return cls(MemoryByteStore(image), page_size=page_size, crash=crash)

    def __contains__(self, page_id: PageId) -> bool:
        return page_id in self._live

    def __len__(self) -> int:
        return len(self._live)

    def page_ids(self) -> list[PageId]:
        return sorted(self._live)
