"""Byte-addressed durable media under the durable disk and the WAL.

A :class:`ByteStore` is the model of the physical medium: a flat byte
array that survives a simulated crash.  Everything above it (page slots,
log records) is volatile bookkeeping that a crash wipes; everything
written here stays.  Two implementations share the surface:

* :class:`MemoryByteStore` — a ``bytearray``; fast, and its
  :meth:`~ByteStore.image` makes bit-identical whole-media comparisons
  (the crash-recovery property) a one-liner;
* :class:`FileByteStore` — a real file with positional reads and writes
  and fsync, so a WAL or durable disk can genuinely outlive the process.

Each says whether an access may block the calling thread (``may_block``);
the page server runs a request on its event loop only when no medium the
request can touch may block, and counts a store without the attribute as
blocking.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Protocol


class ByteStore(Protocol):
    """The durable-medium surface: positioned reads/writes plus sync."""

    def read_at(self, offset: int, length: int) -> bytes: ...

    def write_at(self, offset: int, data: bytes) -> None: ...

    def size(self) -> int: ...

    def sync(self) -> None: ...

    def image(self) -> bytes: ...


class MemoryByteStore:
    """A growable in-memory medium (the default for experiments).  Mounted
    on an image, it reads the image's ``bytes`` in place and copies them on
    its first write: a log that recovery only scans costs no second copy."""

    may_block = False

    def __init__(self, initial: bytes = b"") -> None:
        self._buffer = initial if initial and type(initial) is bytes else bytearray(initial)

    def read_at(self, offset: int, length: int) -> bytes:
        return bytes(self._buffer[offset : offset + length])

    def write_at(self, offset: int, data: bytes) -> None:
        if type(self._buffer) is bytes:
            self._buffer = bytearray(self._buffer)
        end = offset + len(data)
        if end > len(self._buffer):
            self._buffer.extend(b"\x00" * (end - len(self._buffer)))
        self._buffer[offset:end] = data

    def size(self) -> int:
        return len(self._buffer)

    def sync(self) -> None:
        """In-memory media are always 'on disk' — nothing to do."""

    def image(self) -> bytes:
        """The full medium as bytes (bit-identity comparisons)."""
        return bytes(self._buffer)


class FileByteStore:
    """A file-backed medium; ``sync`` is a real ``os.fsync``.

    Reads and writes are positional (``os.pread``/``os.pwrite`` on one
    unbuffered descriptor), so threads never share a file position and
    need no lock; a write past the end leaves zeros before it.
    """

    may_block = True

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        mode = "r+b" if self.path.exists() else "w+b"
        self._file = open(self.path, mode, buffering=0)  # noqa: SIM115 - long-lived handle

    def read_at(self, offset: int, length: int) -> bytes:
        data = os.pread(self._file.fileno(), length, offset)
        return data + b"\x00" * (length - len(data))

    def write_at(self, offset: int, data: bytes) -> None:
        fd = self._file.fileno()
        view = memoryview(data)
        while view:
            written = os.pwrite(fd, view, offset)
            view = view[written:]
            offset += written

    def size(self) -> int:
        return os.fstat(self._file.fileno()).st_size

    def sync(self) -> None:
        os.fsync(self._file.fileno())

    def image(self) -> bytes:
        return self.read_at(0, self.size())

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "FileByteStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
