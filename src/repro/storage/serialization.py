"""Binary page serialization and a file-backed disk.

The in-memory :class:`~repro.storage.disk.SimulatedDisk` measures access
counts — all the paper's experiments need.  For durability (saving a built
index to disk and reopening it later) this module adds a fixed-size binary
page format and :class:`FileDisk`, a drop-in disk whose pages live in a
real file, read and written with seeks like a classic slotted-page store.

Format (little-endian), one page per ``page_size`` slot at byte offset
``page_id * page_size``::

    header:  magic (2s) | version (B) | type (B) | level (h) |
             entry_count (H) | payload flags per entry follow inline
    entry:   x_min, y_min, x_max, y_max (4d) | child (q) | payload (q)

Payloads must be non-negative integers (object identifiers) or ``None`` —
the library's indexes only store object ids, and a self-contained format
beats pickling arbitrary objects.  ``child``/``payload`` are written as
they are and ``None`` as -1; every negative value reads back as ``None``,
so a negative child or payload is refused at encode time.

Two readers share one decode routine.  :func:`read_page` is how bytes become
a page at every boundary of the stack (media, wire, peers): it makes every
check :func:`decode_page` makes and returns a *packed* page that keeps the
slot bytes as its :class:`PageImage` — serving it on, logging it or ranking
it by its MBR never builds an entry object, and :func:`encode_page` hands
the bytes back untouched.  :func:`decode_page` builds the entry objects at
once: the public eager reader, and :func:`read_page`'s fallback for a slot
that fails a check (to raise what it raises) or is not canonical.
"""

from __future__ import annotations

import functools
import io
import struct
from operator import gt
from pathlib import Path

from repro.geometry.rect import Rect
from repro.storage.disk import DiskStats, FailureInjectionMixin, LatencyModel
from repro.storage.page import Page, PageEntry, PageId, PageType

MAGIC = b"RP"
VERSION = 1

_HEADER = struct.Struct("<2sBBhH")
_ENTRY = struct.Struct("<4dqq")

_TYPE_CODES = {PageType.DIRECTORY: 0, PageType.DATA: 1, PageType.OBJECT: 2}
_CODE_TYPES = {code: page_type for page_type, code in _TYPE_CODES.items()}


def max_entries_for(page_size: int) -> int:
    """How many entries fit into one page of the given byte size."""
    return (page_size - _HEADER.size) // _ENTRY.size


@functools.lru_cache(maxsize=None)
def _body(count: int) -> struct.Struct:
    """All ``count`` entries of a page as one struct: six values each."""
    return struct.Struct("<" + "4dqq" * count)


class PageImage:
    """The verified bytes of one page slot, standing in for its entries.

    Built by :func:`read_page` only, after the checks of
    :func:`decode_page` have passed, and never changed: a packed
    :class:`~repro.storage.page.Page` answers from it until its entries
    are first read, then lets go of it.
    """

    __slots__ = ("blob", "count")

    def __init__(self, blob: bytes, count: int) -> None:
        self.blob = blob
        self.count = count

    def _columns(self) -> tuple:
        """``x_min, y_min, x_max, y_max, child, payload`` of entry 0, 1, …
        in one flat tuple: column ``k`` is the slice ``[k::6]``."""
        return _body(self.count).unpack_from(self.blob, _HEADER.size)

    def ordered(self) -> bool:
        """No entry has ``x_min > x_max`` or ``y_min > y_max`` — the one
        check :class:`~repro.geometry.rect.Rect` makes per entry."""
        flat = self._columns()
        return not (
            any(map(gt, flat[0::6], flat[2::6]))
            or any(map(gt, flat[1::6], flat[3::6]))
        )

    def entries(self) -> list[PageEntry]:
        return _entries(self.blob, self.count)

    def mbr(self) -> Rect | None:
        """As :func:`~repro.geometry.rect.mbr_of_rects` over the entries:
        ``min``/``max`` keep the first extreme, as its comparisons do."""
        if not self.count:
            return None
        flat = self._columns()
        return Rect(
            min(flat[0::6]), min(flat[1::6]), max(flat[2::6]), max(flat[3::6])
        )

    def children(self) -> list[PageId]:
        return [child for child in self._columns()[4::6] if child >= 0]

    def matching(self, window: Rect, leaf: bool) -> list:
        """:meth:`Page.matching <repro.storage.page.Page.matching>` over the
        slot bytes: no entry object is built.  A negative child or payload
        is ``None``, as :func:`_entries` decodes it."""
        w_x_min, w_y_min, w_x_max, w_y_max = window.as_tuple()
        # iter_unpack wants whole records; a copy for the reason _entries has.
        body = self.blob[_HEADER.size : _HEADER.size + self.count * _ENTRY.size]
        return [
            None if ref < 0 else ref
            for x_min, y_min, x_max, y_max, child, payload in _ENTRY.iter_unpack(body)
            if x_min <= w_x_max
            and w_x_min <= x_max
            and y_min <= w_y_max
            and w_y_min <= y_max
            for ref in [payload if leaf else child]
        ]


def encode_page(page: Page, page_size: int = 4096) -> bytes:
    """Serialize a page into exactly ``page_size`` bytes.

    A page that is still packed is answered with its image, the very bytes
    it was read from, when they fill a slot of this size.

    Raises :class:`ValueError` when the page does not fit, a payload is not
    an integer, or a child or payload is negative (it would read back as
    ``None``).
    """
    # Read once: another thread may be unpacking this shared page.
    image = page.image()
    if image is not None and len(image) == page_size:
        return image
    return _encode_entries(page, page_size)


def _encode_entries(page: Page, page_size: int) -> bytes:
    """The full encode, from the entry objects."""
    entries = page.entries
    if len(entries) > max_entries_for(page_size):
        raise ValueError(
            f"page {page.page_id} has {len(entries)} entries; "
            f"at most {max_entries_for(page_size)} fit into "
            f"{page_size}-byte pages"
        )
    out = io.BytesIO()
    out.write(
        _HEADER.pack(
            MAGIC,
            VERSION,
            _TYPE_CODES[page.page_type],
            page.level,
            len(entries),
        )
    )
    for entry in entries:
        child = entry.child
        payload = entry.payload
        if payload is not None and not isinstance(payload, int):
            raise ValueError(
                "only integer payloads are serializable "
                f"(page {page.page_id} holds {type(payload).__name__})"
            )
        if (child is not None and child < 0) or (payload is not None and payload < 0):
            raise ValueError(
                f"page {page.page_id} holds a negative child or payload; the "
                "format cannot carry it (negative values read back as None)"
            )
        out.write(
            _ENTRY.pack(
                entry.mbr.x_min,
                entry.mbr.y_min,
                entry.mbr.x_max,
                entry.mbr.y_max,
                -1 if child is None else child,
                -1 if payload is None else payload,
            )
        )
    blob = out.getvalue()
    return blob + b"\x00" * (page_size - len(blob))


def _header(blob: bytes, page_id: PageId) -> tuple[PageType, int, int]:
    """``(page type, level, entry count)`` of a slot, or :class:`ValueError`."""
    if len(blob) < _HEADER.size:
        raise ValueError(f"page {page_id}: truncated header")
    magic, version, type_code, level, count = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise ValueError(f"page {page_id}: bad magic {magic!r}")
    if version != VERSION:
        raise ValueError(f"page {page_id}: unsupported version {version}")
    if type_code not in _CODE_TYPES:
        raise ValueError(f"page {page_id}: unknown page type {type_code}")
    if len(blob) < _HEADER.size + count * _ENTRY.size:
        raise ValueError(f"page {page_id}: truncated entries")
    return _CODE_TYPES[type_code], level, count


def _entries(blob: bytes, count: int) -> list[PageEntry]:
    """The entry objects of a slot whose header has been checked."""
    # A copy, not a memoryview: when Rect() raises, the traceback keeps the
    # iterator and its exported view alive, and CPython before 3.13 crashes
    # if the collector then breaks a cycle through such a view (gh-77894).
    body = bytes(blob[_HEADER.size : _HEADER.size + count * _ENTRY.size])
    return [
        PageEntry(
            Rect(x_min, y_min, x_max, y_max),
            None if child < 0 else child,
            None if payload < 0 else payload,
        )
        for x_min, y_min, x_max, y_max, child, payload in _ENTRY.iter_unpack(body)
    ]


def decode_page(blob: bytes, page_id: PageId) -> Page:
    """Deserialize one page slot; raises :class:`ValueError` on corruption.

    The page's identity is ``page_id``: the format carries none.
    """
    page_type, level, count = _header(blob, page_id)
    return Page(page_id, page_type, level, _entries(blob, count))


def read_page(blob: bytes, page_id: PageId) -> Page:
    """:func:`decode_page` without building the entries: a packed page.

    Every check of :func:`decode_page` is made here, so unpacking later
    cannot fail; a slot that fails one is handed to :func:`decode_page`
    to raise what it raises, and so is a slot with non-zero bytes after its
    last entry: only what :func:`encode_page` would write is served on
    verbatim.  The image owns its bytes — a ``memoryview`` slice is copied
    (it would pin the whole received frame), ``bytes`` are kept as they are.
    """
    blob = bytes(blob)
    page_type, level, count = _header(blob, page_id)
    image = PageImage(blob, count)
    used = _HEADER.size + count * _ENTRY.size
    if not image.ordered() or blob[used:] != bytes(len(blob) - used):
        return decode_page(blob, page_id)
    return Page.packed(page_id, page_type, level, image)


class FileDisk(FailureInjectionMixin):
    """A page store backed by a real file, with the SimulatedDisk interface.

    Pages occupy fixed-size slots addressed by page id.  Reads hand out the
    slot packed (:func:`read_page`), writes encode and seek — there is no
    in-memory page table, so a reopened :class:`FileDisk` serves the pages
    the previous process stored.  Access counting and failure injection match
    :class:`~repro.storage.disk.SimulatedDisk`, so buffer managers and
    indexes work unchanged on either.
    """

    def __init__(
        self,
        path: str | Path,
        page_size: int = 4096,
        latency: LatencyModel | None = None,
    ) -> None:
        if page_size < _HEADER.size + _ENTRY.size:
            raise ValueError("page_size too small for even one entry")
        self.path = Path(path)
        self.page_size = page_size
        self._latency = latency or LatencyModel()
        self._last_read: PageId | None = None
        self.stats = DiskStats()
        self._init_failure_injection()
        #: Ids with a live page in their slot (slot reuse leaves garbage).
        self._live: set[PageId] = set()
        # "a+b" must not be used: POSIX append mode forces every write to
        # the end of the file, ignoring seeks.
        mode = "r+b" if self.path.exists() else "w+b"
        self._file = open(self.path, mode)  # noqa: SIM115 - long-lived handle
        self._scan_existing()

    def _scan_existing(self) -> None:
        """Discover live pages of an existing file (reopen support)."""
        self._file.seek(0, io.SEEK_END)
        size = self._file.tell()
        for page_id in range(size // self.page_size):
            self._file.seek(page_id * self.page_size)
            head = self._file.read(_HEADER.size)
            if len(head) == _HEADER.size and head[:2] == MAGIC:
                self._live.add(page_id)

    # ------------------------------------------------------------------
    # Accounted accesses
    # ------------------------------------------------------------------

    def read(self, page_id: PageId) -> Page:
        self._check_failure("read", page_id)
        if page_id not in self._live:
            raise KeyError(f"page {page_id} does not exist on disk")
        self._file.seek(page_id * self.page_size)
        blob = self._file.read(self.page_size)
        self.stats.reads += 1
        if self._last_read is not None and page_id == self._last_read + 1:
            self.stats.sequential_reads += 1
            self.stats.elapsed_ms += self._latency.sequential_ms
        else:
            self.stats.random_reads += 1
            self.stats.elapsed_ms += self._latency.random_ms
        self._last_read = page_id
        return read_page(blob, page_id)

    def write(self, page: Page) -> None:
        self._check_failure("write", page.page_id)
        self._store(page)
        self.stats.writes += 1
        self.stats.elapsed_ms += self._latency.random_ms

    # ------------------------------------------------------------------
    # Unaccounted maintenance
    # ------------------------------------------------------------------

    def _store(self, page: Page) -> None:
        self._file.seek(page.page_id * self.page_size)
        self._file.write(encode_page(page, self.page_size))
        self._live.add(page.page_id)

    def store(self, page: Page) -> None:
        """Place a page without counting an access (build phase)."""
        self._store(page)

    def peek(self, page_id: PageId) -> Page:
        if page_id not in self._live:
            raise KeyError(f"page {page_id} does not exist on disk")
        self._file.seek(page_id * self.page_size)
        return read_page(self._file.read(self.page_size), page_id)

    def delete(self, page_id: PageId) -> None:
        if page_id in self._live:
            self._file.seek(page_id * self.page_size)
            self._file.write(b"\x00" * self.page_size)
            self._live.discard(page_id)

    def flush(self) -> None:
        self._file.flush()

    def close(self) -> None:
        self._file.flush()
        self._file.close()

    def __contains__(self, page_id: PageId) -> bool:
        return page_id in self._live

    def __len__(self) -> int:
        return len(self._live)

    def page_ids(self) -> list[PageId]:
        return sorted(self._live)

    def __enter__(self) -> "FileDisk":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Saving and loading built indexes
# ----------------------------------------------------------------------
#
# SimulatedDisk persists mutations implicitly (pages are shared objects);
# FileDisk copies on read, so indexes are *built* in memory and then saved.
# A JSON sidecar next to the page file records the tree metadata that does
# not live on pages (root id, height, capacities).


def save_tree(tree, path: str | Path, page_size: int = 4096) -> None:
    """Persist a built R-tree: pages to ``path``, metadata to ``path.json``.

    Payloads must be integers (see :func:`encode_page`).
    """
    import json

    path = Path(path)
    if path.exists():
        path.unlink()
    with FileDisk(path, page_size=page_size) as disk:
        for page_id in tree.all_page_ids():
            disk.store(tree.pagefile.disk.peek(page_id))
    metadata = {
        "root_id": tree.root_id,
        "height": tree.height,
        "entry_count": tree.entry_count,
        "max_dir_entries": tree.max_dir_entries,
        "max_data_entries": tree.max_data_entries,
        "page_size": page_size,
    }
    Path(str(path) + ".json").write_text(json.dumps(metadata), encoding="utf-8")


def load_tree(path: str | Path, mutable: bool = False):
    """Reopen a saved R-tree.

    With ``mutable=False`` (default) the tree reads pages straight from the
    file; it must be treated as **read-only** — updates would mutate
    transient page copies.  With ``mutable=True`` all pages are
    materialised into an in-memory :class:`SimulatedDisk`, giving a fully
    updatable tree at the cost of loading everything.
    """
    import json

    from repro.sam.rstar import RStarTree
    from repro.storage.disk import SimulatedDisk
    from repro.storage.pagefile import PageFile

    path = Path(path)
    metadata = json.loads(Path(str(path) + ".json").read_text(encoding="utf-8"))
    disk = FileDisk(path, page_size=metadata["page_size"])
    if mutable:
        memory = SimulatedDisk()
        for page_id in disk.page_ids():
            memory.store(disk.peek(page_id))
        disk.close()
        backing = memory
    else:
        backing = disk
    pagefile = PageFile(backing)  # type: ignore[arg-type]
    pagefile._next_id = (max(backing.page_ids()) + 1) if len(backing) else 0
    tree = RStarTree(
        pagefile=pagefile,
        max_dir_entries=metadata["max_dir_entries"],
        max_data_entries=metadata["max_data_entries"],
    )
    tree.root_id = metadata["root_id"]
    tree.height = metadata["height"]
    tree.entry_count = metadata["entry_count"]
    tree._page_ids = set(backing.page_ids())
    return tree
