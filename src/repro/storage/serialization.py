"""Binary page serialization, and saving a built tree to a file.

The in-memory :class:`~repro.storage.disk.SimulatedDisk` measures access
counts — all the paper's experiments need.  Every byte medium (a durable
disk's slots, the wire, a saved tree) holds pages in the fixed-size binary
format defined here.  :func:`save_tree` writes a built tree into the
checksummed slots of a :class:`~repro.wal.durable.DurableDisk` over a
file, and :func:`load_tree` reopens it.

Format (little-endian), one page in ``page_size`` bytes::

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
that fails a check (to raise what it raises) or is not canonical.  Where
the same bytes arrive again (a medium's slot, a client's connection) one
rule, :class:`VerifiedPages`, verifies each page version once and hands
every page of that version one dict of derived values (``Page._derived``).
"""

from __future__ import annotations

import functools
import json
import math
import struct
import sys
from array import array
from operator import gt, le
from pathlib import Path

from repro.geometry.rect import Rect
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

    Built by :func:`read_page` once the checks of :func:`decode_page` have
    passed (or by :class:`VerifiedPages` for bytes equal to ones that
    have), or by :func:`compact_page` from values a bulk load has checked,
    and never changed: a packed :class:`~repro.storage.page.Page` answers
    from it until its entries are first read, then lets go of it.  ``blob``
    is a whole slot, or only the header and entries (a *compact* image).
    """

    __slots__ = ("blob", "count", "_bounds")

    def __init__(
        self, blob: bytes, count: int, bounds: tuple | None = None
    ) -> None:
        self.blob = blob
        self.count = count
        #: ``(mbr, hull)`` once known (see :meth:`bounds`).
        self._bounds = bounds

    def __len__(self) -> int:
        return self.count

    def bounds(self) -> tuple[Rect | None, Rect | None]:
        """``(mbr, hull)``: the MBR as :func:`~repro.geometry.rect.mbr_of_rects`
        over the entries computes it (``None`` when there are none), and
        the MBR again when no bound is a NaN, else ``None``: a window that
        contains the hull meets every entry.  Computed on first use."""
        bounds = self._bounds
        if bounds is None:
            flat = self._columns()
            bounds = self._bounds = _bounds(
                flat[0::6], flat[1::6], flat[2::6], flat[3::6]
            )
        return bounds

    @property
    def mbr(self) -> Rect | None:
        return self.bounds()[0]

    @property
    def _hull(self) -> Rect | None:
        return self.bounds()[1]

    def _columns(self) -> tuple:
        """``x_min, y_min, x_max, y_max, child, payload`` of entry 0, 1, …
        in one flat tuple: column ``k`` is the slice ``[k::6]``."""
        return _body(self.count).unpack_from(self.blob, _HEADER.size)

    def entries(self) -> list[PageEntry]:
        return _entries(self.blob, self.count)

    def children(self) -> list[PageId]:
        return [child for child in self._columns()[4::6] if child >= 0]

    def boxes(self) -> list[tuple[float, float, float, float]]:
        """``(x_min, y_min, x_max, y_max)`` of every entry, in entry order."""
        flat = self._columns()
        return list(zip(flat[0::6], flat[1::6], flat[2::6], flat[3::6]))

    def block(self, leaf: bool) -> tuple:
        """The scan block of the page (see :func:`~repro.storage.page._scan_block`),
        read from the bytes: the coordinates are the slot's doubles, so the
        block is always exact.  A negative child or payload is ``None``, as
        :func:`_entries` decodes it.  The page MBR's place in the array
        holds the hull, or NaNs when there is none, so that
        :meth:`~repro.storage.page.Page.matching` takes no shortcut past an
        entry with a NaN bound."""
        used = _HEADER.size + self.count * _ENTRY.size
        coords = array("d")
        coords.frombytes(self.blob[_HEADER.size : used])
        refs = array("q")
        refs.frombytes(self.blob[_HEADER.size : used])
        if sys.byteorder != "little":
            coords.byteswap()
            refs.byteswap()
        # Six 8-byte values per entry: drop child and payload, then keep the
        # one column this level refers to.
        del coords[4::6]
        del coords[4::5]
        refs = tuple([None if ref < 0 else ref for ref in refs[5 if leaf else 4 :: 6]])
        bounds = self._bounds
        if bounds is None:
            bounds = self._bounds = _bounds(
                coords[0::4], coords[1::4], coords[2::4], coords[3::4]
            )
        mbr, hull = bounds
        if hull is not None:
            coords.extend(hull.as_tuple())
        elif mbr is not None:
            coords.extend(_NO_HULL)
        return coords, refs, mbr


#: What a page MBR with a NaN bound leaves in a scan block: no window
#: contains it.
_NO_HULL = (math.nan,) * 4


def _bounds(
    x_min, y_min, x_max, y_max, exact: bool | None = None
) -> tuple[Rect | None, Rect | None]:
    """:meth:`PageImage.bounds` over the four coordinate columns; ``exact``
    is whether every entry is ordered and free of NaN bounds, if known."""
    if not x_min:
        return None, None
    # min/max keep the first extreme, as mbr_of_rects' comparisons do.
    mbr = Rect(min(x_min), min(y_min), max(x_max), max(y_max))
    if exact is None:
        # No comparison with a NaN is true.
        exact = all(map(le, x_min, x_max)) and all(map(le, y_min, y_max))
    return mbr, mbr if exact else None


def compact_page(
    page_id: PageId, page_type: PageType, level: int, values: list
) -> Page:
    """A packed page over its compact image: header and entries, no zero tail.

    ``values`` are the slot values ``x_min, y_min, x_max, y_max, child,
    payload`` of entry 0, 1, …, with ``-1`` for ``None``: what a bulk load
    writes, after it has checked each against the format.
    """
    count = len(values) // 6
    header = _HEADER.pack(MAGIC, VERSION, _TYPE_CODES[page_type], level, count)
    image = PageImage(header + _body(count).pack(*values), count)
    return Page.packed(page_id, page_type, level, image)


def encode_page(page: Page, page_size: int = 4096) -> bytes:
    """Serialize a page into exactly ``page_size`` bytes.

    A page that is still packed is answered with its image: the very bytes
    it was read from when they fill a slot of this size, else its header
    and entries padded with zeros.

    Raises :class:`ValueError` when the page does not fit, a payload is not
    an integer, or a child or payload is negative (it would read back as
    ``None``).
    """
    # Read once: another thread may be unpacking this shared page.
    image = page._packed()
    if image is None:
        return _encode_entries(page, page_size)
    blob = image.blob
    if len(blob) == page_size:
        return blob
    _check_fit(page.page_id, image.count, page_size)
    used = _HEADER.size + image.count * _ENTRY.size
    return blob[:used] + bytes(page_size - used)


def _check_fit(page_id: PageId, count: int, page_size: int) -> None:
    if count > max_entries_for(page_size):
        raise ValueError(
            f"page {page_id} has {count} entries; "
            f"at most {max_entries_for(page_size)} fit into "
            f"{page_size}-byte pages"
        )


def _encode_entries(page: Page, page_size: int) -> bytes:
    """The full encode, from the entry objects."""
    entries = page.entries
    _check_fit(page.page_id, len(entries), page_size)
    flat: list = []
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
        flat += entry.mbr.as_tuple()
        flat += (-1 if child is None else child, -1 if payload is None else payload)
    header = (MAGIC, VERSION, _TYPE_CODES[page.page_type], page.level, len(entries))
    blob = _HEADER.pack(*header) + _body(len(entries)).pack(*flat)
    return blob + bytes(page_size - len(blob))


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
    flat = _body(count).unpack_from(blob, _HEADER.size)
    x_min, y_min, x_max, y_max = flat[0::6], flat[1::6], flat[2::6], flat[3::6]
    # Ordered and free of NaN bounds (no comparison with a NaN is true); a
    # slot that is not ordered fails the one check Rect makes per entry.
    exact = all(map(le, x_min, x_max)) and all(map(le, y_min, y_max))
    unordered = not exact and (
        any(map(gt, x_min, x_max)) or any(map(gt, y_min, y_max))
    )
    used = _HEADER.size + count * _ENTRY.size
    if unordered or blob[used:] != bytes(len(blob) - used):
        return decode_page(blob, page_id)
    image = PageImage(blob, count, _bounds(x_min, y_min, x_max, y_max, exact))
    return Page.packed(page_id, page_type, level, image)


class VerifiedPages:
    """Verify once per receiving end, medium or wire: :meth:`read` equals
    :func:`read_page`, but bytes equal to a page id's remembered *verified
    prefix* (header and entries) plus zeros come back packed around a new
    image over *them* that shares the remembered type, level, MBR, hull and
    derived values (``Page._derived``).  Others are verified, and remembered
    if packed.
    Nothing keeps an image or a slot; each access is one dict ``get``,
    ``pop`` or store, so a race costs a verify, never a stale page.
    """

    __slots__ = ("_known",)

    def __init__(self) -> None:
        self._known: dict[PageId, tuple] = {}

    def read(self, blob: bytes, page_id: PageId) -> Page:
        blob = bytes(blob)
        known = self._known.get(page_id)
        if known is not None:
            prefix, page_type, level, count, bounds, derived = known
            if blob.startswith(prefix) and blob.endswith(bytes(len(blob) - len(prefix))):
                image = PageImage(blob, count, bounds)
                return Page.packed(page_id, page_type, level, image, derived)
        page = read_page(blob, page_id)
        self.remember(page_id, page)
        return page

    def remember(self, page_id: PageId, page: Page) -> None:
        """Remember ``page`` if still packed, typed as its image's header."""
        image = page._packed()
        if image is not None:
            page_type, level, count = _header(image.blob, page_id)
            prefix = image.blob[: _HEADER.size + count * _ENTRY.size]
            known = (prefix, page_type, level, count, image.bounds(), page._slot(image)[3])
            self._known[page_id] = known

    def forget(self, page_id: PageId) -> None:
        self._known.pop(page_id, None)


# ----------------------------------------------------------------------
# Saving and loading built indexes
# ----------------------------------------------------------------------
#
# SimulatedDisk persists mutations implicitly (pages are shared objects);
# a DurableDisk copies on read, so indexes are *built* in memory and then
# saved.  A JSON sidecar next to the page file records the tree metadata
# that does not live on pages (root id, height, capacities) and the slot
# format the pages were saved in.

#: The slot format of a saved tree: a CRC-32 before each encoded page.
_SLOT_FORMAT = "crc32-slots"


def save_tree(tree, path: str | Path, page_size: int = 4096) -> None:
    """Persist a built R-tree: pages to ``path``, metadata to ``path.json``.

    Each page goes into a checksummed :class:`~repro.wal.durable.DurableDisk`
    slot.  Payloads must be integers (see :func:`encode_page`).
    """
    from repro.wal.bytestore import FileByteStore
    from repro.wal.durable import DurableDisk

    path = Path(path)
    if path.exists():
        path.unlink()
    with FileByteStore(path) as store:
        disk = DurableDisk(store, page_size=page_size)
        for page_id in tree.all_page_ids():
            disk.store(tree.pagefile.disk.peek(page_id))
    metadata = {
        "root_id": tree.root_id,
        "height": tree.height,
        "entry_count": tree.entry_count,
        "max_dir_entries": tree.max_dir_entries,
        "max_data_entries": tree.max_data_entries,
        "page_size": page_size,
        "slot_format": _SLOT_FORMAT,
    }
    Path(str(path) + ".json").write_text(json.dumps(metadata), encoding="utf-8")


def load_tree(path: str | Path, mutable: bool = False):
    """Reopen a saved R-tree.

    With ``mutable=False`` (default) the tree reads pages straight from the
    file; it must be treated as **read-only** — updates would mutate
    transient page copies — and its ``pagefile.disk`` closed when done.
    With ``mutable=True`` all pages are materialised into an in-memory
    :class:`SimulatedDisk`, giving a fully updatable tree at the cost of
    loading everything.  A slot whose checksum fails raises
    :class:`~repro.wal.durable.TornPageError` when read; a file saved in
    another slot format raises :class:`ValueError`.
    """
    from repro.sam.rstar import RStarTree
    from repro.storage.disk import SimulatedDisk
    from repro.storage.pagefile import PageFile
    from repro.wal.bytestore import FileByteStore
    from repro.wal.durable import DurableDisk

    path = Path(path)
    metadata = json.loads(Path(str(path) + ".json").read_text(encoding="utf-8"))
    if metadata.get("slot_format") != _SLOT_FORMAT:
        raise ValueError(
            f"{path} was saved without checksummed slots; "
            "re-save it with save_tree"
        )
    store = FileByteStore(path)
    try:
        disk = DurableDisk(store, page_size=metadata["page_size"])
        backing = disk
        if mutable:
            backing = SimulatedDisk()
            for page_id in disk.page_ids():
                backing.store(disk.peek(page_id))
    except BaseException:
        store.close()
        raise
    if mutable:
        disk.close()
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
