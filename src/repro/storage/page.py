"""Self-describing pages.

Every replacement policy in the paper consumes some page metadata:

* LRU-T needs the page *type* (directory / data / object, Section 2.1);
* LRU-P needs a *priority*, here the level of the page in the index tree;
* the spatial policies (Section 2.3) need the MBRs of the page's *entries*.

A :class:`Page` therefore carries its type, its tree level and its entries,
so a policy can compute its criterion without knowing which spatial access
method produced the page.  The spatial criteria themselves live in
:mod:`repro.buffer.policies.spatial`.

A page read from a medium that holds bytes arrives **packed**: its header
fields are decoded and its entries are still inside the verified slot image
(:class:`~repro.storage.serialization.PageImage`).  So does every page an
STR bulk load writes: it is packed straight into its compact image.  The
first read of ``entries`` unpacks them and drops the image, and assigning
``entries`` drops it too, so the image is trusted only while nobody has
held the entry objects — there is nothing to invalidate.

Every page keeps the values derived from its current version in one slot
under one stamp: the **scan block** that :meth:`Page.matching` reads
instead of walking ~45 scattered entry objects or the slot bytes (see
:func:`_scan_block`), and a dict (:meth:`Page._derived`) of the page MBR
and spatial criteria, each computed once per version of the page, not
once per load.  Neither ever unpacks a packed page.
"""

from __future__ import annotations

import enum
import threading
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.geometry.rect import Rect, mbr_of_rects

if TYPE_CHECKING:
    from repro.storage.serialization import PageImage

#: Pages are identified by dense small integers handed out by the page file.
PageId = int

#: Serialises the unpacking of packed pages: two threads reading the same
#: shared frame must be handed the same entry list, or one's edits are lost.
_UNPACKING = threading.Lock()


class PageType(enum.Enum):
    """The three page categories of a spatial database system (Section 2.1).

    Directory pages are inner nodes of the spatial access method, data pages
    its leaves, and object pages hold the exact representation of spatial
    objects.  The type-based LRU drops object pages first, then data pages,
    and keeps directory pages longest.
    """

    DIRECTORY = "directory"
    DATA = "data"
    OBJECT = "object"

    @property
    def type_rank(self) -> int:
        """Eviction preference of LRU-T: lower rank is dropped first."""
        if self is PageType.OBJECT:
            return 0
        if self is PageType.DATA:
            return 1
        return 2


@dataclass(slots=True)
class PageEntry:
    """One entry of a page: an MBR plus either a child pointer or a payload.

    In a directory page the entry references a child page; in a data page it
    references a stored object (``payload`` carries the object, ``child``
    may point at the object page holding its exact representation); in an
    object page it carries a fragment of the exact representation.
    """

    mbr: Rect
    child: PageId | None = None
    payload: Any = None


@dataclass(slots=True)
class Page:
    """A disk page: identity, category, tree level, and spatial entries.

    ``level`` follows R-tree convention: data (leaf) pages have level 0 and
    the root has the greatest level.  Object pages use level -1; they are
    below the tree.  ``level`` doubles as the LRU-P priority.
    """

    page_id: PageId
    page_type: PageType
    level: int = 0
    entries: list[PageEntry] = field(default_factory=list)
    #: The slot image a packed page still keeps its entries in; ``None`` on
    #: every page whose ``entries`` slot is filled (see :class:`_Entries`).
    _image: PageImage | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: ``(source, count, version, values, coords, refs)``: the stamp, the
    #: dict of derived values and the scan block (``None, None`` until
    #: built), or ``None``.  Never read without checking the stamp
    #: (:meth:`_slot`).
    _kept: tuple | None = field(default=None, init=False, repr=False, compare=False)
    #: How often :meth:`drop_derived` has run.  Part of the stamp: a value
    #: that a reader began before an edit was declared and stored after it
    #: must not pass.
    _version: int = field(default=0, init=False, repr=False, compare=False)

    @classmethod
    def packed(
        cls,
        page_id: PageId,
        page_type: PageType,
        level: int,
        image: PageImage,
        derived: dict | None = None,
    ) -> "Page":
        """A page whose entries stay inside ``image`` until they are read.

        The ``entries`` slot is left empty; its first read unpacks the
        image (:class:`_Entries`).  ``image`` must already be verified:
        unpacking it later must not be able to fail.  ``derived`` is the
        dict of another packed page of the same bytes, to share its values.
        """
        page = object.__new__(cls)
        page.page_id = page_id
        page.page_type = page_type
        page.level = level
        page._image = image
        page._kept = None if derived is None else (image, len(image), 0, derived, None, None)
        page._version = 0
        return page

    def _unpack(self) -> list[PageEntry]:
        """The entry list, built from the image on the first read."""
        with _UNPACKING:
            image = self._image
            if image is None:
                # Another thread unpacked first; take the list it installed.
                return _ENTRIES_GET(self)
            entries = image.entries()
            _ENTRIES_SET(self, entries)
            self._image = None
            # The image's values stay with the image; the list starts afresh.
            self._kept = None
            return entries

    def _packed(self) -> PageImage | None:
        """The image, while the entries are still only inside it."""
        return self._image

    def image(self) -> bytes | None:
        """The verified slot bytes this page was read from (a bulk-loaded
        page's compact image: header and entries), while exact.

        ``None`` for a page built from entry objects and, for good, once
        ``entries`` of a packed page has been read or assigned: whoever
        holds the entry objects may have changed them.
        """
        image = self._image
        return None if image is None else image.blob

    def mbr(self) -> Rect | None:
        """MBR containing all entries, or ``None`` for an empty page.

        This is ``mbr({e | e in p})`` of the paper, the rectangle whose area
        and margin define the A and M replacement criteria.  Kept with the
        page version (:meth:`_derived`), or with the image of a packed
        page; it never builds the scan block.
        """
        image = self._image
        if image is not None:
            return image.mbr
        entries = _ENTRIES_GET(self)
        if not entries:
            return None
        values = self._slot(entries)[3]
        mbr = values.get("mbr")
        if mbr is None:
            mbr = values["mbr"] = mbr_of_rects(entry.mbr for entry in entries)
        return mbr

    def _slot(self, source: Any) -> tuple:
        """The slot kept for ``source`` (``self.entries`` read once, or the
        image while packed) as it is now; a fresh one is kept if none is."""
        kept = self._kept
        if (
            kept is not None
            and kept[0] is source
            and kept[1] == len(source)
            and kept[2] == self._version
        ):
            return kept
        # The version is read before the content: whoever edits it from
        # here on bumps the version afterwards.
        version = self._version
        kept = self._kept = (source, len(source), version, {}, None, None)
        return kept

    def _derived(self) -> dict:
        """The values derived from the page as it is now, beside its scan
        block: its MBR (``"mbr"``) and spatial criteria (by name)."""
        image = self._image
        return self._slot(_ENTRIES_GET(self) if image is None else image)[3]

    def matching(self, window: Rect) -> list[Any]:
        """What the entries whose MBR meets ``window`` refer to, in entry
        order: payloads on a leaf (level 0), child page ids above.

        Equal to ``[ref for e in entries if e.mbr.intersects(window)]``,
        answered from the scan block, which the first scan of the page
        builds (:meth:`mbr` and the criteria never build it).  A packed
        page's block comes from its image, stamped by the image, and the
        page stays packed.

        Derived values are trusted under two rules.  *Stamp:* they name the
        ``entries`` list they were derived from, that list's length and the
        page's version, and are ignored unless ``self.entries`` is that
        list at that length and the version is the same — so
        ``page.entries = …``, ``append``, ``del``, ``insert``, ``extend``
        and ``remove`` need no call.  *Contract:* an edit the stamp cannot
        see — ``entries[i] = …``, an in-place sort, assigning an entry's
        field or the page's ``level`` — is followed by ``mark_dirty``
        (:meth:`~repro.sam.base.SpatialIndex._mark_dirty`,
        :meth:`~repro.buffer.manager.BufferManager.mark_dirty`), which
        calls :meth:`drop_derived`.

        No lock.  Threads sharing the page may each build a value: the
        values are equal, one store installs either, and a thread that took
        a block scans that snapshot whatever is stored or dropped
        meanwhile.  A value begun before a ``drop_derived`` and stored after
        it lands under the older version and fails the stamp.
        """
        # This runs once per page a query reaches, so the stamp test of
        # _slot, Rect.contains and Rect.as_tuple are inlined.  The block
        # sits in the slot, not in its dict: one object less to reach.
        image = self._image
        source = _ENTRIES_GET(self) if image is None else image
        kept = self._kept
        if (
            kept is None
            or kept[0] is not source
            or kept[1] != len(source)
            or kept[2] != self._version
        ):
            kept = self._slot(source)
        coords = kept[4]
        if coords is None:
            leaf = self.level == 0
            block = _scan_block(source, leaf)
            if block is None:
                # No exact block (see _scan_block): the walk it stands for.
                return [
                    entry.payload if leaf else entry.child
                    for entry in source
                    if entry.mbr.intersects(window)
                ]
            coords, refs, mbr = block
            if image is None:
                # A packed page's MBR is kept by its image.
                kept[3]["mbr"] = mbr
            # Stamped as the slot it joins: a drop since then fails it.
            self._kept = kept[:4] + (coords, refs)
        else:
            refs = kept[5]
        w_x_min = window.x_min
        w_y_min = window.y_min
        w_x_max = window.x_max
        w_y_max = window.y_max
        if (
            refs
            and w_x_min <= coords[-4]
            and w_y_min <= coords[-3]
            and coords[-2] <= w_x_max
            and coords[-1] <= w_y_max
        ):
            # Every entry lies inside the page MBR, so it meets the window.
            return list(refs)
        # One iterator four times: zip draws x_min, y_min, x_max, y_max of
        # an entry in turn, and stops at the last ref, before the MBR.  The
        # test is Rect.intersects, inlined.
        coords = iter(coords)
        return [
            ref
            for x_min, y_min, x_max, y_max, ref in zip(
                coords, coords, coords, coords, refs
            )
            if x_min <= w_x_max
            and w_x_min <= x_max
            and y_min <= w_y_max
            and w_y_min <= y_max
        ]

    def drop_derived(self) -> None:
        """Forget the derived values: the page's content was edited in place.

        Call it after the edit, as ``mark_dirty`` does."""
        self._version += 1
        self._kept = None

    def _derived_is_exact(self) -> bool:
        """Every value kept for the page as it is now (block, MBR, criteria)
        equals one computed afresh.  ``False`` means an in-place edit was
        not followed by ``mark_dirty``; index ``validate()`` methods assert
        this."""
        # Storage sits below the buffer; only this check needs the criteria.
        from repro.buffer.policies.spatial import SPATIAL_CRITERIA

        image = self._image
        source = _ENTRIES_GET(self) if image is None else image
        kept = self._slot(source)
        entries = source if image is None else image.entries()
        # A page of the same entries with nothing kept computes afresh.
        fresh = Page(self.page_id, self.page_type, self.level, entries)
        block = _scan_block(source, fresh.is_leaf)
        if kept[4] is not None and (
            block is None
            or kept[4].tobytes() != block[0].tobytes()
            or kept[5] != block[1]
        ):
            return False
        want = {"mbr": fresh.mbr()}
        for key, value in list(kept[3].items()):
            expected = want[key] if key in want else SPATIAL_CRITERIA[key](fresh)
            # A NaN criterion is the same value as a fresh NaN.
            if value != expected and (value == value or expected == expected):
                return False
        return True

    def entry_boxes(self) -> list[tuple[float, float, float, float]]:
        """``(x_min, y_min, x_max, y_max)`` of every entry's MBR, in entry
        order: the inputs of the EA, EM and EO criteria.  A packed page
        answers from its image and stays packed."""
        image = self._image
        if image is not None:
            return image.boxes()
        return [entry.mbr.as_tuple() for entry in _ENTRIES_GET(self)]

    def entry_mbrs(self) -> list[Rect]:
        """The MBRs of all entries (inputs of the EA, EM, EO criteria)."""
        return [entry.mbr for entry in self.entries]

    def children(self) -> list[PageId]:
        """Child page ids referenced by the entries (directory pages)."""
        image = self._image
        if image is not None:
            return image.children()
        return [entry.child for entry in self.entries if entry.child is not None]

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def __len__(self) -> int:
        image = self._image
        return len(_ENTRIES_GET(self) if image is None else image)


#: The ``entries`` slot itself: reading it raises while the page is packed.
_ENTRIES_SLOT = Page.__dict__["entries"]
_ENTRIES_GET = _ENTRIES_SLOT.__get__
_ENTRIES_SET = _ENTRIES_SLOT.__set__


class _Entries:
    """``Page.entries``: the slot, with the packed state kept beside it.

    A read of an empty slot unpacks the page's image (:meth:`Page._unpack`);
    an assignment drops the image, whose entries it replaces.  So a page
    is packed exactly while ``_image`` is set, and every other method
    tests that attribute alone.
    """

    __slots__ = ()

    def __get__(self, page: Page | None, owner: type | None = None) -> Any:
        if page is None:
            return self
        try:
            return _ENTRIES_GET(page)
        except AttributeError:
            return page._unpack()

    def __set__(self, page: Page, entries: list[PageEntry]) -> None:
        _ENTRIES_SET(page, entries)
        page._image = None


Page.entries = _Entries()  # type: ignore[assignment]


def _scan_block(source: Any, leaf: bool) -> tuple | None:
    """The scan block of a page holding ``source``, and its MBR.

    ``(coords, refs, mbr)``: ``x_min, y_min, x_max, y_max`` of entry 0, 1,
    … and last of the page MBR as one ``array('d')``, what each entry
    refers to (payload on a leaf, child above), and the page MBR (``None``
    for an empty page); ``None`` when there is no exact block.
    :meth:`Page.matching` reads the MBR's copy in the array: the Rect's
    floats lie elsewhere in memory, and a visit that touches them pays a
    cache miss apiece.

    ``source`` is the entry list, or the image of a packed page, whose
    block is read from its bytes
    (:meth:`~repro.storage.serialization.PageImage.block`).

    Exact or absent: a coordinate a C double does not hold exactly (an
    integer beyond 2**53, a NaN, a ``Fraction``) yields no block, so a scan
    of the block cannot differ from :meth:`Rect.intersects` by a rounding.
    The MBR is ``min``/``max`` over the original objects, which keep the
    first extreme as :func:`mbr_of_rects`' strict comparisons do.
    """
    if not isinstance(source, list):
        return source.block(leaf)
    entries = source
    # One C-level copy: entries appended while this runs are either in the
    # block or not, never half in it.
    snapshot = tuple(entries)
    flat: list[float] = []
    for entry in snapshot:
        rect = entry.mbr
        flat += (rect.x_min, rect.y_min, rect.x_max, rect.y_max)
    mbr = None
    if flat:
        mbr = Rect(min(flat[0::4]), min(flat[1::4]), max(flat[2::4]), max(flat[3::4]))
        flat += mbr.as_tuple()
    try:
        # Built from the list at its exact size; extend() over-allocates.
        coords = array("d", flat)
    except (TypeError, OverflowError):
        return None
    if coords.tolist() != flat:
        return None
    refs = tuple([entry.payload if leaf else entry.child for entry in snapshot])
    return coords, refs, mbr


def seed_page(page_id: PageId, payload: Any = None) -> Page:
    """A one-entry data page for preloading a disk.

    ``payload`` defaults to the page id, so a fetched page identifies
    itself; writers pass a version or marker to tell their update apart.
    """
    page = Page(page_id=page_id, page_type=PageType.DATA)
    page.entries.append(
        PageEntry(
            mbr=Rect(0.0, 0.0, 1.0, 1.0),
            payload=page_id if payload is None else payload,
        )
    )
    return page
