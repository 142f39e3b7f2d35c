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
(:class:`~repro.storage.serialization.PageImage`).  The first read of
``entries`` unpacks them and drops the image, so the image is trusted only
while nobody has held the entry objects — there is nothing to invalidate.

An unpacked page that has been scanned (:meth:`Page.matching`) keeps a
**scan block**: its entries' coordinates and then the page MBR's as one
contiguous array, what each entry refers to, and the page MBR.  Walking ~45
entry objects costs a cache miss per object once the heap is larger than
the cache; the block is read front to back, and a visit's containment test
reads the MBR from the array, not from the Rect's scattered floats.
It is derived data with a two-part validity rule, see
:meth:`Page.matching`.  The image and the block also keep the page's
spatial criteria once computed, so each is computed once per version of the
page, not once per load.
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
    #: every page built from entry objects.  Meaningful only while the
    #: ``entries`` slot is empty (see :meth:`_packed`).
    _image: PageImage | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: The scan block (see :func:`_scan_block`), or ``None``.  Never read
    #: without checking its stamp (:meth:`_scan_if_valid`).
    _scan: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: How often :meth:`drop_scan` has run.  Part of the stamp: a block that
    #: a reader began before an edit was declared and stored after it must
    #: not pass.
    _scan_epoch: int = field(default=0, init=False, repr=False, compare=False)

    @classmethod
    def packed(
        cls, page_id: PageId, page_type: PageType, level: int, image: PageImage
    ) -> "Page":
        """A page whose entries stay inside ``image`` until they are read.

        The ``entries`` slot is left empty; its first read lands in
        :meth:`__getattr__`.  ``image`` must already be verified: unpacking
        it later must not be able to fail.
        """
        page = object.__new__(cls)
        page.page_id = page_id
        page.page_type = page_type
        page.level = level
        page._image = image
        page._scan = None
        page._scan_epoch = 0
        return page

    def __getattr__(self, name: str) -> Any:
        # Python only calls this when a slot is empty, which ``__init__``
        # never leaves: pages built from entry objects do not come here.
        if name != "entries":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        with _UNPACKING:
            image = self._image
            if image is None:
                # Another thread unpacked first; take the list it installed.
                return _ENTRIES_SLOT.__get__(self)
            entries = image.entries()
            self.entries = entries
            self._image = None
            return entries

    def _packed(self) -> PageImage | None:
        """The image, while the entries are still only inside it.

        The test is the empty ``entries`` slot, not ``_image``: assigning
        ``page.entries`` over a packed page fills the slot without passing
        through :meth:`__getattr__`, and the stale image is dropped here.
        """
        image = self._image
        if image is None:
            return None
        try:
            _ENTRIES_SLOT.__get__(self)
        except AttributeError:
            return image
        self._image = None
        return None

    def image(self) -> bytes | None:
        """The verified slot bytes this page was read from, while exact.

        ``None`` for a page built from entry objects and, for good, once
        ``entries`` of a packed page has been read or assigned: whoever
        holds the entry objects may have changed them.
        """
        image = self._packed()
        return None if image is None else image.blob

    def mbr(self) -> Rect | None:
        """MBR containing all entries, or ``None`` for an empty page.

        This is ``mbr({e | e in p})`` of the paper, the rectangle whose area
        and margin define the A and M replacement criteria.
        """
        image = self._packed()
        if image is not None:
            return image.mbr
        entries = self.entries
        if not entries:
            return None
        block = self._scan_if_valid(entries)
        if block is not None:
            return block[5]
        return mbr_of_rects(entry.mbr for entry in entries)

    def _scan_if_valid(self, entries: list[PageEntry]) -> tuple | None:
        """The scan block if its stamp names ``entries`` (pass
        ``self.entries``, read once) as they are now."""
        block = self._scan
        if (
            block is not None
            and block[0] is entries
            and block[1] == len(entries)
            and block[2] == self._scan_epoch
        ):
            return block
        return None

    def _derived(self) -> dict:
        """Values derived from the page as it is now (its spatial criteria),
        kept with its image or its scan block and valid as long as they
        are; without either, a dict nobody keeps."""
        image = self._packed()
        if image is not None:
            return image._derived
        block = self._scan_if_valid(self.entries)
        return {} if block is None else block[6]

    def matching(self, window: Rect) -> list[Any]:
        """What the entries whose MBR meets ``window`` refer to, in entry
        order: payloads on a leaf (level 0), child page ids above.

        Equal to ``[ref for e in entries if e.mbr.intersects(window)]``,
        answered from the scan block, which the first scan of an unpacked
        page builds (:meth:`mbr` reads it and never builds it).  A packed
        page is scanned inside its image and stays packed.

        The block is trusted under two rules.  *Stamp:* it names the
        ``entries`` list it was built from, that list's length and the
        page's drop count, and is ignored unless ``self.entries`` is that
        list at that length and nothing was dropped since — so
        ``page.entries = …``, ``append``, ``del``, ``insert``, ``extend``
        and ``remove`` need no call.  *Contract:* an edit the stamp cannot
        see — ``entries[i] = …``, an in-place sort, assigning an entry's
        field or the page's ``level`` — is followed by ``mark_dirty``
        (:meth:`~repro.sam.base.SpatialIndex._mark_dirty`,
        :meth:`~repro.buffer.manager.BufferManager.mark_dirty`), which
        calls :meth:`drop_scan`; the spatial criteria kept in the block
        (:meth:`_derived`) live and die with it.

        No lock.  Threads sharing the page may each build the block: the
        blocks are equal, one store installs either, and a thread that took
        a block scans that snapshot whatever is stored or dropped
        meanwhile.  A block begun before a ``drop_scan`` and stored after
        it carries the older count and fails the stamp.
        """
        # This runs once per page a query reaches, so the stamp test of
        # _scan_if_valid, Rect.contains and Rect.as_tuple are inlined, and
        # _packed is called only for a page that still has an image.
        if self._image is not None:
            image = self._packed()
            if image is not None:
                return image.matching(window, self.level == 0)
        entries = self.entries
        block = self._scan
        if (
            block is None
            or block[0] is not entries
            or block[1] != len(entries)
            or block[2] != self._scan_epoch
        ):
            leaf = self.level == 0
            # The drop count is read before the entries' content is:
            # whoever edits them from here on bumps it afterwards.
            block = _scan_block(entries, leaf, self._scan_epoch)
            if block is None:
                # No exact block (see _scan_block): the walk it stands for.
                return [
                    entry.payload if leaf else entry.child
                    for entry in entries
                    if entry.mbr.intersects(window)
                ]
            self._scan = block
        w_x_min = window.x_min
        w_y_min = window.y_min
        w_x_max = window.x_max
        w_y_max = window.y_max
        coords = block[3]
        if (
            block[5] is not None
            and w_x_min <= coords[-4]
            and w_y_min <= coords[-3]
            and coords[-2] <= w_x_max
            and coords[-1] <= w_y_max
        ):
            # Every entry lies inside the page MBR, so it meets the window.
            return list(block[4])
        # One iterator four times: zip draws x_min, y_min, x_max, y_max of
        # an entry in turn, and stops at the last ref, before the MBR.  The
        # test is Rect.intersects, inlined.
        coords = iter(coords)
        return [
            ref
            for x_min, y_min, x_max, y_max, ref in zip(
                coords, coords, coords, coords, block[4]
            )
            if x_min <= w_x_max
            and w_x_min <= x_max
            and y_min <= w_y_max
            and w_y_min <= y_max
        ]

    def drop_scan(self) -> None:
        """Forget the scan block: the page's content was edited in place.

        Call it after the edit, as ``mark_dirty`` does."""
        self._scan_epoch += 1
        self._scan = None

    def _scan_is_exact(self) -> bool:
        """No usable block, or one equal to a freshly built one.

        ``False`` means an in-place edit was not followed by
        ``mark_dirty``; index ``validate()`` methods assert this.
        """
        image = self._packed()
        if image is not None:
            return True
        entries = self.entries
        block = self._scan_if_valid(entries)
        # Derived values (the last item) follow from the rest on demand.
        return block is None or block[:6] == (
            _scan_block(entries, self.level == 0, self._scan_epoch) or ()
        )[:6]

    def entry_mbrs(self) -> list[Rect]:
        """The MBRs of all entries (inputs of the EA, EM, EO criteria)."""
        return [entry.mbr for entry in self.entries]

    def children(self) -> list[PageId]:
        """Child page ids referenced by the entries (directory pages)."""
        image = self._packed()
        if image is not None:
            return image.children()
        return [entry.child for entry in self.entries if entry.child is not None]

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def __len__(self) -> int:
        image = self._packed()
        if image is not None:
            return image.count
        return len(self.entries)


#: Reads the ``entries`` slot without falling back to ``Page.__getattr__``.
_ENTRIES_SLOT = Page.__dict__["entries"]


def _scan_block(entries: list[PageEntry], leaf: bool, epoch: int) -> tuple | None:
    """The scan block of a page holding ``entries``, or ``None``.

    ``(entries, count, epoch, coords, refs, mbr, derived)``: the stamp
    (the list itself, its length when read, the page's ``_scan_epoch``
    from before that), ``x_min, y_min, x_max, y_max`` of entry 0, 1, … and
    last of the page MBR as one ``array('d')``, what each entry refers to
    (payload on a leaf, child above), the page MBR (``None`` for an empty
    page), and the dict :meth:`Page._derived` hands out.  The tuple is
    complete before anyone can see it.  :meth:`Page.matching` reads the
    MBR's copy in the array: the Rect's floats lie elsewhere in memory,
    and a visit that touches them pays a cache miss apiece.

    Exact or absent: a coordinate a C double does not hold exactly (an
    integer beyond 2**53, a NaN, a ``Fraction``) yields no block, so a scan
    of the block cannot differ from :meth:`Rect.intersects` by a rounding.
    The MBR is ``min``/``max`` over the original objects, which keep the
    first extreme as :func:`mbr_of_rects`' strict comparisons do.
    """
    # One C-level copy: entries appended while this runs are either in the
    # block and in its count, or in neither.
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
    return entries, len(snapshot), epoch, coords, refs, mbr, {}


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
