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
"""

from __future__ import annotations

import enum
import threading
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
            return image.mbr()
        if not self.entries:
            return None
        return mbr_of_rects(entry.mbr for entry in self.entries)

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
