"""Self-describing pages.

Every replacement policy in the paper consumes some page metadata:

* LRU-T needs the page *type* (directory / data / object, Section 2.1);
* LRU-P needs a *priority*, here the level of the page in the index tree;
* the spatial policies (Section 2.3) need the MBRs of the page's *entries*.

A :class:`Page` therefore carries its type, its tree level and its entries,
so a policy can compute its criterion without knowing which spatial access
method produced the page.  The spatial criteria themselves live in
:mod:`repro.buffer.policies.spatial`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.geometry.rect import Rect, mbr_of_rects

#: Pages are identified by dense small integers handed out by the page file.
PageId = int


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

    def mbr(self) -> Rect | None:
        """MBR containing all entries, or ``None`` for an empty page.

        This is ``mbr({e | e in p})`` of the paper, the rectangle whose area
        and margin define the A and M replacement criteria.
        """
        if not self.entries:
            return None
        return mbr_of_rects(entry.mbr for entry in self.entries)

    def entry_mbrs(self) -> list[Rect]:
        """The MBRs of all entries (inputs of the EA, EM, EO criteria)."""
        return [entry.mbr for entry in self.entries]

    def children(self) -> list[PageId]:
        """Child page ids referenced by the entries (directory pages)."""
        return [entry.child for entry in self.entries if entry.child is not None]

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def __len__(self) -> int:
        return len(self.entries)


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
