"""Priority-based LRU (LRU-P), Section 2.1 of the paper.

A generalization of LRU-T: each page has a priority, and the page with the
lowest priority is dropped first (LRU breaks ties).  Following the paper's
example, the priority of an index page is its height in the tree — object
pages get priority -1 (below data pages at level 0), the root the highest
value.  This generalizes pinning the top levels of an R-tree in the buffer
(Leutenegger & Lopez): with a small buffer, high levels effectively never
leave.
"""

from __future__ import annotations

from repro.buffer.policies.base import ReplacementPolicy
from repro.storage.page import Page, PageId, PageType


def level_priority(page: Page) -> int:
    """A page's priority: its tree level; object pages sit below the tree."""
    if page.page_type is PageType.OBJECT:
        return -1
    return page.level


class LRUP(ReplacementPolicy):
    """Evict the page with the lowest priority; ties fall to LRU."""

    name = "LRU-P"

    def select_victim(self) -> PageId:
        frames = self._evictable()
        victim = min(
            frames,
            key=lambda frame: (level_priority(frame.page), frame.last_access),
        )
        return victim.page_id
