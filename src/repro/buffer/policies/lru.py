"""Least recently used — the reference policy of all experiments.

Every performance number in the paper is reported relative to LRU
(``gain = accesses(LRU) / accesses(policy) - 1``), so this implementation is
deliberately the textbook rule: evict the unpinned page whose last access is
oldest.  On the slot core the victim is the first unpinned frame off the
recency chain's LRU head — O(1 + pinned prefix), no scan; the chain is
ordered by ``last_access`` (unique logical clock), so the pick is identical
to the ``min()`` it replaces.
"""

from __future__ import annotations

from repro.buffer.policies.base import ReplacementPolicy
from repro.storage.page import PageId


class LRU(ReplacementPolicy):
    """Evict the page that has not been accessed for the longest time."""

    name = "LRU"

    def select_victim(self) -> PageId:
        frame = self.buffer.frames.head
        while frame is not None:
            if frame.pin_count == 0:
                return frame.page.page_id
            frame = frame.lru_next
        from repro.buffer.manager import BufferFullError

        raise BufferFullError("all resident pages are pinned")
