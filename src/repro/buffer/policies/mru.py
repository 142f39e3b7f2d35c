"""Most recently used replacement.

Evicts the page touched most recently.  MRU is optimal for cyclic scans
that exceed the buffer size and pathological for most other workloads; it is
kept as the recency-inverse analytical baseline, the baseline ablation's
known-bad contrast point.  On the
slot core the victim is the first unpinned frame off the recency chain's
MRU tail — the mirror image of LRU's head walk.
"""

from __future__ import annotations

from repro.buffer.frames import Frame
from repro.buffer.policies.base import ReplacementPolicy
from repro.storage.page import PageId


class MRU(ReplacementPolicy):
    """Evict the page that was accessed most recently."""

    name = "MRU"

    def select_victim(self) -> PageId:
        frame = self.buffer.frames.tail
        while frame is not None:
            if frame.pin_count == 0:
                return frame.page.page_id
            frame = frame.lru_prev
        from repro.buffer.manager import BufferFullError

        raise BufferFullError("all resident pages are pinned")

    def flush_priority(self, frame: Frame) -> float:
        # MRU evicts the *hottest* frame first, so those flush first too.
        return -float(frame.last_access)
