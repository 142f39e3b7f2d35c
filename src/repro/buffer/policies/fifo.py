"""First-in first-out replacement.

Not part of the paper's comparison, but a standard analytical baseline (it
is also the rule ASB uses *inside* its overflow buffer, Section 4.2) and a
column of the baseline ablation.
"""

from __future__ import annotations

from repro.buffer.frames import Frame
from repro.buffer.policies.base import ReplacementPolicy
from repro.storage.page import PageId


class FIFO(ReplacementPolicy):
    """Evict the page that entered the buffer first."""

    name = "FIFO"

    def select_victim(self) -> PageId:
        frames = self._evictable()
        return min(frames, key=lambda frame: frame.loaded_at).page_id

    def flush_priority(self, frame: Frame) -> float:
        # FIFO's eviction order ignores recency: oldest arrival goes first.
        return float(frame.loaded_at)
