"""Spatial page-replacement algorithms (Section 2.3 of the paper).

A spatial policy ranks resident pages by a *spatial criterion* derived from
the R*-tree optimization goals (Beckmann et al. 1990) and evicts the page
with the **smallest** criterion — the intuition being that pages with large
spatial footprint are hit by more queries and should stay buffered:

====  =========================================================
A     area of the page MBR (optimization goal O1)
EA    sum of the areas of the entry MBRs (O1 + O4)
M     margin of the page MBR (O3)
EM    sum of the margins of the entry MBRs (O3 + O4)
EO    pairwise overlap area between the entry MBRs
====  =========================================================

Ties (and empty pages, whose criterion is 0) are broken by LRU, exactly as
in the paper's victim rule: compute the set ``C`` of minimal-criterion
pages, and pick from ``C`` by LRU.

Criterion values are pure functions of the page content; they are computed
when first needed and cached on the frame (invalidated when the page is
dirtied), matching the paper's remark that area/margin cost "only a small
overhead when a new page is loaded into the buffer" while the overlap is
costlier and worth materialising.
"""

from __future__ import annotations

from typing import Callable

from repro.buffer.frames import Frame
from repro.buffer.policies.base import ReplacementPolicy
from repro.geometry.rect import total_overlap
from repro.storage.page import Page, PageId


def crit_area(page: Page) -> float:
    """spatialCrit_A(p): area of the MBR containing all entries of p."""
    mbr = page.mbr()
    return mbr.area if mbr is not None else 0.0


def crit_entry_area(page: Page) -> float:
    """spatialCrit_EA(p): sum of the entry MBR areas (not normalised)."""
    return sum(entry.mbr.area for entry in page.entries)


def crit_margin(page: Page) -> float:
    """spatialCrit_M(p): margin of the MBR containing all entries of p."""
    mbr = page.mbr()
    return mbr.margin if mbr is not None else 0.0


def crit_entry_margin(page: Page) -> float:
    """spatialCrit_EM(p): sum of the entry MBR margins (not normalised)."""
    return sum(entry.mbr.margin for entry in page.entries)


def crit_entry_overlap(page: Page) -> float:
    """spatialCrit_EO(p): summed pairwise overlap area between entries."""
    return total_overlap(page.entry_mbrs())


#: The five criteria of the paper, by their short names.
SPATIAL_CRITERIA: dict[str, Callable[[Page], float]] = {
    "A": crit_area,
    "EA": crit_entry_area,
    "M": crit_margin,
    "EM": crit_entry_margin,
    "EO": crit_entry_overlap,
}


def spatial_criterion(frame: Frame, criterion: str) -> float:
    """Criterion value of a frame's page, cached on the frame."""
    cached = frame.crit_cache.get(criterion)
    if cached is not None:
        return cached
    value = SPATIAL_CRITERIA[criterion](frame.page)
    frame.crit_cache[criterion] = value
    return value


def first_min_candidate(
    frame: Frame | None, criterion: str, count: int
) -> Frame | None:
    """The paper's victim rule, walked up the recency chain from ``frame``.

    Pass the chain's LRU head.  The first ``count`` unpinned frames form
    the candidate set; the candidate with the smallest criterion wins, and
    the strict ``<`` keeps the *first* frame at the minimum — minimal
    criterion, ties broken by LRU.  ``None`` when no frame is unpinned.
    This is the one O(candidates) chain walk: A and SLRU decide by it, and
    ASB's tests hold its index to it.
    """
    victim: Frame | None = None
    best = 0.0
    while frame is not None and count > 0:
        if frame.pin_count == 0:
            count -= 1
            value = frame.crit_cache.get(criterion)
            if value is None:
                value = spatial_criterion(frame, criterion)
            if victim is None or value < best:
                victim = frame
                best = value
        frame = frame.lru_next
    return victim


class SpatialPolicy(ReplacementPolicy):
    """Pure spatial replacement: evict the page with the smallest criterion.

    The paper's experiments (Section 3.4) single out criterion A as the best
    performer and use it as the representative spatial strategy; A is the
    default here.
    """

    def __init__(self, criterion: str = "A") -> None:
        super().__init__()
        if criterion not in SPATIAL_CRITERIA:
            raise ValueError(
                f"unknown spatial criterion {criterion!r}; "
                f"expected one of {sorted(SPATIAL_CRITERIA)}"
            )
        self.criterion = criterion
        self.name = criterion

    def select_victim(self) -> PageId:
        frames = self.buffer.frames
        victim = first_min_candidate(frames.head, self.criterion, len(frames))
        if victim is None:
            from repro.buffer.manager import BufferFullError

            raise BufferFullError("all resident pages are pinned")
        return victim.page.page_id
