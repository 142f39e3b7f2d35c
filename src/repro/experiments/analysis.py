"""Reference-string analysis: stack distances, miss-ratio curves, OPT.

Classic tooling of the buffer-management literature, operating on recorded
reference strings (:class:`repro.obs.trace.AccessTrace`):

* **Mattson stack-distance analysis** — one pass over the trace yields the
  exact LRU miss count for *every* buffer size simultaneously (Mattson et
  al. 1970).  Used to position the paper's buffer-size sweep on the full
  miss-ratio curve instead of sampling it.
* **Belady's OPT (MIN)** — the offline-optimal replacement that evicts the
  page whose next use lies farthest in the future.  No online policy can
  do better, so the OPT gap measures how much headroom a policy leaves.
* **Trace profiles** — per page-type/level reference and reuse statistics,
  the quantitative backing for statements like "directory pages are
  requested more often" (Section 2.1).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.obs.trace import AccessTrace
from repro.storage.disk import SimulatedDisk
from repro.storage.page import PageId


# ----------------------------------------------------------------------
# Mattson stack distances
# ----------------------------------------------------------------------

def stack_distances(trace: AccessTrace) -> list[int]:
    """LRU stack distance of every reference (-1 for first-time misses).

    The stack distance of a reference is the number of *distinct* pages
    accessed since the previous reference to the same page.  Under LRU, a
    reference hits iff its stack distance is smaller than the buffer
    capacity — which makes the distance histogram a complete description
    of LRU behaviour at all sizes.
    """
    stack: list[PageId] = []  # most recent first
    resident: set[PageId] = set()
    distances: list[int] = []
    for page_id, _ in trace.references:
        if page_id in resident:
            # Current depth = number of distinct pages accessed since the
            # last reference to this page.
            depth = stack.index(page_id)
            distances.append(depth)
            del stack[depth]
        else:
            distances.append(-1)
            resident.add(page_id)
        stack.insert(0, page_id)
    return distances


def lru_miss_curve(trace: AccessTrace, max_capacity: int) -> list[int]:
    """Exact LRU miss counts for every capacity 1..max_capacity.

    ``result[c - 1]`` is the number of misses a ``c``-frame LRU buffer
    takes on the trace — all sizes from a single stack simulation.
    """
    if max_capacity < 1:
        raise ValueError("max_capacity must be positive")
    distances = stack_distances(trace)
    # hits(c) = #references with 0 <= distance < c; cumulative histogram.
    hit_histogram = [0] * max_capacity
    cold_misses = 0
    deep_references = 0
    for distance in distances:
        if distance < 0:
            cold_misses += 1
        elif distance < max_capacity:
            hit_histogram[distance] += 1
        else:
            deep_references += 1
    curve: list[int] = []
    hits = 0
    total = len(distances)
    for capacity in range(1, max_capacity + 1):
        hits += hit_histogram[capacity - 1]
        curve.append(total - hits)
    return curve


# ----------------------------------------------------------------------
# Belady's OPT
# ----------------------------------------------------------------------

def opt_misses(trace: AccessTrace, capacity: int) -> int:
    """Miss count of Belady's offline-optimal replacement (MIN).

    Evicts the resident page whose next reference is farthest away (or
    never).  Implemented with precomputed next-use indexes and a lazy
    max-heap; O(n log n) over the trace length.
    """
    if capacity < 1:
        raise ValueError("capacity must be positive")
    references = [page_id for page_id, _ in trace.references]
    n = len(references)
    # next_use[i] = index of the next reference to the same page, or n.
    next_use = [n] * n
    last_seen: dict[PageId, int] = {}
    for index in range(n - 1, -1, -1):
        page_id = references[index]
        next_use[index] = last_seen.get(page_id, n + index)
        last_seen[page_id] = index
    resident: dict[PageId, int] = {}  # page -> its current next-use index
    # Lazy max-heap of (-next_use, page_id); stale entries are skipped.
    heap: list[tuple[int, PageId]] = []
    misses = 0
    for index, page_id in enumerate(references):
        upcoming = next_use[index]
        if page_id in resident:
            resident[page_id] = upcoming
            heapq.heappush(heap, (-upcoming, page_id))
            continue
        misses += 1
        if len(resident) >= capacity:
            while True:
                negative_next, victim = heapq.heappop(heap)
                if resident.get(victim) == -negative_next:
                    del resident[victim]
                    break
        resident[page_id] = upcoming
        heapq.heappush(heap, (-upcoming, page_id))
    return misses


# ----------------------------------------------------------------------
# Trace profiles
# ----------------------------------------------------------------------

@dataclass(slots=True)
class CategoryProfile:
    """Reference statistics of one page category or level."""

    pages: int = 0
    references: int = 0
    re_references: int = 0

    @property
    def references_per_page(self) -> float:
        return self.references / self.pages if self.pages else 0.0

    @property
    def reuse_ratio(self) -> float:
        """Share of references that are re-references (reuse intensity)."""
        return self.re_references / self.references if self.references else 0.0


@dataclass(slots=True)
class TraceProfile:
    """Per-type and per-level breakdown of a trace."""

    total_references: int
    distinct_pages: int
    by_type: dict[str, CategoryProfile] = field(default_factory=dict)
    by_level: dict[int, CategoryProfile] = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [
            f"{self.total_references} references over "
            f"{self.distinct_pages} distinct pages"
        ]
        for label, profile in sorted(self.by_type.items()):
            lines.append(
                f"  type {label:<9}: {profile.pages:5d} pages, "
                f"{profile.references_per_page:7.1f} refs/page, "
                f"reuse {profile.reuse_ratio:.0%}"
            )
        for level, profile in sorted(self.by_level.items(), reverse=True):
            lines.append(
                f"  level {level:<8}: {profile.pages:5d} pages, "
                f"{profile.references_per_page:7.1f} refs/page, "
                f"reuse {profile.reuse_ratio:.0%}"
            )
        return "\n".join(lines)


def profile_trace(trace: AccessTrace, disk: SimulatedDisk) -> TraceProfile:
    """Summarise a trace per page type and per tree level.

    Quantifies the assumption behind LRU-T/LRU-P: higher levels should
    show dramatically more references per page.  ``disk`` is the index's
    own; each page's type and level are read from it once, via ``peek``.
    """
    kinds: dict[PageId, tuple[str, int]] = {}
    by_type: dict[str, CategoryProfile] = {}
    by_level: dict[int, CategoryProfile] = {}
    for page_id, _ in trace.references:
        kind = kinds.get(page_id)
        first = kind is None
        if first:
            page = disk.peek(page_id)
            kind = kinds[page_id] = (page.page_type.value, page.level)
        type_value, level = kind
        for profile in (
            by_type.setdefault(type_value, CategoryProfile()),
            by_level.setdefault(level, CategoryProfile()),
        ):
            profile.references += 1
            if first:
                profile.pages += 1
            else:
                profile.re_references += 1
    return TraceProfile(
        total_references=len(trace),
        distinct_pages=len(kinds),
        by_type=by_type,
        by_level=by_level,
    )
