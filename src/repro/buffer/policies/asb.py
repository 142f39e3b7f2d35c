"""ASB — the adaptable spatial buffer (Section 4.2, the paper's contribution).

The buffer is split into two parts:

* a **main part** managed by the SLRU combination: when a page must leave
  the main part, the ``candidate_size`` least-recently-used main pages form
  the candidate set and the one with the smallest spatial criterion is
  chosen (Section 4.1);
* an **overflow buffer** (by default 20 % of the whole buffer) that receives
  the pages dropped from the main part and is itself managed first-in
  first-out.  The FIFO head of the overflow buffer is the page that really
  leaves memory.

The overflow buffer doubles as the *feedback sensor* for self-tuning.  When
a requested page ``p`` is found in the overflow buffer, it is promoted back
to the main part, and the policy compares how the two ranking criteria judge
the pages still sitting in the overflow buffer:

1. more overflow pages have a **better spatial criterion** than ``p`` than
   have a better LRU criterion → the spatial ranking would have kept the
   wrong pages; LRU looks more suitable → the candidate set **shrinks**;
2. fewer → the spatial ranking looks more suitable → the candidate set
   **grows**;
3. equal → no change.

"Better" means *would have stayed in the buffer longer*: a larger spatial
criterion, respectively a more recent last access.  The size changes in
steps of 1 % of the main part (paper Section 4.3) and is clamped to
``[1, main_capacity]``.  Initial size: 25 % of the main part.

The overflow buffer is carved out of the given capacity, so ASB never uses
more memory than the policies it is compared against, and — unlike LRU-K —
it keeps no state about pages that left the buffer.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.buffer.frames import Frame
from repro.buffer.manager import BufferFullError, BufferManager
from repro.buffer.policies.base import ReplacementPolicy
from repro.buffer.policies.spatial import SPATIAL_CRITERIA, spatial_criterion
from repro.obs.events import BufferEvent
from repro.storage.page import PageId


class ASB(ReplacementPolicy):
    """Self-tuning combination of LRU and a spatial replacement criterion."""

    def __init__(
        self,
        criterion: str = "A",
        overflow_fraction: float = 0.2,
        candidate_fraction: float = 0.25,
        step_fraction: float = 0.01,
        record_trace: bool = False,
    ) -> None:
        super().__init__()
        if criterion not in SPATIAL_CRITERIA:
            raise ValueError(f"unknown spatial criterion {criterion!r}")
        if not 0.0 <= overflow_fraction < 1.0:
            raise ValueError("overflow fraction must be in [0, 1)")
        if not 0.0 < candidate_fraction <= 1.0:
            raise ValueError("initial candidate fraction must be in (0, 1]")
        if not 0.0 < step_fraction <= 1.0:
            raise ValueError("step fraction must be in (0, 1]")
        self.criterion = criterion
        self.overflow_fraction = overflow_fraction
        self.candidate_fraction = candidate_fraction
        self.step_fraction = step_fraction
        self.record_trace = record_trace
        self.name = "ASB"
        # Membership of the two buffer parts.  The main part is a set of
        # *frames* (identity-hashed — one pointer probe on the victim
        # walk); the overflow dict is page-id keyed and ordered
        # oldest-first, i.e. FIFO order.  A frame object can never linger:
        # ``on_evict`` always runs before the manager recycles a frame.
        self._main: set[Frame] = set()
        self._overflow: OrderedDict[PageId, None] = OrderedDict()
        self._candidate_size = 1
        self._step = 1
        self.main_capacity = 0
        self.overflow_capacity = 0
        #: Optional (clock, candidate_size) samples, one per adaptation.
        self.trace: list[tuple[int, int]] = []

    # ------------------------------------------------------------------
    # Wiring — capacities depend on the buffer size
    # ------------------------------------------------------------------

    def attach(self, buffer: BufferManager) -> None:
        super().attach(buffer)
        self.overflow_capacity = int(round(self.overflow_fraction * buffer.capacity))
        if self.overflow_capacity >= buffer.capacity:
            self.overflow_capacity = buffer.capacity - 1
        self.main_capacity = buffer.capacity - self.overflow_capacity
        self._step = max(1, round(self.step_fraction * self.main_capacity))
        self._candidate_size = self._initial_candidate_size()

    def _initial_candidate_size(self) -> int:
        return min(
            self.main_capacity,
            max(1, round(self.candidate_fraction * self.main_capacity)),
        )

    @property
    def candidate_size(self) -> int:
        """Current size of the LRU candidate set (the self-tuned knob)."""
        return self._candidate_size

    # ------------------------------------------------------------------
    # Event hooks
    # ------------------------------------------------------------------

    def on_load(self, frame: Frame) -> None:
        """A new page enters the main part, demoting a main page if full."""
        if len(self._main) >= self.main_capacity:
            self._demote_main_victim()
        self._main.add(frame)

    def on_hit(self, frame: Frame, correlated: bool) -> None:
        """Promote overflow hits back to the main part, adapting the knob.

        This hook runs *before* the manager renews the frame's access
        timestamp, so ``frame.last_access`` still reflects the page's
        recency while it sat in the overflow buffer — which is what the
        LRU-criterion comparison needs.
        """
        # ``frame.page.page_id`` dodges the property descriptor — this is
        # the only ASB work on the non-promoting hit path, so it must stay
        # one set probe.
        page_id = frame.page.page_id
        if page_id not in self._overflow:
            return
        self._adapt(frame)
        del self._overflow[page_id]
        if len(self._main) >= self.main_capacity:
            self._demote_main_victim()
        self._main.add(frame)
        observer = self.observer
        if observer is not None:
            observer.emit(
                BufferEvent(
                    kind="promote",
                    clock=self.buffer.clock,
                    page_id=frame.page_id,
                )
            )

    def on_evict(self, frame: Frame) -> None:
        self._main.discard(frame)
        self._overflow.pop(frame.page_id, None)

    def reset(self) -> None:
        self._main.clear()
        self._overflow.clear()
        self._candidate_size = self._initial_candidate_size()
        self.trace.clear()

    def retune(
        self,
        *,
        candidate_fraction: float | None = None,
        step_fraction: float | None = None,
        criterion: str | None = None,
        **kwargs,
    ) -> None:
        """Re-aim the self-tuning knob in place (controller hook).

        ``candidate_fraction`` re-seats the candidate-set size at the new
        fraction (the overflow feedback loop keeps adapting from there);
        ``step_fraction``/``criterion`` swap the adaptation granularity
        and the spatial ranking.  Resident bookkeeping (main/overflow
        membership) is untouched — retuning never drops a page.
        """
        super().retune(**kwargs)
        if criterion is not None:
            if criterion not in SPATIAL_CRITERIA:
                raise ValueError(f"unknown spatial criterion {criterion!r}")
            self.criterion = criterion
        if step_fraction is not None:
            if not 0.0 < step_fraction <= 1.0:
                raise ValueError("step fraction must be in (0, 1]")
            self.step_fraction = step_fraction
            if self.main_capacity:
                self._step = max(1, round(step_fraction * self.main_capacity))
        if candidate_fraction is not None:
            if not 0.0 < candidate_fraction <= 1.0:
                raise ValueError("candidate fraction must be in (0, 1]")
            self.candidate_fraction = candidate_fraction
            if self.main_capacity:
                self._candidate_size = self._initial_candidate_size()

    # ------------------------------------------------------------------
    # The self-tuning step
    # ------------------------------------------------------------------

    def _adapt(self, promoted: Frame) -> None:
        """Compare the two criteria on the overflow pages (Section 4.2)."""
        # ``frames.get`` is the raw (non-flushing) lookup: this loop reads
        # only frame fields, which are always current — the deferred state
        # of the recency chain is irrelevant here.
        lookup = self.buffer.frames.get
        criterion = self.criterion
        crit_p = spatial_criterion(promoted, criterion)
        recency_p = promoted.last_access
        promoted_id = promoted.page.page_id
        better_spatial = 0
        better_lru = 0
        for page_id in self._overflow:
            if page_id == promoted_id:
                continue
            other = lookup(page_id)
            # Inline cache probe: every overflow page is judged on each
            # promotion, so the criterion call must not dominate the hit.
            value = other.crit_cache.get(criterion)
            if value is None:
                value = spatial_criterion(other, criterion)
            if value > crit_p:
                better_spatial += 1
            if other.last_access > recency_p:
                better_lru += 1
        before = self._candidate_size
        if better_spatial > better_lru:
            # The spatial ranking kept the wrong pages: lean towards LRU.
            self._candidate_size = max(1, self._candidate_size - self._step)
        elif better_spatial < better_lru:
            # The LRU ranking kept the wrong pages: lean towards spatial.
            self._candidate_size = min(
                self.main_capacity, self._candidate_size + self._step
            )
        if self.record_trace:
            self.trace.append((self.buffer.clock, self._candidate_size))
        observer = self.observer
        if observer is not None:
            observer.emit(
                BufferEvent(
                    kind="adapt",
                    clock=self.buffer.clock,
                    page_id=promoted.page_id,
                    size=self._candidate_size,
                    delta=self._candidate_size - before,
                )
            )

    # ------------------------------------------------------------------
    # Victim selection
    # ------------------------------------------------------------------

    def _main_victim(self) -> Frame | None:
        """The SLRU victim of the main part, or ``None`` if all pinned.

        On the slot core the ``candidate_size`` least-recently-used main
        pages are the first unpinned main frames off the recency chain's
        LRU head — the chain is ordered by last access, so the walk gives
        the same candidate prefix (in the same order) as sorting the main
        part by recency and truncating, without the O(n log n) sort.
        """
        criterion = self.criterion
        main = self._main
        count = self._candidate_size
        frame = self.buffer.frames.head
        victim: Frame | None = None
        best = 0.0
        while frame is not None and count > 0:
            if frame in main and frame.pin_count == 0:
                count -= 1
                value = frame.crit_cache.get(criterion)
                if value is None:
                    value = spatial_criterion(frame, criterion)
                if victim is None or value < best:
                    victim = frame
                    best = value
            frame = frame.lru_next
        return victim

    def _demote_main_victim(self) -> None:
        """Move the SLRU victim of the main part into the overflow buffer."""
        victim = self._main_victim()
        if victim is None:
            # Every main page is pinned; let the main part exceed its
            # nominal share rather than evicting a pinned page.
            return
        self._main.discard(victim)
        self._overflow[victim.page.page_id] = None

    def select_victim(self) -> PageId:
        """The FIFO head of the overflow buffer leaves memory.

        With an empty overflow buffer (``overflow_fraction == 0`` or a
        buffer too small to have one) the policy degenerates to SLRU on the
        main part.
        """
        lookup = self.buffer.frames.get
        for page_id in self._overflow:
            if lookup(page_id).pin_count == 0:
                return page_id
        victim = self._main_victim()
        if victim is None:
            raise BufferFullError("all resident pages are pinned")
        return victim.page_id

    # ------------------------------------------------------------------
    # Introspection (reports, tests, Fig. 14)
    # ------------------------------------------------------------------

    @property
    def main_size(self) -> int:
        return len(self._main)

    @property
    def overflow_size(self) -> int:
        return len(self._overflow)

    def overflow_ids(self) -> list[PageId]:
        """Overflow page ids in FIFO order (oldest first)."""
        return list(self._overflow)
