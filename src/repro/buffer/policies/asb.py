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

Neither decision walks the buffer (docs/architecture.md "Hot path" has the
invariants).  The overflow comparison is two ``bisect`` probes into sorted
lists of the overflow pages' recency stamps and criterion values — both
fixed while a page sits there.  The main part is a recency-ordered linked
list of blocks of about sqrt(main_capacity) frames, each remembering its
first-minimum criterion frame, so the candidate set's minimum is the best
of some whole blocks plus one partial block.  Hits on main pages do not
touch the blocks; whichever call next changes the main part first moves
the frames touched since the last such call to the MRU end.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import OrderedDict
from itertools import islice
from math import isqrt
from typing import Iterable, Iterator

from repro.buffer.frames import Frame
from repro.buffer.manager import BufferFullError, BufferManager
from repro.buffer.policies.base import ReplacementPolicy
from repro.buffer.policies.spatial import SPATIAL_CRITERIA, spatial_criterion
from repro.obs.events import BufferEvent
from repro.storage.page import PageId


class _Block:
    """A run of main-part frames, adjacent and ascending in recency.

    The blocks form a ring through ASB's empty sentinel block, least
    recently used first, and a block keeps its frames as the keys of a
    dict: both drop a member in O(1) and keep the order of the rest.
    """

    __slots__ = ("frames", "min_frame", "min_value", "prev", "next")

    def __init__(self) -> None:
        self.frames: dict[Frame, None] = {}
        #: First frame of the run at its smallest criterion, or ``None``
        #: when unknown (a frame joined, the minimum left or was updated).
        self.min_frame: Frame | None = None
        self.min_value = 0.0
        self.prev = self.next = self


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
        # Membership of the two buffer parts.  The main part maps each
        # *frame* (identity-hashed) to its block; the blocks follow the
        # sentinel ``_ring``, least-recently-used first, in the order the
        # recency chain had at clock ``_synced``.  The overflow dict is
        # page-id keyed and ordered oldest-first, i.e. FIFO order; its
        # values are the page's (last access, criterion) as filed in the
        # two sorted lists.  A frame object can never linger: ``on_evict``
        # always runs before the manager recycles a frame.
        self._block_of: dict[Frame, _Block] = {}
        self._ring = _Block()
        self._block_limit = 2
        self._synced = 0
        self._overflow: OrderedDict[PageId, tuple[int, float]] = OrderedDict()
        self._overflow_stamps: list[int] = []
        self._overflow_crits: list[float] = []
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
        self._frames = buffer.frames  # for good; skips the property chain
        self.overflow_capacity = int(round(self.overflow_fraction * buffer.capacity))
        if self.overflow_capacity >= buffer.capacity:
            self.overflow_capacity = buffer.capacity - 1
        self.main_capacity = buffer.capacity - self.overflow_capacity
        self._step = max(1, round(self.step_fraction * self.main_capacity))
        self._candidate_size = self._initial_candidate_size()
        self._block_limit = max(2, isqrt(self.main_capacity))

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
        """A new page enters the main part at the MRU end, as a promoted
        one does; a full main part first demotes its SLRU victim into the
        overflow buffer."""
        self._sync()
        if len(self._block_of) >= self.main_capacity:
            victim, value = self._main_victim()
            # With every main page pinned the main part exceeds its nominal
            # share rather than evicting a pinned page.
            if victim is not None:
                self._leave_main(victim)
                stamp = victim.last_access
                self._overflow[victim.page.page_id] = (stamp, value)
                insort(self._overflow_stamps, stamp)
                insort(self._overflow_crits, value)
        self._append(frame)

    def on_hit(self, frame: Frame, correlated: bool) -> None:
        """Promote overflow hits back to the main part, adapting the knob.

        This hook runs *before* the manager renews the frame's access
        timestamp, so ``frame.last_access`` still reflects the page's
        recency while it sat in the overflow buffer — which is what the
        LRU-criterion comparison needs.
        """
        # ``frame.page.page_id`` dodges the property descriptor — this is
        # the only ASB work on the non-promoting hit path, so it must stay
        # one dict probe.
        page_id = frame.page.page_id
        if page_id not in self._overflow:
            return
        self._adapt(frame, *self._leave_overflow(page_id))
        self.on_load(frame)
        observer = self.observer
        if observer is not None:
            observer.emit(
                BufferEvent(
                    kind="promote",
                    clock=self.buffer.clock,
                    page_id=frame.page_id,
                )
            )

    def on_update(self, frame: Frame) -> None:
        """The page changed: drop what the index remembers of its criterion."""
        block = self._block_of.get(frame)
        if block is not None:
            block.min_frame = None
            return
        page_id = frame.page.page_id
        entry = self._overflow.get(page_id)
        if entry is not None:
            stamp, old = entry
            value = spatial_criterion(frame, self.criterion)
            crits = self._overflow_crits
            del crits[bisect_left(crits, old)]
            insort(crits, value)
            self._overflow[page_id] = (stamp, value)

    def on_evict(self, frame: Frame) -> None:
        if frame in self._block_of:
            self._leave_main(frame)
        elif frame.page.page_id in self._overflow:
            self._leave_overflow(frame.page.page_id)

    def reset(self) -> None:
        self._block_of.clear()
        self._ring.prev = self._ring.next = self._ring
        self._synced = 0
        self._overflow.clear()
        self._overflow_stamps.clear()
        self._overflow_crits.clear()
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
        membership) is untouched — retuning never drops a page; a new
        criterion re-keys the block minima and the overflow's sorted list.
        """
        super().retune(**kwargs)
        if criterion is not None:
            if criterion not in SPATIAL_CRITERIA:
                raise ValueError(f"unknown spatial criterion {criterion!r}")
            self.criterion = criterion
            self._rekey()
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

    def _adapt(self, promoted: Frame, stamp: int, value: float) -> None:
        """Compare the two criteria on the overflow pages (Section 4.2).

        ``stamp`` and ``value`` are the promoted page's last access and
        criterion as the overflow had them filed; the page itself is
        already unfiled.  An overflow page judges better when it is
        strictly larger, so the counts are what lies right of those keys
        in the two sorted lists.
        """
        stamps = self._overflow_stamps
        crits = self._overflow_crits
        better_lru = len(stamps) - bisect_right(stamps, stamp)
        better_spatial = len(crits) - bisect_right(crits, value)
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

    def _sync(self) -> None:
        """Bring the block order up to the recency chain's.

        Everything accessed since ``_synced`` sits at the chain's MRU end,
        most recent last; the main frames among them are the ones whose
        place in the blocks is out of date, and re-appending them oldest
        first restores chain order.  Hits never come here — the calls that
        change the main part do, so a hit's share is amortised O(1).
        """
        synced = self._synced
        oldest = None
        frame = self._frames.tail
        while frame is not None and frame.last_access > synced:
            oldest = frame
            frame = frame.lru_prev
        self._synced = self._buffer.clock
        # _leave_main and _append inlined: a promotion in a buffer that fits
        # moves about one frame per main hit since the last one.
        block_of = self._block_of
        ring = self._ring
        limit = self._block_limit
        half = limit // 2
        while oldest is not None:
            block = block_of.get(oldest)
            if block is not None:
                frames = block.frames
                del frames[oldest]
                if block.min_frame is oldest:
                    block.min_frame = None
                if len(frames) <= half:
                    self._shrunk(block)
                block = ring.prev
                if block is ring or len(block.frames) >= limit:
                    block = self._new_block()
                block.frames[oldest] = None
                block.min_frame = None
                block_of[oldest] = block
            oldest = oldest.lru_next

    def _blocks(self) -> Iterator[_Block]:
        """The blocks, least recently used first."""
        block = self._ring.next
        while block is not self._ring:
            yield block
            block = block.next

    def _new_block(self) -> _Block:
        """An empty block at the MRU end."""
        ring = self._ring
        block = _Block()
        block.prev, block.next = ring.prev, ring
        ring.prev.next = ring.prev = block
        return block

    def _append(self, frame: Frame) -> None:
        block = self._ring.prev
        if block is self._ring or len(block.frames) >= self._block_limit:
            block = self._new_block()
        block.frames[frame] = None
        # Unknown rather than updated: the newcomer's criterion is read
        # when a victim walk reaches it, as the full walk would.
        block.min_frame = None
        self._block_of[frame] = block

    def _leave_main(self, frame: Frame) -> None:
        block = self._block_of.pop(frame)
        frames = block.frames
        del frames[frame]
        if block.min_frame is frame:
            block.min_frame = None
        if 2 * len(frames) <= self._block_limit:
            self._shrunk(block)

    def _shrunk(self, block: _Block) -> None:
        """A block at half size or less folds into a neighbour with room,
        which keeps the block count O(main / limit)."""
        frames = block.frames
        if not frames:
            block.prev.next, block.next.prev = block.next, block.prev
            return
        ring = self._ring
        limit = self._block_limit - len(frames)
        if block.next is not ring and len(block.next.frames) <= limit:
            self._merge(block, block.next)
        elif block.prev is not ring and len(block.prev.frames) <= limit:
            self._merge(block.prev, block)

    def _merge(self, head: _Block, rest: _Block) -> None:
        """Fold ``rest`` into ``head``, the block just before it."""
        if head.min_frame is None or rest.min_frame is None:
            head.min_frame = None
        elif rest.min_value < head.min_value:
            head.min_frame = rest.min_frame
            head.min_value = rest.min_value
        head.frames.update(rest.frames)
        block_of = self._block_of
        for frame in rest.frames:
            block_of[frame] = head
        head.next, rest.next.prev = rest.next, head

    def _leave_overflow(self, page_id: PageId) -> tuple[int, float]:
        """Unfile an overflow page; returns its (last access, criterion)."""
        stamp, value = self._overflow.pop(page_id)
        stamps = self._overflow_stamps
        del stamps[bisect_left(stamps, stamp)]
        crits = self._overflow_crits
        del crits[bisect_left(crits, value)]
        return stamp, value

    def _rekey(self) -> None:
        """The criterion changed: every remembered value is void."""
        for block in self._blocks():
            block.min_frame = None
        criterion = self.criterion
        lookup = self._frames.get
        overflow = self._overflow
        for page_id, (stamp, _) in overflow.items():
            overflow[page_id] = (
                stamp,
                spatial_criterion(lookup(page_id), criterion),
            )
        self._overflow_crits = sorted(value for _, value in overflow.values())

    def _scan(
        self, frames: Iterable[Frame], count: int
    ) -> tuple[Frame | None, float]:
        """First frame at the smallest criterion, and that value, among the
        first ``count`` of ``frames`` (unpinned, in recency order)."""
        criterion = self.criterion
        victim: Frame | None = None
        best = 0.0
        for frame in islice(frames, count):
            value = frame.crit_cache.get(criterion)
            if value is None:
                value = spatial_criterion(frame, criterion)
            if victim is None or value < best:
                victim = frame
                best = value
        return victim, best

    def _main_victim(self) -> tuple[Frame | None, float]:
        """The SLRU victim of the main part and its criterion; ``None``
        (and 0.0) if all are pinned.

        The ``candidate_size`` least-recently-used unpinned main pages are
        the candidates, the first one at the smallest criterion the victim
        — what :func:`~repro.buffer.policies.spatial.first_min_candidate`
        finds on a recency chain of main pages only.  The blocks hold that
        sequence once :meth:`_sync` has run (callers see to it), so the
        candidates are some whole blocks, whose remembered minima stand in
        for their frames, and the head of one more.  The strict ``<``
        between blocks keeps the earliest minimum, as it does within one.
        A remembered minimum presumes every frame of its block is a
        candidate; while anything is pinned that may not hold, and the
        scan goes frame by frame over the same blocks instead.
        """
        count = self._candidate_size
        if self._buffer.pinned_count:
            unpinned = (
                frame
                for block in self._blocks()
                for frame in block.frames
                if frame.pin_count == 0
            )
            return self._scan(unpinned, count)
        victim: Frame | None = None
        best = 0.0
        ring = self._ring
        block = ring.next
        while block is not ring:
            frames = block.frames
            size = len(frames)
            if size > count:
                frame, value = self._scan(frames, count)
            elif block.min_frame is None:
                frame, value = block.min_frame, block.min_value = self._scan(
                    frames, count
                )
            else:
                frame, value = block.min_frame, block.min_value
            if victim is None or value < best:
                victim = frame
                best = value
            count -= size
            if count <= 0:
                break
            block = block.next
        return victim, best

    def select_victim(self) -> PageId:
        """The FIFO head of the overflow buffer leaves memory.

        With an empty overflow buffer (``overflow_fraction == 0`` or a
        buffer too small to have one) the policy degenerates to SLRU on the
        main part.
        """
        lookup = self._frames.get
        for page_id in self._overflow:
            if lookup(page_id).pin_count == 0:
                return page_id
        self._sync()
        victim = self._main_victim()[0]
        if victim is None:
            raise BufferFullError("all resident pages are pinned")
        return victim.page.page_id

    # ------------------------------------------------------------------
    # Introspection (reports, tests, Fig. 14)
    # ------------------------------------------------------------------

    @property
    def main_size(self) -> int:
        return len(self._block_of)

    @property
    def overflow_size(self) -> int:
        return len(self._overflow)

    def overflow_ids(self) -> list[PageId]:
        """Overflow page ids in FIFO order (oldest first)."""
        return list(self._overflow)
