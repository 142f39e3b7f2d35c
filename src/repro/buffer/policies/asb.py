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
fixed while a page sits there.  The main part is a recency-ordered list of
blocks of about sqrt(main_capacity) frames, each remembering its
first-minimum criterion frame, so the candidate set's minimum is the best
of some whole blocks plus one partial block.  Hits on main pages do not
touch the blocks; whichever call next changes the main part first moves
the frames touched since the last such call to the MRU end.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import OrderedDict
from itertools import chain
from math import isqrt
from typing import Iterable

from repro.buffer.frames import Frame
from repro.buffer.manager import BufferFullError, BufferManager
from repro.buffer.policies.base import ReplacementPolicy
from repro.buffer.policies.spatial import SPATIAL_CRITERIA, spatial_criterion
from repro.obs.events import BufferEvent
from repro.storage.page import PageId


class _Block:
    """A run of main-part frames, adjacent and ascending in recency."""

    __slots__ = ("frames", "min_frame", "min_value")

    def __init__(self) -> None:
        self.frames: list[Frame] = []
        #: First frame of the run at its smallest criterion, or ``None``
        #: when unknown (a frame joined, the minimum left or was updated).
        self.min_frame: Frame | None = None
        self.min_value = 0.0


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
        # *frame* (identity-hashed) to its block; ``_blocks`` holds the
        # blocks least-recently-used first, in the order the recency chain
        # had at clock ``_synced``.  The overflow dict is page-id keyed and
        # ordered oldest-first, i.e. FIFO order; its values are the page's
        # (last access, criterion) as filed in the two sorted lists.  A
        # frame object can never linger: ``on_evict`` always runs before
        # the manager recycles a frame.
        self._block_of: dict[Frame, _Block] = {}
        self._blocks: list[_Block] = []
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
        """A new page enters the main part, demoting a main page if full."""
        self._enter_main(frame)

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
        self._enter_main(frame)
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
        self._blocks.clear()
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
        block_of = self._block_of
        touched = []
        frame = self.buffer.frames.tail
        while frame is not None and frame.last_access > synced:
            if frame in block_of:
                touched.append(frame)
            frame = frame.lru_prev
        self._synced = self.buffer.clock
        for frame in reversed(touched):
            self._leave_main(frame)
            self._append(frame)

    def _append(self, frame: Frame) -> None:
        blocks = self._blocks
        if not blocks or len(blocks[-1].frames) >= self._block_limit:
            blocks.append(_Block())
        block = blocks[-1]
        block.frames.append(frame)
        # Unknown rather than updated: the newcomer's criterion is read
        # when a victim walk reaches it, as the full walk would.
        block.min_frame = None
        self._block_of[frame] = block

    def _leave_main(self, frame: Frame) -> None:
        block = self._block_of.pop(frame)
        frames = block.frames
        frames.remove(frame)
        if block.min_frame is frame:
            block.min_frame = None
        if 2 * len(frames) > self._block_limit:
            return
        # A block at half size or less folds into a neighbour with room,
        # which keeps the block count O(main / limit).
        blocks = self._blocks
        index = blocks.index(block)
        if not frames:
            del blocks[index]
            return
        for left in (index, index - 1):
            if 0 <= left < len(blocks) - 1:
                head, rest = blocks[left], blocks[left + 1]
                if len(head.frames) + len(rest.frames) <= self._block_limit:
                    self._merge(head, rest)
                    del blocks[left + 1]
                    return

    def _merge(self, head: _Block, rest: _Block) -> None:
        """Fold ``rest`` into ``head``, the block just before it."""
        if head.min_frame is None or rest.min_frame is None:
            head.min_frame = None
        elif rest.min_value < head.min_value:
            head.min_frame = rest.min_frame
            head.min_value = rest.min_value
        head.frames.extend(rest.frames)
        block_of = self._block_of
        for frame in rest.frames:
            block_of[frame] = head

    def _enter_main(self, frame: Frame) -> None:
        """``frame`` joins the main part at the MRU end; a full one demotes."""
        self._sync()
        if len(self._block_of) >= self.main_capacity:
            self._demote_main_victim()
        self._append(frame)

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
        for block in self._blocks:
            block.min_frame = None
        criterion = self.criterion
        lookup = self.buffer.frames.get
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
        first ``count`` unpinned of ``frames`` (blocks, in recency order)."""
        criterion = self.criterion
        victim: Frame | None = None
        best = 0.0
        for frame in frames:
            if count <= 0:
                break
            if frame.pin_count == 0:
                count -= 1
                value = frame.crit_cache.get(criterion)
                if value is None:
                    value = spatial_criterion(frame, criterion)
                if victim is None or value < best:
                    victim = frame
                    best = value
        return victim, best

    def _main_victim(self) -> Frame | None:
        """The SLRU victim of the main part, or ``None`` if all pinned.

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
        if self.buffer.pinned_count:
            frames = chain.from_iterable(block.frames for block in self._blocks)
            return self._scan(frames, count)[0]
        victim: Frame | None = None
        best = 0.0
        for block in self._blocks:
            frames = block.frames
            if len(frames) > count:
                frame, value = self._scan(frames, count)
            else:
                if block.min_frame is None:
                    block.min_frame, block.min_value = self._scan(frames, count)
                frame, value = block.min_frame, block.min_value
            if victim is None or value < best:
                victim = frame
                best = value
            count -= len(frames)
            if count <= 0:
                break
        return victim

    def _demote_main_victim(self) -> None:
        """Move the SLRU victim of the main part into the overflow buffer."""
        victim = self._main_victim()
        if victim is None:
            # Every main page is pinned; let the main part exceed its
            # nominal share rather than evicting a pinned page.
            return
        self._leave_main(victim)
        stamp = victim.last_access
        value = spatial_criterion(victim, self.criterion)
        self._overflow[victim.page.page_id] = (stamp, value)
        insort(self._overflow_stamps, stamp)
        insort(self._overflow_crits, value)

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
        self._sync()
        victim = self._main_victim()
        if victim is None:
            raise BufferFullError("all resident pages are pinned")
        return victim.page_id

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
