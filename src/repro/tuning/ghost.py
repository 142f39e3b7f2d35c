"""Ghost caches: metadata-only shadow buffers replaying the live stream.

A ghost cache answers the counterfactual question the self-tuning
controller needs: *"what would my hit-rate be if the buffer ran
configuration X instead?"* — without a second buffer pool, without disk
I/O, and without perturbing the system under observation.

A :class:`GhostCache` holds real :class:`~repro.buffer.frames.Frame`
objects around *stub* pages: identity, type and tree level are copied
from the live page, the spatial criteria are captured as pre-computed
numbers in the frame's criterion cache, and the entry list stays empty.
Every registered replacement policy therefore runs **unmodified** on a
ghost — recency and history live on the frames, type/level on the stub,
and :func:`~repro.buffer.policies.spatial.spatial_criterion` is served
from the seeded cache before it would ever look at page content.  Memory
per ghost frame is O(1): one frame, one entry-less page, one small dict.

The access loop replicates :meth:`repro.buffer.manager.BufferManager.fetch`
decision-for-decision (clock tick, correlation check, the policy's
``on_hit`` *before* the timestamp renewal, evict-before-admit), so a
ghost fed a live reference stream produces **bit-identical** hit/miss
decisions to a real buffer running the same policy and capacity on the
same stream — the property the tuning tests pin down with hypothesis.

The one documented divergence: criteria are captured when a page is
admitted to the ghost, so if the live page is modified afterwards
(``mark_dirty`` invalidates the live cache) the ghost keeps judging the
pre-update footprint until the page re-enters the ghost.  Update-heavy
streams make ghosts *approximate*; the controller's hysteresis absorbs
that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

from repro.buffer.frames import Frame, FrameTable
from repro.buffer.policies.spatial import SPATIAL_CRITERIA, spatial_criterion
from repro.buffer.stats import BufferStats
from repro.storage.page import Page, PageId, PageType

if TYPE_CHECKING:
    from repro.buffer.policies.base import ReplacementPolicy


@dataclass(slots=True, frozen=True)
class PageMeta:
    """The policy-visible metadata of one page, frozen at capture time."""

    page_id: PageId
    page_type: PageType
    level: int
    criteria: Mapping[str, float] = field(default_factory=dict)

    @classmethod
    def from_frame(cls, frame: Frame, criteria: tuple[str, ...]) -> "PageMeta":
        """Capture a live frame's metadata (criteria via the frame cache).

        Computing through :func:`spatial_criterion` memoises the value on
        the *live* frame too, so a live spatial policy and N ghosts share
        one computation per page load.
        """
        page = frame.page
        return cls(
            page_id=page.page_id,
            page_type=page.page_type,
            level=page.level,
            criteria={name: spatial_criterion(frame, name) for name in criteria},
        )

    @classmethod
    def from_page(cls, page: Page, criteria: tuple[str, ...]) -> "PageMeta":
        """Capture metadata straight from a page (tests, trace replays)."""
        return cls(
            page_id=page.page_id,
            page_type=page.page_type,
            level=page.level,
            criteria={
                name: SPATIAL_CRITERIA[name](page) for name in criteria
            },
        )

    def make_frame(self, clock: int, query: int) -> Frame:
        """A fresh ghost frame: stub page, criterion cache pre-seeded."""
        stub = Page(page_id=self.page_id, page_type=self.page_type,
                    level=self.level)
        frame = Frame(
            page=stub, loaded_at=clock, last_access=clock, last_query=query
        )
        frame.crit_cache.update(self.criteria)
        return frame


#: Lazily builds the PageMeta for the access being shadowed; called only
#: when at least one ghost actually misses.
MetaFactory = Callable[[], PageMeta]


class GhostCache:
    """A metadata-only shadow buffer running one candidate configuration.

    Duck-types the slice of the :class:`~repro.buffer.manager.BufferManager`
    surface that policies consume (``frames``, ``capacity``, ``clock``,
    ``current_query``, ``observer``, ``pinned_count``,
    ``evictable_frames``), so any registered policy attaches and runs
    unchanged.  Ghost frames are never pinned and never dirty; the ghost
    never touches a disk.
    """

    pinned_count = 0

    def __init__(
        self, policy: "ReplacementPolicy", capacity: int, name: str | None = None
    ) -> None:
        if capacity < 1:
            raise ValueError("ghost capacity must be at least 1")
        self.capacity = capacity
        self.policy = policy
        self.name = name if name is not None else policy.name
        #: The same slot-based frame table the live buffer uses, so the
        #: recency-chain victim walks of the list-based policies run
        #: unmodified (and bit-identically) on ghost frames.
        self.frames: FrameTable = FrameTable()
        self.stats = BufferStats()
        # Ghost frames never pin, so the base no-op ``on_hit`` can be
        # elided exactly as the live fast path does.
        from repro.buffer.policies.base import ReplacementPolicy

        if type(policy).on_hit is ReplacementPolicy.on_hit:
            self._hit_hook = None
        else:
            self._hit_hook = policy.on_hit
        #: Policies check ``buffer.observer`` before emitting; ghosts stay
        #: silent so shadow decisions never pollute the live event trace.
        self.observer = None
        self._clock = 0
        self._query_id = 0
        policy.attach(self)

    # -- the buffer surface policies read ------------------------------

    @property
    def clock(self) -> int:
        return self._clock

    @property
    def current_query(self) -> int:
        return self._query_id

    def evictable_frames(self) -> list[Frame]:
        return list(self.frames.values())

    def contains(self, page_id: PageId) -> bool:
        return page_id in self.frames

    def __len__(self) -> int:
        return len(self.frames)

    # -- the shadow access path ----------------------------------------

    def access(
        self, page_id: PageId, query: int, meta: "PageMeta | MetaFactory"
    ) -> bool:
        """Shadow one reference; returns True on a ghost hit.

        Mirrors ``BufferManager.fetch`` exactly: advance the clock, count
        the request, serve a resident page through ``on_hit`` (with the
        correlation check against the frame's pre-renewal query id), or
        count a miss, evict if full, and admit a frame built from
        ``meta`` (a :class:`PageMeta` or a zero-argument factory, invoked
        only on this miss path).
        """
        self._clock = clock = self._clock + 1
        stats = self.stats
        stats.requests += 1
        self._query_id = query
        frames = self.frames
        frame = frames.get(page_id)
        if frame is not None:
            stats.hits += 1
            hook = self._hit_hook
            if hook is not None:
                hook(frame, frame.last_query == query)
            frame.last_access = clock
            frame.last_query = query
            frame.access_count += 1
            frames.move_to_tail(frame)
            return True
        stats.misses += 1
        if len(frames) >= self.capacity:
            victim_id = self.policy.select_victim()
            victim = frames.remove(victim_id)
            if victim is None:
                raise RuntimeError(
                    f"ghost policy selected page {victim_id}, "
                    "which is not ghost-resident"
                )
            stats.evictions += 1
            self.policy.on_evict(victim)
        if callable(meta):
            meta = meta()
        frame = frames.adopt(meta.make_frame(clock, query))
        self.policy.on_load(frame)
        return False

    def replay(
        self, requests: list[tuple[PageId, int]], metas: Mapping[PageId, PageMeta]
    ) -> BufferStats:
        """Feed a whole ``(page_id, query)`` stream (tests, offline what-ifs)."""
        for page_id, query in requests:
            self.access(page_id, query, metas[page_id])
        return self.stats

    def reset(self) -> None:
        """Forget everything (live buffer was cleared)."""
        self.frames.clear()
        self.stats.reset()
        self._clock = 0
        self._query_id = 0
        self.policy.reset()
