"""The replacement-policy interface.

A policy sees four events — a page was loaded, a resident page was hit, a
resident page's content changed, a frame left the buffer — and answers one
question: which resident, unpinned page should be dropped to make room
(:meth:`ReplacementPolicy.select_victim`).

Policies read frame metadata (timestamps, page type/level, entry MBRs)
through the frames the manager exposes; they never touch the disk.  A policy
instance belongs to exactly one buffer manager.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.buffer.frames import Frame
from repro.storage.page import PageId

if TYPE_CHECKING:
    from repro.buffer.manager import BufferManager
    from repro.obs.events import EventSink


class ReplacementPolicy(abc.ABC):
    """Base class for all page-replacement strategies."""

    #: Short display name used in experiment reports ("LRU", "A", "ASB", ...).
    name: str = "base"

    def __init__(self) -> None:
        self._buffer: "BufferManager | None" = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(self, buffer: "BufferManager") -> None:
        """Bind the policy to its buffer manager (called once)."""
        if self._buffer is not None and self._buffer is not buffer:
            raise RuntimeError("policy is already attached to another buffer")
        self._buffer = buffer

    @property
    def buffer(self) -> "BufferManager":
        if self._buffer is None:
            raise RuntimeError("policy is not attached to a buffer manager")
        return self._buffer

    @property
    def observer(self) -> "EventSink | None":
        """The buffer's event sink, if any (see :mod:`repro.obs`).

        Policies with decisions of their own (ASB's promotion and
        adaptation) emit through this; ``None`` when tracing is off or the
        policy is unattached, so emission sites cost one check.
        """
        buffer = self._buffer
        return None if buffer is None else buffer.observer

    # ------------------------------------------------------------------
    # Event hooks — default implementations do nothing
    # ------------------------------------------------------------------

    def on_load(self, frame: Frame) -> None:
        """A page was read from disk into ``frame``."""

    def on_hit(self, frame: Frame, correlated: bool) -> None:
        """A resident page was requested again.

        ``correlated`` is true when this access belongs to the same query as
        the previous access to the page (the paper's correlation notion,
        Section 2.2).  Only LRU-K distinguishes the two cases.
        """

    def on_update(self, frame: Frame) -> None:
        """``frame``'s page content changed (``mark_dirty``).

        The frame's cached spatial criteria were just dropped; a policy
        that keeps criterion values of its own (ASB's index) re-keys the
        frame here.
        """

    def on_evict(self, frame: Frame) -> None:
        """``frame`` left the buffer (eviction or clear)."""

    def reset(self) -> None:
        """Drop all internal state (buffer was cleared)."""

    # ------------------------------------------------------------------
    # Self-tuning hooks (see :mod:`repro.tuning`)
    # ------------------------------------------------------------------

    def retune(self, **kwargs) -> None:
        """Change tunable parameters of a *live* instance in place.

        The accepted keywords are the registry's ``retunable`` parameters
        (see :func:`repro.buffer.policies.policy_param_space`); resident
        bookkeeping is preserved, so retuning never costs a page.  The
        base implementation accepts no keywords — policies with knobs
        override it.
        """
        if kwargs:
            raise TypeError(
                f"policy {self.name!r} has no retunable parameters; "
                f"got {sorted(kwargs)}"
            )

    def seed_resident(self, frames: list[Frame]) -> None:
        """Rebuild internal bookkeeping for already-resident frames.

        Called once, directly after :meth:`attach`, when this policy takes
        over a running buffer (a live policy hand-off — see
        :meth:`repro.buffer.manager.BufferManager.switch_policy`).  The
        frames arrive oldest-access first; the default replays them
        through :meth:`on_load`, which reconstructs each policy's
        structures as if the pages had been loaded in recency order.
        Timestamps live on the frames themselves, so recency-based
        policies inherit the true access history for free.
        """
        for frame in sorted(frames, key=lambda frame: frame.last_access):
            self.on_load(frame)

    # ------------------------------------------------------------------
    # The decision
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def select_victim(self) -> PageId:
        """Return the resident, unpinned page to drop.

        Raises :class:`~repro.buffer.manager.BufferFullError` when no frame
        is evictable.
        """

    def flush_priority(self, frame: Frame) -> float:
        """Order dirty frames for background write-back (lower = sooner).

        The background flusher (:mod:`repro.wal.manager`) cleans cold
        dirty frames ahead of their eviction so the eviction itself finds
        them clean.  "Cold" is the policy's notion: by default the
        least-recently-used dirty frames flush first, which matches every
        recency-based victim order; policies with a different eviction
        order (MRU, FIFO) override this so the flusher keeps following
        it.  Reading frame metadata only — implementations must not
        mutate policy state, or background flushing would perturb the
        replacement decisions it is meant to serve.
        """
        return float(frame.last_access)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def _evictable(self) -> list[Frame]:
        from repro.buffer.manager import BufferFullError

        frames = self.buffer.evictable_frames()
        if not frames:
            raise BufferFullError("all resident pages are pinned")
        return frames

    @staticmethod
    def lru_victim(frames: list[Frame]) -> Frame:
        """The least-recently-used frame of a non-empty list."""
        return min(frames, key=lambda frame: frame.last_access)
