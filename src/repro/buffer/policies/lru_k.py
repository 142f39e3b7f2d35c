"""The LRU-K page-replacement algorithm (O'Neil, O'Neil, Weikum 1993).

Section 2.2 of the paper.  For every page ``p`` the algorithm records
``HIST(p)``, the timestamps of the K most recent *uncorrelated* references;
two accesses are correlated when they belong to the same query.  The victim
is the page with the oldest K-th-last reference, considering only pages
whose most recent reference is not correlated with the current access.

Two properties the paper stresses are reproduced faithfully:

* **Retained history.**  ``HIST`` survives eviction, so a page that returns
  to the buffer resumes its history.  This is LRU-K's memory-cost drawback:
  the history table grows with the number of distinct pages ever buffered.
  :attr:`LRUK.history_size` exposes the table size so the memory argument of
  Section 4.3 can be measured.  Pass ``retain_history=False`` to study the
  cheaper variant that forgets evicted pages.
* **Correlated accesses collapse.**  A correlated re-reference only renews
  ``HIST(p, 1)`` instead of pushing a new timestamp.
"""

from __future__ import annotations

from repro.buffer.frames import Frame
from repro.buffer.policies.base import ReplacementPolicy
from repro.storage.page import PageId


class LRUK(ReplacementPolicy):
    """Evict the page with the oldest K-th most recent uncorrelated reference."""

    def __init__(self, k: int = 2, retain_history: bool = True) -> None:
        super().__init__()
        if k < 1:
            raise ValueError("K must be at least 1")
        self.k = k
        self.retain_history = retain_history
        self.name = f"LRU-{k}"
        # HIST(p): most recent first, at most K entries.
        self._hist: dict[PageId, list[int]] = {}
        # Query id of the most recent reference, kept alongside HIST so that
        # correlation is detected even across a drop-and-reload.
        self._last_query: dict[PageId, int] = {}

    # ------------------------------------------------------------------
    # History maintenance
    # ------------------------------------------------------------------

    def _record_reference(self, page_id: PageId, correlated: bool) -> None:
        # ``_clock``/``_query_id`` are read directly: this runs on every
        # buffer request, and both the live manager and the ghost caches
        # expose them under the same names.
        buffer = self._buffer
        hist = self._hist.setdefault(page_id, [])
        if correlated and hist:
            hist[0] = buffer._clock
        else:
            hist.insert(0, buffer._clock)
            del hist[self.k :]
        self._last_query[page_id] = buffer._query_id

    def on_load(self, frame: Frame) -> None:
        page_id = frame.page.page_id
        previous_query = self._last_query.get(page_id)
        correlated = previous_query == self.buffer._query_id
        self._record_reference(page_id, correlated)

    def on_hit(self, frame: Frame, correlated: bool) -> None:
        self._record_reference(frame.page.page_id, correlated)

    def on_evict(self, frame: Frame) -> None:
        if not self.retain_history:
            self._hist.pop(frame.page_id, None)
            self._last_query.pop(frame.page_id, None)

    def reset(self) -> None:
        self._hist.clear()
        self._last_query.clear()

    def retune(self, *, k: int | None = None, **kwargs) -> None:
        """Change K in place; histories are trimmed to the new depth.

        Growing K keeps the recorded prefixes (pages rank as "fewer than K
        references" until they accumulate more history); shrinking K drops
        the surplus oldest timestamps.  Resident pages and their histories
        survive — retuning never costs a page.
        """
        super().retune(**kwargs)
        if k is None:
            return
        if k < 1:
            raise ValueError("K must be at least 1")
        self.k = k
        self.name = f"LRU-{k}"
        for hist in self._hist.values():
            del hist[k:]

    # ------------------------------------------------------------------
    # Victim selection
    # ------------------------------------------------------------------

    def select_victim(self) -> PageId:
        # The paper restricts the victim search to pages whose most recent
        # reference is not correlated with the current access; if every
        # resident page was touched by the running query, something must
        # still be evicted, so fall back to the full set.
        current_query = self.buffer.current_query
        # One walk up the recency chain (ascending last_access): with a
        # strict ``<`` the first frame at the minimal K-distance wins,
        # which is exactly ``min`` by (K-distance, last_access).  The
        # K-distance is HIST(p, K); pages with fewer than K references
        # rank oldest.
        hist = self._hist
        k = self.k
        best: Frame | None = None
        best_d = 0
        best_unc: Frame | None = None
        best_unc_d = 0
        frame = self.buffer.frames.head
        while frame is not None:
            if frame.pin_count == 0:
                page_hist = hist.get(frame.page.page_id)
                if page_hist is None or len(page_hist) < k:
                    distance = -1
                else:
                    distance = page_hist[k - 1]
                if best is None or distance < best_d:
                    best = frame
                    best_d = distance
                if frame.last_query != current_query and (
                    best_unc is None or distance < best_unc_d
                ):
                    best_unc = frame
                    best_unc_d = distance
            frame = frame.lru_next
        victim = best_unc if best_unc is not None else best
        if victim is None:
            from repro.buffer.manager import BufferFullError

            raise BufferFullError("all resident pages are pinned")
        return victim.page.page_id

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def history_size(self) -> int:
        """Number of pages with retained history (the memory-cost metric)."""
        return len(self._hist)

    def history_of(self, page_id: PageId) -> tuple[int, ...]:
        """HIST(p) as an immutable tuple, most recent first."""
        return tuple(self._hist.get(page_id, ()))
