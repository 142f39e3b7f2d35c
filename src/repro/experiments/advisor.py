"""The buffer advisor: data-driven policy and size recommendations.

The paper's closing argument is that buffers should tune themselves.  The
advisor applies that philosophy to *configuration*: given an index and a
workload sample, it

1. records the sample's access trace once,
2. computes the exact LRU miss-ratio curve (Mattson) to find the smallest
   buffer achieving most of the achievable hit ratio (the curve's knee),
3. replays the trace against the candidate policies at that size,
4. measures the remaining headroom against Belady's OPT,

and returns a structured :class:`Advice` with a rendered report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.buffer.policies.base import ReplacementPolicy
from repro.buffer.policies.lru import LRU
from repro.experiments.analysis import lru_miss_curve, opt_misses
from repro.experiments.harness import FOUR_POLICIES
from repro.experiments.trace import AccessTrace, record_trace, replay_trace
from repro.sam.base import SpatialIndex
from repro.workloads.queries import Query

#: Default candidate policies considered by the advisor.
DEFAULT_CANDIDATES: dict[str, Callable[[], ReplacementPolicy]] = FOUR_POLICIES


@dataclass(slots=True)
class Advice:
    """The advisor's recommendation and its evidence."""

    recommended_policy: str
    recommended_capacity: int
    trace_length: int
    distinct_pages: int
    #: policy name -> misses at the recommended capacity.
    policy_misses: dict[str, int] = field(default_factory=dict)
    opt_misses: int = 0
    #: LRU miss counts at each probed capacity (1-indexed by position).
    miss_curve: list[int] = field(default_factory=list)

    @property
    def headroom(self) -> float:
        """Relative misses the recommended policy leaves above OPT."""
        best = self.policy_misses[self.recommended_policy]
        if self.opt_misses == 0:
            return 0.0
        return best / self.opt_misses - 1.0

    def to_text(self) -> str:
        lines = [
            f"workload: {self.trace_length} page references over "
            f"{self.distinct_pages} distinct pages",
            f"recommended buffer: {self.recommended_capacity} pages "
            "(knee of the LRU miss-ratio curve)",
            f"recommended policy: {self.recommended_policy}",
            "",
            f"{'policy':<8} {'misses':>8} {'above OPT':>10}",
            f"{'OPT':<8} {self.opt_misses:>8} {'--':>10}",
        ]
        for name, misses in sorted(
            self.policy_misses.items(), key=lambda item: item[1]
        ):
            above = misses / self.opt_misses - 1.0 if self.opt_misses else 0.0
            lines.append(f"{name:<8} {misses:>8} {above:>+9.1%}")
        return "\n".join(lines)


def knee_capacity(
    curve: list[int], total_references: int, coverage: float = 0.9
) -> int:
    """The smallest capacity achieving ``coverage`` of the achievable hits.

    ``curve[c-1]`` is the LRU miss count at capacity ``c``.  The achievable
    hits at the largest probed capacity define 100 %; the knee is the first
    capacity reaching the coverage share of them.
    """
    if not curve:
        raise ValueError("empty miss curve")
    if not 0.0 < coverage <= 1.0:
        raise ValueError("coverage must be in (0, 1]")
    best_hits = total_references - curve[-1]
    if best_hits <= 0:
        return 1
    target = coverage * best_hits
    for capacity, misses in enumerate(curve, start=1):
        if total_references - misses >= target:
            return capacity
    return len(curve)


def advise(
    index: SpatialIndex,
    sample: Iterable[Query],
    candidates: Mapping[str, Callable[[], ReplacementPolicy]] | None = None,
    max_capacity: int | None = None,
    coverage: float = 0.9,
) -> Advice:
    """Recommend a buffer size and replacement policy for a workload.

    ``sample`` should be representative of the production workload (a few
    hundred queries).  ``max_capacity`` bounds the size search (default:
    the number of distinct pages the sample touches — beyond that only
    compulsory misses remain).
    """
    candidates = dict(candidates or DEFAULT_CANDIDATES)
    if "LRU" not in candidates:
        candidates["LRU"] = LRU
    trace = record_trace(index, sample)
    return advise_from_trace(
        trace, candidates=candidates, max_capacity=max_capacity, coverage=coverage
    )


def advise_from_trace(
    trace: AccessTrace,
    candidates: Mapping[str, Callable[[], ReplacementPolicy]] | None = None,
    max_capacity: int | None = None,
    coverage: float = 0.9,
) -> Advice:
    """Like :func:`advise`, but from a previously recorded trace."""
    candidates = dict(candidates or DEFAULT_CANDIDATES)
    if not len(trace):
        raise ValueError("cannot advise on an empty trace")
    limit = max_capacity or max(1, trace.distinct_pages)
    curve = lru_miss_curve(trace, limit)
    capacity = knee_capacity(curve, len(trace), coverage)
    misses = {
        name: replay_trace(trace, factory(), capacity).misses
        for name, factory in candidates.items()
    }
    best = min(misses, key=lambda name: (misses[name], name != "LRU"))
    return Advice(
        recommended_policy=best,
        recommended_capacity=capacity,
        trace_length=len(trace),
        distinct_pages=trace.distinct_pages,
        policy_misses=misses,
        opt_misses=opt_misses(trace, capacity),
        miss_curve=curve,
    )
