"""CPU overhead of the replacement policies themselves.

The paper argues that the area/margin criteria cost "only a small overhead"
when a page is loaded, while the overlap criterion is costlier.  This bench
measures the wall-clock cost of serving a fixed access pattern under each
policy — the only bench where time (not I/O counts) is the metric, so it
uses pytest-benchmark's statistical machinery with real rounds.

It doubles as the no-tracing overhead guard for the observability
subsystem: the plain parametrized cases run with ``observer=None`` (the
disabled hooks must stay one attribute check per event site), and the
``*-traced`` cases quantify the cost of full event recording.
"""

import random

import pytest

from repro.buffer.manager import BufferManager
from repro.buffer.policies import ASB, LRU, LRUK, SLRU, SpatialPolicy
from repro.geometry.rect import Rect
from repro.obs import TraceRecorder, WindowedMetrics
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page, PageEntry, PageType

N_PAGES = 400
CAPACITY = 64
ENTRIES_PER_PAGE = 24

POLICIES = {
    "LRU": LRU,
    "LRU-2": lambda: LRUK(k=2),
    "A": lambda: SpatialPolicy("A"),
    "EO": lambda: SpatialPolicy("EO"),
    "SLRU": lambda: SLRU(candidate_fraction=0.25),
    "ASB": ASB,
}


def build_disk() -> SimulatedDisk:
    rng = random.Random(7)
    disk = SimulatedDisk()
    for page_id in range(N_PAGES):
        page = Page(page_id=page_id, page_type=PageType.DATA)
        for _ in range(ENTRIES_PER_PAGE):
            x, y = rng.random(), rng.random()
            w, h = rng.random() * 0.02, rng.random() * 0.02
            page.entries.append(
                PageEntry(mbr=Rect(x, y, x + w, y + h), payload=page_id)
            )
        disk.store(page)
    return disk


def build_trace() -> list[int]:
    rng = random.Random(8)
    # An 80/20-style pattern: most accesses to a fifth of the pages.
    hot = list(range(N_PAGES // 5))
    trace = []
    for _ in range(6_000):
        if rng.random() < 0.8:
            trace.append(rng.choice(hot))
        else:
            trace.append(rng.randrange(N_PAGES))
    return trace


@pytest.fixture(scope="module")
def shared():
    return build_disk(), build_trace()


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_policy_cpu_overhead(benchmark, shared, name):
    disk, trace = shared

    def serve():
        buffer = BufferManager(disk, CAPACITY, POLICIES[name]())
        for page_id in trace:
            buffer.fetch(page_id)
        return buffer.stats.misses

    misses = benchmark(serve)
    assert misses > 0


@pytest.mark.parametrize("name", ["LRU", "ASB"])
def test_policy_cpu_overhead_traced(benchmark, shared, name):
    """The same workload with full event recording + windowed metrics —
    the price of turning observability on, for comparison against the
    untraced cases above."""
    disk, trace = shared

    def serve():
        recorder = TraceRecorder()
        buffer = BufferManager(
            disk, CAPACITY, POLICIES[name](), observer=recorder
        )
        for page_id in trace:
            buffer.fetch(page_id)
        return len(recorder.events)

    events = benchmark(serve)
    assert events >= len(trace) * 2  # fetch + hit/miss per request


def test_disabled_tracing_emits_nothing(shared):
    """The guard behind the <5% regression budget: with no observer the
    buffer allocates no events and keeps no event state at all."""
    disk, trace = shared
    buffer = BufferManager(disk, CAPACITY, LRU())
    assert buffer.observer is None
    for page_id in trace[:500]:
        buffer.fetch(page_id)
    # Late attachment starts a stream from that point on — proving the
    # disabled phase really ran without any recording machinery.
    recorder = TraceRecorder()
    buffer.observer = recorder
    buffer.fetch(trace[0])
    assert len(recorder.events) == 2  # fetch + outcome, nothing retroactive


def test_windowed_metrics_overhead(benchmark, shared):
    """Incremental metrics instead of full recording — the cheap always-on
    configuration."""
    disk, trace = shared

    def serve():
        metrics = WindowedMetrics(window=128)
        buffer = BufferManager(disk, CAPACITY, LRU(), observer=metrics)
        for page_id in trace:
            buffer.fetch(page_id)
        return metrics.summary()

    summary = benchmark(serve)
    assert 0.0 < summary["rolling_hit_ratio"] <= 1.0
