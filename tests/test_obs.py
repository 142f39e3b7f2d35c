"""Tests for the observability subsystem (repro.obs).

Covers the event model and sinks, the manager/policy emission contract
(kinds, ordering, zero-cost-when-disabled), windowed metrics, and
JSON-lines trace persistence with deterministic replay.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.buffer.manager import BufferManager
from repro.buffer.policies import ASB, LRU, SpatialPolicy
from repro.geometry.rect import Rect
from repro.obs import (
    EVENT_KINDS,
    BufferEvent,
    EvictionAgeHistogram,
    Fanout,
    LevelHitCounters,
    RecordedTrace,
    RollingHitRatio,
    TraceRecorder,
    WindowedMetrics,
    record_run,
    replay_recorded,
)
from repro.obs.trace import disk_from_catalogue
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page, PageEntry, PageType


def make_disk(n_pages=10, levels=False):
    disk = SimulatedDisk()
    for page_id in range(n_pages):
        level = (page_id % 3) if levels else 0
        page_type = PageType.DIRECTORY if level > 0 else PageType.DATA
        page = Page(page_id=page_id, page_type=page_type, level=level)
        side = float(page_id + 1)
        page.entries.append(
            PageEntry(mbr=Rect(0, 0, side, side), payload=page_id)
        )
        disk.store(page)
    return disk


def workload(n_requests=200, n_pages=10, seed=3):
    """A deterministic (page_id, query) stream with a hot set."""
    rng = random.Random(seed)
    requests = []
    query = 0
    for position in range(n_requests):
        if position % 5 == 0:
            query += 1
        if rng.random() < 0.7:
            page_id = rng.randrange(max(1, n_pages // 3))
        else:
            page_id = rng.randrange(n_pages)
        requests.append((page_id, query))
    return requests


class TestEventModel:
    def test_kinds_are_closed_set(self):
        assert EVENT_KINDS == (
            "fetch", "hit", "miss", "evict", "writeback", "promote", "adapt",
            "wal_append", "wal_fsync", "bg_flush", "checkpoint", "recover",
            "req_queued", "req_admitted", "req_rejected", "req_timeout",
            "tune_epoch", "tune_retune", "tune_switch",
            "cluster_route",
        )

    def test_to_dict_drops_none_fields(self):
        event = BufferEvent(kind="fetch", clock=3, page_id=7, query=1)
        assert event.to_dict() == {
            "kind": "fetch", "clock": 3, "page_id": 7, "query": 1,
        }

    def test_dict_roundtrip(self):
        event = BufferEvent(
            kind="evict", clock=9, page_id=2, dirty=False, age=5
        )
        assert BufferEvent.from_dict(event.to_dict()) == event

    def test_recorder_filters_kinds(self):
        recorder = TraceRecorder(kinds=("evict",))
        recorder.emit(BufferEvent(kind="fetch", clock=1, page_id=0))
        recorder.emit(BufferEvent(kind="evict", clock=2, page_id=0, age=1))
        assert len(recorder) == 1
        assert recorder.events[0].kind == "evict"

    def test_fanout_feeds_all_sinks_in_order(self):
        first, second = TraceRecorder(), TraceRecorder()
        Fanout(first, second).emit(BufferEvent(kind="fetch", clock=1))
        assert len(first) == 1 and len(second) == 1


class TestManagerEmission:
    def test_disabled_by_default(self):
        buffer = BufferManager(make_disk(), 2, LRU())
        assert buffer.observer is None
        buffer.fetch(0)  # must not fail without a sink

    def test_disabled_tracing_emits_nothing(self):
        """With no observer the buffer keeps no event state at all: an
        observer attached late sees the next fetch and its outcome only."""
        buffer = BufferManager(make_disk(), 4, LRU())
        assert buffer.observer is None
        requests = workload()
        for page_id, _ in requests:
            buffer.fetch(page_id)
        recorder = TraceRecorder()
        buffer.observer = recorder
        last_page = requests[-1][0]
        buffer.fetch(last_page)  # still resident: a hit
        assert [event.kind for event in recorder.events] == ["fetch", "hit"]
        assert all(event.page_id == last_page for event in recorder.events)

    def test_hit_and_miss_events(self):
        recorder = TraceRecorder()
        buffer = BufferManager(make_disk(), 2, LRU(), observer=recorder)
        buffer.fetch(0)
        buffer.fetch(0)
        kinds = [event.kind for event in recorder.events]
        assert kinds == ["fetch", "miss", "fetch", "hit"]
        hit = recorder.events[-1]
        assert hit.page_id == 0
        assert hit.correlated is False  # unscoped requests are uncorrelated
        assert hit.level == 0

    def test_correlated_flag_inside_query_scope(self):
        recorder = TraceRecorder()
        buffer = BufferManager(make_disk(), 2, LRU(), observer=recorder)
        with buffer.query_scope():
            buffer.fetch(0)
            buffer.fetch(0)
        hit = recorder.events[-1]
        assert hit.kind == "hit" and hit.correlated is True

    def test_eviction_order_writeback_then_evict(self):
        recorder = TraceRecorder()
        buffer = BufferManager(make_disk(), 1, LRU(), observer=recorder)
        buffer.fetch(0)
        buffer.mark_dirty(0)
        buffer.fetch(1)  # evicts dirty page 0
        kinds = [event.kind for event in recorder.events]
        assert kinds == ["fetch", "miss", "fetch", "miss", "writeback", "evict"]
        evict = recorder.events[-1]
        assert evict.page_id == 0
        assert evict.dirty is True
        assert evict.age == 1  # loaded at clock 1, evicted at clock 2

    def test_flush_emits_writebacks(self):
        recorder = TraceRecorder(kinds=("writeback",))
        buffer = BufferManager(make_disk(), 4, LRU(), observer=recorder)
        buffer.fetch(0)
        buffer.fetch(1)
        buffer.mark_dirty(0)
        buffer.mark_dirty(1)
        buffer.flush()
        assert sorted(event.page_id for event in recorder.events) == [0, 1]

    def test_discard_emits_evict(self):
        recorder = TraceRecorder(kinds=("evict",))
        buffer = BufferManager(make_disk(), 4, LRU(), observer=recorder)
        buffer.fetch(0)
        buffer.discard(0)
        assert recorder.events[0].page_id == 0

    def test_clocks_are_monotonic(self):
        recorder = TraceRecorder()
        buffer = BufferManager(make_disk(), 3, LRU(), observer=recorder)
        for page_id, _ in workload(60):
            buffer.fetch(page_id)
        clocks = [event.clock for event in recorder.events]
        assert clocks == sorted(clocks)


class TestPolicyEmission:
    def test_asb_promote_and_adapt(self):
        recorder = TraceRecorder()
        disk = make_disk(12)
        policy = ASB(overflow_fraction=0.4)
        buffer = BufferManager(disk, 8, policy, observer=recorder)
        # Fill, overflow, then re-request a demoted page to force promotion.
        for page_id in range(12):
            buffer.fetch(page_id)
        for page_id in list(policy.overflow_ids()):
            buffer.fetch(page_id)
        promotes = [e for e in recorder.events if e.kind == "promote"]
        adapts = [e for e in recorder.events if e.kind == "adapt"]
        assert promotes, "overflow hits must emit promote events"
        assert len(adapts) == len(promotes)
        for event in adapts:
            assert 1 <= event.size <= policy.main_capacity
            assert event.delta in (-policy._step, 0, policy._step)

    def test_adapt_events_match_record_trace(self):
        """The event stream and the legacy record_trace knob agree."""
        recorder = TraceRecorder(kinds=("adapt",))
        policy = ASB(overflow_fraction=0.4, record_trace=True)
        buffer = BufferManager(make_disk(12), 8, policy, observer=recorder)
        for page_id, _ in workload(300, n_pages=12):
            buffer.fetch(page_id)
        assert [(e.clock, e.size) for e in recorder.events] == policy.trace


class TestWindowedMetrics:
    def test_rolling_hit_ratio_window(self):
        rolling = RollingHitRatio(window=4)
        for hit in [False, False, True, True, True, True]:
            rolling.emit(
                BufferEvent(kind="hit" if hit else "miss", clock=0, page_id=0)
            )
        assert rolling.ratio == 1.0  # last 4 were hits
        assert rolling.overall_ratio == pytest.approx(4 / 6)

    def test_rolling_ratio_empty_is_zero(self):
        assert RollingHitRatio().ratio == 0.0

    def test_rolling_window_must_be_positive(self):
        with pytest.raises(ValueError):
            RollingHitRatio(window=0)

    def test_eviction_age_buckets_are_power_of_two(self):
        histogram = EvictionAgeHistogram()
        for age in [1, 2, 3, 4, 5, 100]:
            histogram.emit(
                BufferEvent(kind="evict", clock=0, page_id=0, age=age)
            )
        assert histogram.total == 6
        buckets = dict(histogram.buckets())
        assert buckets[1] == 1      # age 1
        assert buckets[2] == 1      # age 2
        assert buckets[4] == 2      # ages 3, 4
        assert buckets[8] == 1      # age 5
        assert buckets[128] == 1    # age 100

    def test_level_hit_counters(self):
        counters = LevelHitCounters()
        recorder = Fanout(counters)
        buffer = BufferManager(make_disk(9, levels=True), 4, LRU(),
                               observer=recorder)
        for page_id, _ in workload(120, n_pages=9):
            buffer.fetch(page_id)
        assert counters.levels()
        for level in counters.levels():
            assert 0.0 <= counters.ratio(level) <= 1.0
        total = sum(counters.hits.values()) + sum(counters.misses.values())
        assert total == buffer.stats.requests

    def test_windowed_metrics_summary_matches_stats(self):
        metrics = WindowedMetrics(window=1_000)
        buffer = BufferManager(make_disk(), 3, LRU(), observer=metrics)
        for page_id, _ in workload(150):
            buffer.fetch(page_id)
        summary = metrics.summary()
        assert summary["overall_hit_ratio"] == pytest.approx(
            buffer.stats.hit_ratio
        )
        assert summary["rolling_hit_ratio"] == pytest.approx(
            buffer.stats.hit_ratio
        )  # window covers the whole run
        assert summary["evictions"] == buffer.stats.evictions


class TestRecordedTrace:
    def _recorded(self, policy=None, capacity=4):
        return record_run(
            workload(200), make_disk(), policy or LRU(), capacity
        )

    def test_requests_reproduce_the_input_stream(self):
        requests = workload(200)
        recorded = record_run(requests, make_disk(), LRU(), 4)
        assert recorded.requests() == requests

    def test_recording_does_not_touch_source_disk(self):
        disk = make_disk()
        record_run(workload(50), disk, LRU(), 4)
        assert disk.stats.reads == 0

    def test_jsonl_roundtrip(self, tmp_path):
        recorded = self._recorded()
        path = tmp_path / "trace.jsonl"
        recorded.save(path)
        loaded = RecordedTrace.load(path)
        assert loaded.policy == recorded.policy
        assert loaded.capacity == recorded.capacity
        assert loaded.events == recorded.events
        assert loaded.stats == recorded.stats
        assert loaded.catalogue == recorded.catalogue

    def test_header_is_first_line(self, tmp_path):
        recorded = self._recorded()
        path = tmp_path / "trace.jsonl"
        recorded.save(path)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert '"format": "repro-obs-trace"' in first

    def test_rejects_foreign_files(self):
        with pytest.raises(ValueError):
            RecordedTrace.from_jsonl('{"format": "something-else"}\n')
        with pytest.raises(ValueError):
            RecordedTrace.from_jsonl("")

    def test_replay_is_deterministic(self):
        recorded = self._recorded()
        replayed = replay_recorded(recorded, LRU())
        assert replayed.events == recorded.events
        assert replayed.stats == recorded.stats

    def test_counterfactual_replay_other_policy(self):
        recorded = self._recorded()
        replayed = replay_recorded(recorded, SpatialPolicy("A"))
        assert replayed.requests() == recorded.requests()
        assert replayed.policy == "A"
        # Same requests, different decisions: stats may differ, the
        # request count may not.
        assert replayed.stats["requests"] == recorded.stats["requests"]

    def test_disk_from_catalogue_rebuilds_metadata(self):
        recorded = self._recorded()
        disk = disk_from_catalogue(recorded.catalogue)
        for page_id, (type_value, level, mbrs) in recorded.catalogue.items():
            page = disk.peek(page_id)
            assert page.page_type.value == type_value
            assert page.level == level
            assert len(page.entries) == len(mbrs)

    def test_events_of_filters(self):
        recorded = self._recorded()
        assert all(
            event.kind in ("hit", "miss")
            for event in recorded.events_of("hit", "miss")
        )
        fetches = recorded.events_of("fetch")
        assert len(fetches) == int(recorded.stats["requests"])

    #: A valid one-page header and fetch; each case below breaks one field.
    HEADER = {
        "format": "repro-obs-trace",
        "version": 1,
        "policy": "LRU",
        "capacity": 4,
        "stats": {"requests": 1},
        "catalogue": {"0": ["data", 0, [[0.0, 0.0, 1.0, 1.0]]]},
    }
    FETCH = {"kind": "fetch", "clock": 1, "page_id": 0, "query": 1}

    @pytest.mark.parametrize(
        "header, event, match",
        [
            ({"policy": None}, {}, "^line 1: header field 'policy'"),
            ({"policy": 7}, {}, "^line 1: header field 'policy'"),
            ({"capacity": 0}, {}, "^line 1: header field 'capacity'"),
            ({"capacity": "4"}, {}, "^line 1: header field 'capacity'"),
            ({"stats": {"hits": "many"}}, {}, "^line 1: header field 'stats'"),
            ({"catalogue": None}, {}, "^line 1: header field 'catalogue'"),
            ({"catalogue": {"0": ["leaf", 0, []]}}, {}, "^line 1: catalogue entry '0'"),
            ({"catalogue": {"0": ["data", 0, [[0, 1]]]}}, {}, "^line 1: catalogue entry '0'"),
            ({"catalogue": {"x": ["data", 0, []]}}, {}, "^line 1: catalogue entry 'x'"),
            ({}, {"clock": None}, "^line 2: event field 'clock'"),
            ({}, {"clock": "1"}, "^line 2: event field 'clock'"),
            ({}, {"kind": "teleport"}, "^line 2: event field 'kind'"),
            ({}, {"page_id": "0"}, "^line 2: event field 'page_id'"),
            ({}, {"colour": "red"}, "^line 2: unknown event field 'colour'"),
            ({}, {"page_id": 9}, "^line 2: a fetch event needs a catalogued"),
        ],
        ids=[
            "no-policy", "int-policy", "zero-capacity", "string-capacity",
            "text-stats", "no-catalogue", "bad-page-type", "short-mbr",
            "bad-page-id", "no-clock", "string-clock", "unknown-kind",
            "string-page-id", "unknown-field", "uncatalogued-fetch",
        ],
    )
    def test_malformed_file_raises_value_error_naming_the_line(
        self, header, event, match
    ):
        header = {
            key: value
            for key, value in {**self.HEADER, **header}.items()
            if value is not None
        }
        event = {
            key: value
            for key, value in {**self.FETCH, **event}.items()
            if value is not None
        }
        text = json.dumps(header) + "\n" + json.dumps(event) + "\n"
        with pytest.raises(ValueError, match=match):
            RecordedTrace.from_jsonl(text)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("[1, 2]\n", "^line 1: the header is not a JSON object"),
            ('{"format": "repro-obs-trace", "version": 1, "policy": "LRU", '
             '"capacity": 1, "catalogue": {}}\n\n{"kind"\n', "^line 3: "),
        ],
        ids=["list-header", "truncated-event"],
    )
    def test_malformed_json_names_the_line(self, text, match):
        with pytest.raises(ValueError, match=match):
            RecordedTrace.from_jsonl(text)
