"""Tests for the experiment harness, reporting, and figure definitions."""

from __future__ import annotations

import inspect
from collections import Counter

import pytest

from repro.buffer.manager import BufferManager
from repro.buffer.policies.asb import ASB
from repro.buffer.policies.lru import LRU
from repro.buffer.policies.spatial import SpatialPolicy
from repro.experiments.figures import (
    ALL_FIGURES,
    FigureResult,
    figure_14,
    make_setup,
)
from repro.experiments.harness import (
    BUFFER_FRACTIONS,
    buffer_capacity,
    build_database,
    gain,
    replay,
    run_grid,
)
from repro.experiments.report import format_gain, format_ratio, format_table
from repro.obs.events import Fanout, TraceRecorder
from repro.obs.windows import WindowedMetrics
from repro.workloads.queries import PointQuery, WindowQuery


@pytest.fixture(scope="module")
def tiny_setup():
    return make_setup(
        n_objects_db1=2_000,
        n_objects_db2=1_500,
        n_places=150,
        n_queries=40,
        seed=5,
    )


class TestHarness:
    def test_build_database_has_places(self, small_dataset):
        database = build_database(small_dataset, n_places=50)
        assert len(database.places) == 50
        assert database.page_count > 10

    def test_buffer_capacity_fraction(self, small_database):
        pages = small_database.page_count
        assert buffer_capacity(small_database, 0.047) == max(8, round(0.047 * pages))

    def test_buffer_capacity_clamped_below(self, small_database):
        assert buffer_capacity(small_database, 0.0001) == 8

    def test_buffer_capacity_rejects_nonpositive(self, small_database):
        with pytest.raises(ValueError):
            buffer_capacity(small_database, 0.0)

    def test_paper_fractions(self):
        assert BUFFER_FRACTIONS[0] == 0.003
        assert BUFFER_FRACTIONS[-1] == 0.047

    def test_replay_counts_misses_as_disk_reads(self, small_database):
        query_set = small_database.query_set("U-W-100", 30)
        reads_before = small_database.tree.pagefile.disk.stats.reads
        buffer = replay(small_database.tree, query_set, LRU(), 32)
        reads = small_database.tree.pagefile.disk.stats.reads - reads_before
        assert buffer.stats.misses == reads
        assert buffer.stats.queries == 30

    def test_replay_is_reproducible(self, small_database):
        query_set = small_database.query_set("S-W-100", 30)
        a = replay(small_database.tree, query_set, LRU(), 32).stats.misses
        b = replay(small_database.tree, query_set, LRU(), 32).stats.misses
        assert a == b

    def test_replay_takes_no_hook(self):
        # Experiments read what they watch from a replay's event stream.
        assert list(inspect.signature(replay).parameters) == [
            "index",
            "query_set",
            "policy",
            "capacity",
        ]

    def test_query_set_cache_returns_same_object(self, small_database):
        a = small_database.query_set("U-P", 10, seed=3)
        b = small_database.query_set("U-P", 10, seed=3)
        assert a is b

    def test_gain_definition(self):
        assert gain(100, 80) == pytest.approx(0.25)
        assert gain(100, 125) == pytest.approx(-0.2)
        with pytest.raises(ValueError):
            gain(100, 0)

    def test_bigger_buffer_never_hurts_lru(self, small_database):
        query_set = small_database.query_set("U-W-100", 40)
        small = replay(small_database.tree, query_set, LRU(), 16).stats.misses
        large = replay(small_database.tree, query_set, LRU(), 64).stats.misses
        assert large <= small


class TestRecordOnce:
    def test_grid_runs_each_query_once(self, monkeypatch):
        """The grid records a query set once per (database, set, count,
        seed): 3 policies x 2 buffer sizes, asked for twice, run every query
        of the set exactly once."""
        setup = make_setup(
            n_objects_db1=1_000, n_objects_db2=800, n_places=60, n_queries=12, seed=4
        )
        runs: Counter = Counter()
        for query_class in (PointQuery, WindowQuery):

            def counted(query, index, accessor=None, run=query_class.run):
                runs[id(query)] += 1
                return run(query, index, accessor)

            monkeypatch.setattr(query_class, "run", counted)
        policies = {"LRU": LRU, "A": lambda: SpatialPolicy("A"), "ASB": ASB}
        sets = ("U-P", "S-W-100")
        for _ in range(2):
            run_grid(setup, policies, sets, (0.012, 0.047))
        queries = [
            query
            for name in sets
            for query in setup.db1.query_set(name, setup.n_queries, setup.seed)
        ]
        assert len(queries) == 24
        assert runs == Counter(id(query) for query in queries)


class TestReport:
    def test_format_gain(self):
        assert format_gain(0.253) == "+25.3%"
        assert format_gain(-0.05) == "-5.0%"

    def test_format_ratio(self):
        assert format_ratio(1.035) == "103.5%"

    def test_format_table_aligns(self):
        text = format_table(["a", "long"], [["xx", "1"], ["y", "22"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line.rstrip()) for line in lines[:2])) >= 1

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["1", "2"]])


class TestFigures:
    @pytest.mark.parametrize("name", sorted(ALL_FIGURES))
    def test_every_figure_runs_and_reports(self, name, table):
        result = table(name)
        assert isinstance(result, FigureResult)
        assert result.rows, f"{name} produced no rows"
        text = result.to_text()
        assert result.title in text
        for row in result.rows:
            assert len(row) == len(result.headers)

    def test_figure_14_trace_spans_all_phases(self, tiny_setup):
        result = figure_14(tiny_setup)
        trace = result.series["candidate_size"]
        assert len(trace) == 3 * 2 * tiny_setup.n_queries  # 2x queries per phase
        assert all(size >= 1 for size in trace)
        assert len(result.rows) == 3

    def test_figure_14_series_equal_the_live_per_query_loop(self, tiny_setup):
        """Figure 14 samples its series from a replayed event stream.  The
        reference is the live loop: one buffer over the three phases, each
        query in its own scope, the knob and a live-fed rolling hit ratio
        read after every query."""
        database = tiny_setup.db1
        count = 2 * tiny_setup.n_queries
        capacity = buffer_capacity(database, 0.047)
        policy = ASB()
        adaptations = TraceRecorder(kinds=("adapt",))
        metrics = WindowedMetrics(window=max(64, capacity))
        buffer = BufferManager(
            database.tree.pagefile.disk,
            capacity,
            policy,
            observer=Fanout(adaptations, metrics),
        )
        sizes: list[float] = []
        hit_ratios: list[float] = []
        for name in ("INT-W-33", "U-W-33", "S-W-33"):
            for query in database.query_set(name, count, tiny_setup.seed):
                with buffer.query_scope():
                    query.run(database.tree, buffer)
                sizes.append(float(policy.candidate_size))
                hit_ratios.append(metrics.rolling.ratio)
        # The knob moves, so the comparison covers the samples before and
        # after adaptations.
        assert len(set(sizes)) > 1
        series = figure_14(tiny_setup).series
        assert series["candidate_size"] == sizes
        assert series["rolling_hit_ratio"] == hit_ratios
        assert series["adaptation_clock"] == [
            float(event.clock) for event in adaptations.events
        ]

    def test_setup_database_lookup(self, tiny_setup):
        assert tiny_setup.database("db1") is tiny_setup.db1
        assert tiny_setup.database("db2") is tiny_setup.db2
        with pytest.raises(KeyError):
            tiny_setup.database("db3")


class TestRobustnessClaim:
    """The paper's headline: ASB never loses to LRU.  At tiny scale noise
    can flip single cells, so assert the aggregate instead of every cell."""

    def test_asb_mean_gain_nonnegative(self, tiny_setup):
        database = tiny_setup.db1
        total_lru = 0
        total_asb = 0
        for set_name in ("U-W-100", "ID-P", "S-W-100", "INT-W-100", "IND-P"):
            query_set = database.query_set(set_name, 40, tiny_setup.seed)
            capacity = buffer_capacity(database, 0.023)
            total_lru += replay(database.tree, query_set, LRU(), capacity).stats.misses
            total_asb += replay(database.tree, query_set, ASB(), capacity).stats.misses
        assert total_asb <= total_lru * 1.02
