"""Tests for the experiment harness, reporting, and figure definitions."""

from __future__ import annotations

import pytest

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
    compare_policies,
    gain,
    gains_vs_lru,
    replay,
)
from repro.experiments.report import format_gain, format_ratio, format_table


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

    def test_query_set_cache_returns_same_object(self, small_database):
        a = small_database.query_set("U-P", 10, seed=3)
        b = small_database.query_set("U-P", 10, seed=3)
        assert a is b

    def test_gain_definition(self):
        assert gain(100, 80) == pytest.approx(0.25)
        assert gain(100, 125) == pytest.approx(-0.2)
        with pytest.raises(ValueError):
            gain(100, 0)

    def test_compare_policies_runs_each_factory(self, small_database):
        query_set = small_database.query_set("ID-P", 25)
        results = compare_policies(
            small_database.tree,
            query_set,
            {"LRU": LRU, "A": lambda: SpatialPolicy("A")},
            24,
        )
        assert set(results) == {"LRU", "A"}
        assert all(misses > 0 for misses in results.values())

    def test_gains_vs_lru_zero_for_lru_itself(self, small_database):
        query_set = small_database.query_set("U-P", 25)
        gains = gains_vs_lru(small_database.tree, query_set, {"LRU": LRU}, 24)
        assert gains["LRU"] == pytest.approx(0.0)

    def test_bigger_buffer_never_hurts_lru(self, small_database):
        query_set = small_database.query_set("U-W-100", 40)
        small = replay(small_database.tree, query_set, LRU(), 16).stats.misses
        large = replay(small_database.tree, query_set, LRU(), 64).stats.misses
        assert large <= small


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
        result = figure_14(tiny_setup, queries_per_phase=30)
        trace = result.series["candidate_size"]
        assert len(trace) == 90
        assert all(size >= 1 for size in trace)
        assert len(result.rows) == 3

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
