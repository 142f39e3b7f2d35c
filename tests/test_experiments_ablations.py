"""Tiny-scale smoke tests for every ablation experiment.

The benches run the ablations at full scale; these tests verify structure
and basic sanity at a scale that keeps the suite fast.
"""

from __future__ import annotations

import pytest

from repro.experiments.ablation import (
    ablation_adaptive_buffers,
    ablation_baselines,
    ablation_build_method,
    ablation_drifting_hotspot,
    ablation_io_time,
    ablation_join,
    ablation_knn,
    ablation_multiclient,
    ablation_object_pages,
    ablation_opt_gap,
    ablation_overflow_size,
    ablation_partitioned_buffer,
    ablation_pinned_levels,
    ablation_sams,
    ablation_step_size,
    ablation_updates,
)
from repro.experiments.figures import FigureResult, make_setup


@pytest.fixture(scope="module")
def tiny_setup():
    return make_setup(
        n_objects_db1=2_500,
        n_objects_db2=1_500,
        n_places=150,
        n_queries=30,
        seed=3,
    )


def check(result: FigureResult):
    assert result.rows
    for row in result.rows:
        assert len(row) == len(result.headers)
    text = result.to_text()
    assert result.title in text
    return result


class TestAblationsRun:
    def test_overflow_size(self, tiny_setup):
        result = check(ablation_overflow_size(tiny_setup))
        assert len(result.headers) == 6  # query set + 5 fractions

    def test_step_size(self, tiny_setup):
        check(ablation_step_size(tiny_setup))

    def test_sams(self, tiny_setup):
        result = check(ablation_sams(tiny_setup))
        indexes = {row[0] for row in result.rows}
        assert indexes == {"quadtree", "z-b+tree", "gridfile"}

    def test_baselines(self, tiny_setup):
        check(ablation_baselines(tiny_setup))

    def test_io_time(self, tiny_setup):
        result = check(ablation_io_time(tiny_setup))
        assert any("ms" in str(row[-1]) for row in result.rows)

    def test_adaptive_buffers(self, tiny_setup):
        result = check(ablation_adaptive_buffers(tiny_setup))
        assert "ASB" in result.headers

    def test_object_pages(self, tiny_setup):
        result = check(ablation_object_pages(tiny_setup, n_objects=2_000))
        policies = {row[0] for row in result.rows}
        assert "LRU-T" in policies

    def test_partitioned_buffer(self, tiny_setup):
        result = check(
            ablation_partitioned_buffer(tiny_setup, n_objects=2_000)
        )
        layouts = {row[0] for row in result.rows}
        assert "shared LRU" in layouts
        assert "split A/LRU" in layouts

    def test_updates(self, tiny_setup):
        result = check(
            ablation_updates(tiny_setup, n_updates=60, n_queries=30)
        )
        assert result.rows[0][0] == "LRU"
        # reads + writebacks = total in every row
        for row in result.rows:
            assert row[1] + row[2] == row[3]

    def test_updates_moving(self, tiny_setup):
        result = check(
            ablation_updates(tiny_setup, n_updates=60, n_queries=30, moving=True)
        )
        assert "moving" in result.title

    def test_join(self, tiny_setup):
        result = check(ablation_join(tiny_setup, n_left=1_500, n_right=1_500))
        algorithms = {row[0] for row in result.rows}
        assert algorithms == {"sync-traversal", "nested-loop"}

    def test_drifting_hotspot(self, tiny_setup):
        result = check(ablation_drifting_hotspot(tiny_setup, n_queries=50))
        assert result.rows[0][0] == "LRU"

    def test_knn(self, tiny_setup):
        result = check(ablation_knn(tiny_setup, k_values=(1, 5)))
        assert len(result.rows) == 2

    def test_opt_gap(self, tiny_setup):
        result = check(ablation_opt_gap(tiny_setup, sets=("U-W-100",)))
        assert result.rows[0][1] > 0  # OPT misses are positive

    def test_pinned_levels(self, tiny_setup):
        result = check(ablation_pinned_levels(tiny_setup, sets=("U-W-100",)))
        strategies = [row[0] for row in result.rows]
        assert strategies[0] == "LRU"
        assert strategies[-1] == "LRU-P"

    def test_multiclient(self, tiny_setup):
        result = check(
            ablation_multiclient(tiny_setup, client_sets=("U-W-100", "S-W-100"))
        )
        assert result.rows[0][0] == "LRU"

    def test_build_method(self, tiny_setup):
        result = check(ablation_build_method(tiny_setup, n_objects=1_200))
        builds = [row[0] for row in result.rows]
        assert builds == ["str", "hilbert", "insert"]
