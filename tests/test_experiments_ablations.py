"""Tiny-scale smoke tests for every ablation experiment.

The benches run the ablations at full scale; these tests verify structure
and basic sanity on the tables of the session's one shared
``run_reproduction`` (the ``table`` fixture), so no study runs twice.
"""

from __future__ import annotations

from repro.experiments.ablation import (
    ablation_drifting_hotspot,
    ablation_knn,
    ablation_multiclient,
    ablation_opt_gap,
    ablation_pinned_levels,
)
from repro.experiments.figures import FigureResult, make_setup


def check(result: FigureResult):
    assert result.rows
    for row in result.rows:
        assert len(row) == len(result.headers)
    text = result.to_text()
    assert result.title in text
    return result


class TestAblationsRun:
    def test_overflow_size(self, table):
        result = check(table("ablation_overflow_size"))
        assert len(result.headers) == 6  # query set + 5 fractions

    def test_step_size(self, table):
        check(table("ablation_step_size"))

    def test_sams(self, table):
        result = check(table("ablation_sams"))
        indexes = {row[0] for row in result.rows}
        assert indexes == {"gridfile"}

    def test_baselines(self, table):
        result = check(table("ablation_baselines"))
        assert result.headers == ["query set", "FIFO", "MRU"]

    def test_io_time(self, table):
        result = check(table("ablation_io_time"))
        assert any("ms" in str(row[-1]) for row in result.rows)

    def test_object_pages(self, table):
        result = check(table("ablation_object_pages"))
        policies = {row[0] for row in result.rows}
        assert "LRU-T" in policies

    def test_updates(self, table):
        result = check(table("ablation_updates"))
        assert result.rows[0][0] == "LRU"
        # reads + writebacks = total in every row
        for row in result.rows:
            assert row[1] + row[2] == row[3]

    def test_updates_moving(self, table):
        result = check(table("ablation_moving_objects"))
        assert "moving" in result.title

    def test_drifting_hotspot(self, table):
        result = check(table("ablation_drifting_hotspot"))
        assert result.rows[0][0] == "LRU"

    def test_knn(self, table):
        result = check(table("ablation_knn"))
        assert [row[0] for row in result.rows] == ["k=1", "k=10", "k=50"]

    def test_opt_gap(self, table):
        result = check(table("ablation_opt_gap"))
        assert result.rows[0][1] > 0  # OPT misses are positive

    def test_pinned_levels(self, table):
        result = check(table("ablation_pinned_levels"))
        strategies = [row[0] for row in result.rows]
        assert strategies[0] == "LRU"
        assert strategies[-1] == "LRU-P"

    def test_multiclient(self, table):
        result = check(table("ablation_multiclient"))
        assert result.rows[0][0] == "LRU"

    def test_build_method(self, table):
        result = check(table("ablation_build_method"))
        builds = [row[0] for row in result.rows]
        assert builds == ["str", "hilbert", "insert"]

    def test_arguments_shape_the_table(self):
        # The shared run uses every default; the cheap studies are run once
        # more here so their keyword arguments stay covered.
        setup = make_setup(1_500, 1_000, n_places=80, n_queries=10, seed=4)
        assert [row[0] for row in ablation_knn(setup, k_values=(1, 5)).rows] == [
            "k=1",
            "k=5",
        ]
        assert len(ablation_opt_gap(setup, sets=("U-W-100",)).rows) == 1
        pinned = check(ablation_pinned_levels(setup, sets=("U-W-100",)))
        assert "summed over U-W-100;" in pinned.notes
        clients = check(
            ablation_multiclient(setup, client_sets=("U-W-100", "S-W-100"))
        )
        assert "clients: U-W-100, S-W-100;" in clients.notes
        drifting = check(ablation_drifting_hotspot(setup, n_queries=50))
        assert drifting.notes.startswith("50 window queries")
