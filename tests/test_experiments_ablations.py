"""Tiny-scale smoke tests for every ablation experiment.

The benches run the ablations at full scale; these tests verify structure
and basic sanity on the tables of the session's one shared
``run_reproduction`` (the ``table`` fixture), so no study runs twice.
"""

from __future__ import annotations

from repro.experiments.ablation import ablation_opt_gap
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

    def test_opt_gap(self, table):
        result = check(table("ablation_opt_gap"))
        assert result.rows[0][1] > 0  # OPT misses are positive

    def test_arguments_shape_the_table(self):
        # The shared run uses every default; the cheap study is run once
        # more here so its keyword arguments stay covered.
        setup = make_setup(1_500, 1_000, n_places=80, n_queries=10, seed=4)
        assert len(ablation_opt_gap(setup, sets=("U-W-100",)).rows) == 1
