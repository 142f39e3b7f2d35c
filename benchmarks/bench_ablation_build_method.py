"""Ablation: STR vs Hilbert vs R*-insertion tree builds.

Tests the hypothesis behind the db2-independent deviation recorded in
EXPERIMENTS.md: insertion-grown directory MBRs are looser than bulk-loaded
ones, so sparse-region (water) queries cost more and give the policies
something to win or lose.
"""

from conftest import publish, run_once

from repro.experiments.ablation import ablation_build_method


def test_ablation_build_method(benchmark, paper_setup, results_dir):
    result = run_once(benchmark, lambda: ablation_build_method(paper_setup))
    publish(result, results_dir)
    assert result.rows
