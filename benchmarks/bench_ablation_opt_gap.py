"""Ablation: distance from Belady's offline optimum.

Each query set's trace is recorded once; OPT gives the unbeatable miss
count, and every policy is reported as percent above it — the remaining
headroom for replacement cleverness.
"""

from conftest import publish, run_once

from repro.experiments.ablation import ablation_opt_gap


def test_ablation_opt_gap(benchmark, paper_setup, results_dir):
    result = run_once(benchmark, lambda: ablation_opt_gap(paper_setup))
    publish(result, results_dir)
    assert result.rows
