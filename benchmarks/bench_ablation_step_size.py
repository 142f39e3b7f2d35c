"""Ablation: ASB's adaptation step size (the paper uses 1 % of the main part)."""

from conftest import publish, run_once

from repro.experiments.ablation import ablation_step_size


def test_ablation_step_size(benchmark, paper_setup, results_dir):
    result = run_once(benchmark, lambda: ablation_step_size(paper_setup))
    publish(result, results_dir)
    assert result.rows
