"""Ablation: classic replacement baselines (FIFO/CLOCK/LFU/MRU/RANDOM) vs LRU."""

from conftest import publish, run_once

from repro.experiments.ablation import ablation_baselines


def test_ablation_baselines(benchmark, paper_setup, results_dir):
    result = run_once(benchmark, lambda: ablation_baselines(paper_setup))
    publish(result, results_dir)
    assert result.rows
