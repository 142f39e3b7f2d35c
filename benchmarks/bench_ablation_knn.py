"""Ablation: k-nearest-neighbour workloads.

Best-first kNN search has a locality profile between point and window
queries; query points follow the intensified distribution, the spatial
criteria's hardest case.
"""

from conftest import publish, run_once

from repro.experiments.ablation import ablation_knn


def test_ablation_knn(benchmark, paper_setup, results_dir):
    result = run_once(benchmark, lambda: ablation_knn(paper_setup))
    publish(result, results_dir)
    assert result.rows
