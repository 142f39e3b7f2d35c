"""Ablation: spatial joins through a shared buffer (future work #2).

Two R*-tree layers over the same region, joined by synchronized traversal;
the nested-loop row shows the algorithmic baseline.
"""

from conftest import publish, run_once

from repro.experiments.ablation import ablation_join


def test_ablation_join(benchmark, paper_setup, results_dir):
    result = run_once(benchmark, lambda: ablation_join(paper_setup))
    publish(result, results_dir)
    assert result.rows
