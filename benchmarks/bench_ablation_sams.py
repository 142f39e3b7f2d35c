"""Ablation: the policies on a quadtree and a z-order B+-tree.

Section 2.3 defines the spatial criteria for generic page entries; this
bench verifies the claim beyond R-trees.
"""

from conftest import publish, run_once

from repro.experiments.ablation import ablation_sams


def test_ablation_sams(benchmark, paper_setup, results_dir):
    result = run_once(benchmark, lambda: ablation_sams(paper_setup))
    publish(result, results_dir)
    assert result.rows
