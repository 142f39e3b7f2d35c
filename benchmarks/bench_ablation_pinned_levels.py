"""Ablation: static top-level pinning (the paper's reference [8]) vs LRU-P.

Leutenegger & Lopez pinned the top R-tree levels in the buffer; LRU-P
generalises the idea dynamically.  Both against plain LRU.
"""

from conftest import publish, run_once

from repro.experiments.ablation import ablation_pinned_levels


def test_ablation_pinned_levels(benchmark, paper_setup, results_dir):
    result = run_once(benchmark, lambda: ablation_pinned_levels(paper_setup))
    publish(result, results_dir)
    assert result.rows
