"""Ablation: ASB against 2Q, ARC, LRU-2, GCLOCK and domain separation.

2Q and ARC adapt along the recency/frequency axis, the paper's ASB along
the recency/spatial axis; GCLOCK (type weights) and domain separation are
the type-aware classics.  Gains vs plain LRU, database 1.
"""

from conftest import publish, run_once

from repro.experiments.ablation import ablation_adaptive_buffers


def test_ablation_adaptive_buffers(benchmark, paper_setup, results_dir):
    result = run_once(benchmark, lambda: ablation_adaptive_buffers(paper_setup))
    publish(result, results_dir)
    assert result.rows
