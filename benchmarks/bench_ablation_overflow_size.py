"""Ablation: the overflow-buffer size (the paper's future-work item #1).

The paper fixes the overflow buffer at 20 % of the whole buffer; this bench
sweeps the fraction from 0 (no adaptation signal — static SLRU behaviour)
to 40 % (a starved main part).
"""

from conftest import publish, run_once

from repro.experiments.ablation import ablation_overflow_size


def test_ablation_overflow_size(benchmark, paper_setup, results_dir):
    result = run_once(benchmark, lambda: ablation_overflow_size(paper_setup))
    publish(result, results_dir)
    assert result.rows
