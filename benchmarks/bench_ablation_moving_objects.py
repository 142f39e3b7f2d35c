"""Ablation: moving spatial objects (the paper's future-work item #3).

A pure movement stream — each update relocates one live object by a small
step (delete + insert), the index-maintenance signature of spatiotemporal
workloads — interleaved with window queries.
"""

from conftest import publish, run_once

from repro.experiments.ablation import ablation_updates


def test_ablation_moving_objects(benchmark, paper_setup, results_dir):
    result = run_once(benchmark, lambda: ablation_updates(paper_setup, moving=True))
    publish(result, results_dir)
    assert result.rows
