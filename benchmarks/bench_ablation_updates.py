"""Ablation: updates through the buffer (the paper's future-work item #2).

Interleaves window queries with inserts/deletes/moves executed through the
buffer manager, charging index-maintenance page accesses and dirty-page
write-backs to the replacement policy.
"""

from conftest import publish, run_once

from repro.experiments.ablation import ablation_updates


def test_ablation_updates(benchmark, paper_setup, results_dir):
    result = run_once(benchmark, lambda: ablation_updates(paper_setup))
    publish(result, results_dir)
    assert result.rows
