"""Ablation: all three page categories (Section 2.1) in one shared buffer.

The paper keeps object pages in separate files/buffers and reports tree
accesses only; here window queries fetch the exact representations too, so
directory, data and object pages compete for the same frames — the setting
the type-based LRU targets.
"""

from conftest import publish, run_once

from repro.experiments.ablation import ablation_object_pages


def test_ablation_object_pages(benchmark, paper_setup, results_dir):
    result = run_once(benchmark, lambda: ablation_object_pages(paper_setup))
    publish(result, results_dir)
    assert result.rows
