"""Ablation: shared vs per-category buffers (the paper's own architecture).

The paper stores object pages in separate files and buffers; this bench
compares a single shared buffer against per-category partitions of the same
total memory, including the hybrid with spatial replacement on the tree
partition.
"""

from conftest import publish, run_once

from repro.experiments.ablation import ablation_partitioned_buffer


def test_ablation_partitioned_buffer(benchmark, paper_setup, results_dir):
    result = run_once(benchmark, lambda: ablation_partitioned_buffer(paper_setup))
    publish(result, results_dir)
    assert result.rows
