"""Ablation: random vs sequential I/O time (paper future work #1, part 2).

Counts every policy's reads, the share that was physically sequential, and
the simulated elapsed time under a 10 ms seek / 1 ms transfer model.
"""

from conftest import publish, run_once

from repro.experiments.ablation import ablation_io_time


def test_ablation_io_time(benchmark, paper_setup, results_dir):
    result = run_once(benchmark, lambda: ablation_io_time(paper_setup))
    publish(result, results_dir)
    assert result.rows
