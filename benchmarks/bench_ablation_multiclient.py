"""Ablation: concurrent clients sharing one buffer.

Three clients with different query distributions interleave at the buffer;
the sequential column shows the same queries without interleaving.
"""

from conftest import publish, run_once

from repro.experiments.ablation import ablation_multiclient


def test_ablation_multiclient(benchmark, paper_setup, results_dir):
    result = run_once(benchmark, lambda: ablation_multiclient(paper_setup))
    publish(result, results_dir)
    assert result.rows
