"""Ablation: a continuously drifting hotspot (non-stationary workload).

Figure 14 switches distributions abruptly; this workload drifts instead,
forcing ASB's knob to keep re-tuning.
"""

from conftest import publish, run_once

from repro.experiments.ablation import ablation_drifting_hotspot


def test_ablation_drifting_hotspot(benchmark, paper_setup, results_dir):
    result = run_once(benchmark, lambda: ablation_drifting_hotspot(paper_setup))
    publish(result, results_dir)
    assert result.rows
