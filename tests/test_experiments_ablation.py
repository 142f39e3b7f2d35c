"""Tests of the ablation harness (``bench ablation``).

The matrix is only trustworthy if three properties hold: every
configuration actually builds and runs (the flags compose), the
accounting identity ``hits + misses == requests`` survives every
one-off, and the counter metrics are bit-deterministic at ``workers=1``
for a fixed seed — the property the importance scores and the
regression gate stand on.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments.ablation import (
    AblationParams,
    ablation_workloads,
    baseline_build_kwargs,
    build_schedule,
    component_specs,
    run_ablation,
)

#: Small but non-trivial: 2 workloads x 240 refs over 12 frames, serial.
PARAMS = AblationParams(
    capacity=12,
    shards=2,
    workers=1,
    length=240,
    seed=7,
    write_every=4,
    commit_every=16,
    epoch_length=50,
    read_delay_us=0.0,
)


@pytest.fixture(scope="module")
def report():
    return run_ablation(PARAMS)


def counter_view(report) -> dict:
    """The deterministic slice of a report (no wall-clock anywhere)."""
    view = {}
    for run in report.all_runs():
        overall = run.overall.to_dict()
        overall.pop("seconds")
        overall.pop("throughput")
        view[run.key] = {"run_id": run.run_id, "overall": overall}
    return view


class TestMatrix:
    def test_every_component_config_builds_and_runs(self, report):
        specs = component_specs(PARAMS)
        assert len(specs) >= 5
        assert set(report.variants) == {spec.key for spec in specs}
        for run in report.all_runs():
            assert run.overall.requests > 0
            assert [stage.name for stage in run.stages][0] == "build"
            assert [stage.name for stage in run.stages][-1] == "drain"

    def test_accounting_identity_every_config(self, report):
        for run in report.all_runs():
            overall = run.overall
            assert overall.hits + overall.misses == overall.requests, run.key
            for name, metrics in run.workloads.items():
                assert metrics.hits + metrics.misses == metrics.requests, (
                    f"{run.key}/{name}"
                )

    def test_acceptance_block(self, report):
        verdict = report.acceptance()
        assert verdict["at_least_5_components"]
        assert verdict["accounting_identity_holds"]
        assert verdict["includes_hostile_workload"]

    def test_run_ids_are_distinct_and_stable(self, report):
        run_ids = [run.run_id for run in report.all_runs()]
        assert len(set(run_ids)) == len(run_ids)
        for run in report.all_runs():
            assert run.run_id.startswith(f"{run.key}-")

    def test_hostile_cycle_is_sized_against_capacity(self, report):
        """The hostile string is the canonical one: a walk over exactly
        ``capacity + 1`` pages (zero LRU hits — pinned by the workload
        tests; the matrix's MRU-start baseline survives it, which is the
        robustness the ablation is after)."""
        cycle = report.workloads["cycle"]
        assert cycle.distinct_pages() == PARAMS.capacity + 1
        assert cycle.respects_graph()
        assert report.baseline.workloads["cycle"].requests >= PARAMS.length

    def test_tuning_component_shows_up(self, report):
        """Started naive (MRU), the tuner must visibly help: switching it
        off drops the overall hit rate."""
        without = report.variants["tuning"].overall
        assert report.baseline.overall.hit_rate > without.hit_rate
        score = next(s for s in report.scores if s.key == "tuning")
        assert score.hit_rate_delta > 0

    def test_group_commit_component_saves_fsyncs(self, report):
        """Window 1 must fsync strictly more often than window 8."""
        without = report.variants["group_commit"].overall
        assert without.fsyncs > report.baseline.overall.fsyncs

    def test_importance_ranking_is_sorted(self, report):
        ranked = report.ranked()
        assert len(ranked) == len(report.scores)
        scores = [score.importance for score in ranked]
        assert scores == sorted(scores, reverse=True)


class TestDeterminism:
    def test_counters_identical_across_reruns(self, report):
        """workers=1 + fixed seed => every counter metric bit-identical."""
        again = run_ablation(PARAMS)
        assert counter_view(report) == counter_view(again)

    def test_workload_digests_stable(self, report):
        fresh = ablation_workloads(PARAMS)
        for name, reference in report.workloads.items():
            assert reference.digest() == fresh[name].digest()


class TestSchedules:
    def test_build_schedule_mixes_ops(self):
        reference = ablation_workloads(PARAMS)["cycle"]
        schedule = build_schedule(reference, write_every=4, commit_every=16)
        reads = [op for op in schedule if op[0] == "read"]
        writes = [op for op in schedule if op[0] == "write"]
        commits = [op for op in schedule if op[0] == "commit"]
        assert len(reads) + len(writes) == len(reference)
        assert len(writes) == len(reference) // 4
        assert len(commits) == len(reference) // 16
        # Page ops preserve the reference order exactly.
        assert [op[1] for op in schedule if op[0] != "commit"] == list(reference)

    def test_zero_intervals_mean_read_only(self):
        reference = ablation_workloads(PARAMS)["cycle"]
        schedule = build_schedule(reference, write_every=0, commit_every=0)
        assert all(op[0] == "read" for op in schedule)


class TestThreadedSmoke:
    def test_threaded_run_keeps_identity(self):
        params = AblationParams(
            capacity=12,
            shards=2,
            workers=3,
            length=120,
            seed=3,
            epoch_length=40,
            read_delay_us=0.0,
        )
        report = run_ablation(params)
        assert report.acceptance()["accounting_identity_holds"]
        # Admission was live: the gate admitted every op (no overload here).
        assert report.baseline.overall.rejected == 0


class TestReportOutput:
    def test_save_and_meta(self, report, tmp_path):
        path = tmp_path / "BENCH_ablation.json"
        report.save(str(path))
        data = json.loads(path.read_text())
        assert data["benchmark"] == "ablation"
        assert data["meta"]["seed"] == PARAMS.seed
        assert data["meta"]["run_id"] == report.baseline.run_id
        assert len(data["components"]) >= 5
        assert data["acceptance"]["accounting_identity_holds"]
        assert {w["name"] for w in data["workloads"]} == {"cycle", "clustered"}
        for workload in data["workloads"]:
            assert len(workload["digest"]) == 64

    def test_to_text_mentions_every_component(self, report):
        text = report.to_text()
        for spec in component_specs(PARAMS):
            assert spec.key in text
        assert "baseline" in text


class TestCli:
    def test_bench_ablation_cli(self, tmp_path):
        out = tmp_path / "BENCH_ablation.json"
        code = main(
            [
                "bench", "ablation",
                "--capacity", "12",
                "--workers", "1",
                "--length", "120",
                "--epoch", "40",
                "--latency-us", "0",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["acceptance"]["at_least_5_components"]
