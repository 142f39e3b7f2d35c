"""Tests of the shared benchmark metadata block and the tuning bench.

Every ``BENCH_*.json`` writer stamps the same ``meta`` block
(:func:`repro.experiments.benchmeta.run_metadata`), so results files are
attributable to a revision, a seed and a point in time.  The tuning
bench is smoke-run at miniature scale: the structural identities are
asserted, the wall-clock acceptance flags are not (they belong to the
full-size run).
"""

from __future__ import annotations

from repro.experiments.benchmeta import SCHEMA_VERSION, git_revision, run_metadata


class TestRunMetadata:
    def test_shape(self):
        meta = run_metadata(seed=42)
        assert meta["schema_version"] == SCHEMA_VERSION
        assert meta["seed"] == 42
        assert isinstance(meta["git_rev"], str) and meta["git_rev"]
        assert meta["created_utc"].endswith("+00:00")
        assert "python" in meta and "platform" in meta

    def test_seed_omitted_when_none(self):
        assert "seed" not in run_metadata()

    def test_git_revision_is_stable(self):
        assert git_revision() == git_revision()

    def test_every_bench_report_carries_meta(self):
        """The four kept writers stamp the shared block.

        Three reports serialise without a run; ``bench tuning``'s needs
        one, so its block is asserted by the miniature run below.
        """
        from repro.experiments.ablation import (
            AblationParams,
            AblationReport,
            ConfigRun,
        )
        from repro.experiments.clusterbench import (
            ClusterBenchParams,
            ClusterBenchReport,
        )
        from repro.experiments.matrix import MatrixParams, MatrixReport

        cluster = ClusterBenchReport(params=ClusterBenchParams(seed=3))
        assert cluster.to_dict()["meta"]["seed"] == 3
        matrix = MatrixReport(params=MatrixParams(seed=4), run_id="matrix-x")
        meta = matrix.to_dict()["meta"]
        assert (meta["seed"], meta["run_id"]) == (4, "matrix-x")
        ablation = AblationReport(
            params=AblationParams(seed=5),
            workloads={},
            baseline=ConfigRun(key="baseline", run_id="baseline-x", overrides={}),
        )
        meta = ablation.to_dict()["meta"]
        assert (meta["seed"], meta["run_id"]) == (5, "baseline-x")


class TestTuningBenchSmoke:
    def test_miniature_run_structure(self):
        from repro.experiments.tuningbench import run_tuning_bench

        report = run_tuning_bench(
            objects=1200,
            queries_per_phase=25,
            buffer_fraction=0.05,
            seed=3,
            epoch_length=40,
            read_latency_us=0.0,
            sample=1.0,
            overhead_reps=1,
        )
        data = report.to_dict()
        assert data["benchmark"] == "tuning"
        assert data["meta"]["seed"] == 3
        assert [run["label"] for run in data["static"]] == [
            "LRU", "LRU-2", "ASB"
        ]
        # Identity per run: phases partition the stream exactly.
        for run in (
            *report.static, report.shadow, report.adaptive, report.ensemble
        ):
            assert run is not None
            assert [score.phase for score in run.phases] == [
                "scan", "hotspot", "drift", "mixed"
            ]
            for score in run.phases:
                assert score.hits + score.misses == score.requests
        # The shadow run's live work is identical to the static start
        # policy's: same decisions, only the ghosts ride along.
        static_lru = report.static[0]
        assert report.shadow.overall_hit_ratio == static_lru.overall_hit_ratio
        verdict = data["acceptance"]
        assert set(verdict["per_phase"]) == {
            "scan", "hotspot", "drift", "mixed"
        }
        assert report.base_seconds > 0.0 and report.shadow_seconds > 0.0
        assert report.tuner["epochs"] >= 1
        # The ensemble rode along: its tuner ran in ensemble mode, its
        # overhead pair was timed, and the verdict carries its keys.
        assert report.ensemble_tuner["mode"] == "ensemble"
        assert report.ensemble_base_seconds > 0.0
        assert report.ensemble_shadow_seconds > 0.0
        for key in ("beats_every_static_overall", "ensemble_overall",
                    "ensemble_overhead_leq_10pct"):
            assert key in verdict
