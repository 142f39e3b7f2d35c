"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import POLICY_FACTORIES, main


class TestFigureCommand:
    def test_single_figure(self, capsys):
        code = main(
            ["figure", "14", "--objects", "2000", "--queries", "30"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 14" in out
        assert "candidate set" in out

    def test_unknown_figure(self, capsys):
        code = main(["figure", "99", "--objects", "2000"])
        assert code == 2
        assert "no such figure" in capsys.readouterr().err

    def test_zero_padded_number_accepted(self, capsys):
        code = main(["figure", "07", "--objects", "2000", "--queries", "20"])
        assert code == 0
        assert "Figure 7" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["thirteen", "10", "figure_10", "ablation_no"])
    def test_every_unknown_name_exits_2_and_lists_the_valid_ones(self, name, capsys):
        assert main(["figure", name]) == 2
        err = capsys.readouterr().err
        assert f"no such figure: {name}" in err
        assert "figure_13" in err and "ablation_knn" in err

    @pytest.mark.parametrize(
        "name, title",
        [
            ("figure_14", "Figure 14"),
            ("ablation_drifting_hotspot", "Ablation drifting-hotspot"),
        ],
    )
    def test_registry_keys_accepted(self, name, title, capsys):
        code = main(["figure", name, "--objects", "1000", "--queries", "8"])
        assert code == 0
        assert title in capsys.readouterr().out


class TestDatasetCommand:
    def test_describe_db1(self, capsys):
        assert main(["dataset", "db1", "--objects", "3000"]) == 0
        out = capsys.readouterr().out
        assert "us-mainland-like" in out
        assert "3000 objects" in out

    def test_describe_db2(self, capsys):
        assert main(["dataset", "db2", "--objects", "3000"]) == 0
        assert "world-atlas-like" in capsys.readouterr().out


class TestTraceAndReplay:
    def test_record_then_replay(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "trace",
                "--set",
                "U-W-100",
                "--out",
                str(trace_path),
                "--objects",
                "3000",
                "--queries",
                "30",
            ]
        )
        assert code == 0
        assert trace_path.exists()
        assert "recorded" in capsys.readouterr().out

        code = main(
            ["replay", str(trace_path), "--policy", "ASB", "--capacity", "24"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ASB @ 24 pages" in out
        assert "disk reads" in out

    def test_replay_all_policies_accepted(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        main(
            [
                "trace",
                "--out",
                str(trace_path),
                "--objects",
                "2000",
                "--queries",
                "15",
            ]
        )
        capsys.readouterr()
        for policy in sorted(POLICY_FACTORIES):
            assert (
                main(["replay", str(trace_path), "--policy", policy]) == 0
            ), policy
        assert capsys.readouterr().out.count("disk reads") == len(
            POLICY_FACTORIES
        )


class TestEventsCommand:
    def _record(self, tmp_path, policy="ASB"):
        path = tmp_path / "events.jsonl"
        code = main(
            [
                "events", "record",
                "--set", "S-W-100",
                "--policy", policy,
                "--capacity", "24",
                "--out", str(path),
                "--objects", "2000",
                "--queries", "20",
            ]
        )
        assert code == 0
        return path

    def test_record_writes_jsonl(self, tmp_path, capsys):
        path = self._record(tmp_path)
        out = capsys.readouterr().out
        assert "recorded" in out and "fetch=" in out
        first_line = path.read_text(encoding="utf-8").splitlines()[0]
        assert "repro-obs-trace" in first_line

    def test_replay_verifies_determinism(self, tmp_path, capsys):
        path = self._record(tmp_path)
        capsys.readouterr()
        assert main(["events", "replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "deterministic replay verified" in out
        assert "rolling hit ratio" in out
        assert "hit ratio by level" in out

    def test_replay_with_other_policy_is_counterfactual(self, tmp_path, capsys):
        path = self._record(tmp_path)
        capsys.readouterr()
        assert main(["events", "replay", str(path), "--policy", "LRU"]) == 0
        out = capsys.readouterr().out
        assert "LRU @ 24 pages" in out
        # Different policy: no determinism verdict is claimed.
        assert "deterministic replay" not in out


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_module_entrypoint_importable(self):
        import repro.__main__  # noqa: F401


class TestAdviseCommand:
    def test_advise_on_recorded_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        main(
            [
                "trace",
                "--set",
                "S-W-100",
                "--out",
                str(trace_path),
                "--objects",
                "3000",
                "--queries",
                "40",
            ]
        )
        capsys.readouterr()
        assert main(["advise", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "recommended policy" in out
        assert "OPT" in out


class TestMapCommand:
    def test_render_dataset(self, capsys):
        assert main(["map", "db1", "--objects", "2000", "--width", "30",
                     "--height", "10"]) == 0
        out = capsys.readouterr().out
        assert "object density" in out
        assert out.count("|") >= 20  # borders of 10 rows

    def test_render_with_query_set(self, capsys):
        assert main(
            ["map", "db1", "--objects", "2000", "--set", "INT-P",
             "--queries", "50", "--width", "30", "--height", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "query density of INT-P" in out


class TestReproduceCommand:
    def test_figures_only_run(self, tmp_path, capsys):
        code = main(
            [
                "reproduce",
                "--out",
                str(tmp_path / "report"),
                "--objects",
                "2000",
                "--queries",
                "25",
                "--figures-only",
            ]
        )
        assert code == 0
        report = (tmp_path / "report" / "REPORT.md").read_text()
        assert "Figure 13" in report
        assert (tmp_path / "report" / "figure_14.txt").exists()
        out = capsys.readouterr().out
        assert "running figure_04" in out


class TestBenchClusterGate:
    """``bench cluster`` exits 1 when *any* acceptance flag is false."""

    @staticmethod
    def run(monkeypatch, *extra, **flags):
        from repro.experiments import clusterbench

        class Report(clusterbench.ClusterBenchReport):
            def acceptance(self):
                return {**dict.fromkeys(super().acceptance(), True), **flags}

        monkeypatch.setattr(
            clusterbench, "run_cluster_bench", lambda params: Report(params)
        )
        return main(["bench", "cluster", "--out", "", *extra])

    def test_passes_when_every_flag_holds(self, monkeypatch, capsys):
        assert self.run(monkeypatch) == 0

    @pytest.mark.parametrize(
        "flag", ["replica_hits_observed", "far_hits_observed", "zero_stale_reads"]
    )
    def test_one_false_flag_fails_the_gate_and_is_named(
        self, monkeypatch, capsys, flag
    ):
        assert self.run(monkeypatch, **{flag: False}) == 1
        assert flag in capsys.readouterr().err

    def test_no_gate_reports_only(self, monkeypatch, capsys):
        assert self.run(monkeypatch, "--no-gate", far_hits_observed=False) == 0
