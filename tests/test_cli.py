"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro import cli
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
        assert "figure_13" in err and "ablation_opt_gap" in err

    @pytest.mark.parametrize(
        "name, title",
        [
            ("figure_14", "Figure 14"),
            ("ablation_updates", "Ablation updates"),
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

    def test_replay_all_policies_accepted(self, tmp_path, capsys):
        path = self._record(tmp_path)
        capsys.readouterr()
        for policy in sorted(POLICY_FACTORIES):
            argv = ["events", "replay", str(path), "--policy", policy, "--capacity", "16"]
            assert main(argv) == 0, policy
            assert capsys.readouterr().out.startswith(f"{policy} @ 16 pages: "), policy

    @pytest.mark.parametrize("name", ["NOPE", "INT-W-0", "U-W-x", "S"])
    def test_record_rejects_a_malformed_set_at_parse_time(self, name, monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "_cmd_events_record", lambda args: pytest.fail("recorded a bad set")
        )
        with pytest.raises(SystemExit) as exit_info:
            main(["events", "record", "--set", name, "--out", "t.jsonl"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --set: " in err and repr(name) in err

    @pytest.mark.parametrize(
        "text, reason",
        [
            pytest.param(None, "No such file or directory", id="missing-file"),
            pytest.param("", "empty trace file", id="empty"),
            pytest.param("{not json\n", "line 1: ", id="not-json"),
            pytest.param(
                '{"format": "repro-obs-trace", "version": 1, "capacity": 4, '
                '"catalogue": {}}\n',
                "line 1: header field 'policy'",
                id="no-policy",
            ),
            pytest.param(
                '{"format": "repro-obs-trace", "version": 1, "policy": "LRU", '
                '"capacity": 0, "catalogue": {}}\n',
                "line 1: header field 'capacity'",
                id="zero-capacity",
            ),
            pytest.param(
                '{"format": "repro-obs-trace", "version": 1, "policy": "LRU", '
                '"capacity": 4, "catalogue": {}}\n\n{"kind": "hit"}\n',
                "line 3: event field 'clock'",
                id="event-without-clock",
            ),
        ],
    )
    def test_replay_of_a_malformed_file_exits_2(self, text, reason, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        assert main(["events", "replay", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"repro: {path}: {reason}")


class TestCountOptions:
    """Every count option rejects zero and negatives at parse time."""

    #: The options whose valid range is not the positive integers.
    REQUIREMENTS = {
        "--max-queued": "a non-negative integer",
        "--request-timeout": "a positive number",
    }

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["figure", "14", "--objects", "0"], id="figure-objects"),
            pytest.param(["figure", "14", "--queries", "0"], id="figure-queries"),
            pytest.param(["dataset", "db1", "--objects", "-3"], id="dataset-objects"),
            pytest.param(["events", "record", "--out", "t.jsonl", "--capacity", "0"],
                         id="events-record-capacity"),
            pytest.param(["events", "record", "--out", "t.jsonl", "--objects", "-2"],
                         id="events-record-objects"),
            pytest.param(["events", "record", "--out", "t.jsonl", "--queries", "0"],
                         id="events-record-queries"),
            pytest.param(["events", "replay", "missing.jsonl", "--capacity", "0"],
                         id="events-replay-capacity"),
            pytest.param(["events", "replay", "missing.jsonl", "--window", "0"],
                         id="events-replay-window"),
            pytest.param(["reproduce", "--out", "r", "--objects", "0"],
                         id="reproduce-objects"),
            pytest.param(["reproduce", "--out", "r", "--queries", "-4"],
                         id="reproduce-queries"),
            pytest.param(["serve", "--max-inflight", "0"], id="serve-max-inflight"),
            pytest.param(["serve", "--pages", "-3"], id="serve-pages"),
            pytest.param(["serve", "--page-size", "0"], id="serve-page-size"),
            pytest.param(["serve", "--per-client-limit", "0"],
                         id="serve-per-client-limit"),
            pytest.param(["serve", "--max-queued", "-1"], id="serve-max-queued"),
            pytest.param(["serve", "--request-timeout", "-1"],
                         id="serve-request-timeout"),
            pytest.param(["serve", "--request-timeout", "0"],
                         id="serve-request-timeout-zero"),
        ],
    )
    def test_non_positive_count_exits_2_naming_the_option(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        # A value that gets past the parser must not start a server.
        monkeypatch.setattr(
            cli, "_cmd_serve", lambda args: pytest.fail("serve ran with a bad value")
        )
        option = argv[-2]
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        requirement = self.REQUIREMENTS.get(option, "a positive integer")
        assert f"argument {option}: must be {requirement}" in (
            capsys.readouterr().err
        )

    def test_zero_max_queued_stays_valid(self, monkeypatch):
        parsed = []
        monkeypatch.setattr(cli, "_cmd_serve", lambda args: parsed.append(args) or 0)
        assert main(["serve", "--max-queued", "0"]) == 0
        assert parsed[0].max_queued == 0


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_module_entrypoint_importable(self):
        import repro.__main__  # noqa: F401


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

