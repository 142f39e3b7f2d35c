"""Tests of the bench regression gate (``bench check``).

The gate must hold three promises: a real regression (>10% on a counter
metric) fails loudly, *naming* the file and metric; benign wobble within
the tolerance passes; and schema drift (missing or renamed metrics)
produces a nameable error — never a bare ``KeyError``.  It must also
pass on the repository's own committed ``BENCH_*.json`` reports, because
that is exactly what CI runs.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.benchcheck import (
    BenchCheckError,
    Metric,
    _signed_relative,
    check_directory,
    compare_metrics,
    extract_report,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def matrix_report(
    disk_reads=40,
    hit_rate=0.6,
    seconds=0.5,
    indexes_agree=True,
    git_rev=None,
):
    """A minimal but schema-complete ``BENCH_matrix.json`` payload."""
    meta = {"schema_version": 1, "seed": 7}
    if git_rev is not None:
        meta["git_rev"] = git_rev
    return {
        "benchmark": "matrix",
        "meta": meta,
        "runs": [
            {
                "index": "rstar",
                "policy": "LRU",
                "hit_rate": hit_rate,
                "disk_reads": disk_reads,
                "seconds": seconds,
                "hits": 60,
                "misses": 40,
                "requests": 100,
            }
        ],
        "acceptance": {
            "at_least_2_indexes": True,
            "at_least_4_policies": True,
            "at_least_3_workloads": True,
            "accounting_identity_holds": True,
            "indexes_agree_with_rstar": indexes_agree,
        },
    }


def write_report(directory: Path, payload, name="BENCH_matrix.json") -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture()
def dirs(tmp_path):
    return tmp_path / "committed", tmp_path / "candidate"


class TestRegressionDetection:
    def test_15pct_regression_fails_naming_the_metric(self, dirs):
        committed, candidate = dirs
        write_report(committed, matrix_report(disk_reads=40))
        write_report(candidate, matrix_report(disk_reads=46))  # +15%, lower is better
        result = check_directory(str(committed), str(candidate))
        assert not result.ok
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert "BENCH_matrix.json" in failure
        assert "runs[index=rstar,policy=LRU].disk_reads" in failure
        assert "40" in failure and "46" in failure
        assert "lower is better" in failure

    def test_5pct_wobble_passes(self, dirs):
        committed, candidate = dirs
        write_report(committed, matrix_report(disk_reads=40, hit_rate=0.60))
        write_report(candidate, matrix_report(disk_reads=42, hit_rate=0.63))
        result = check_directory(str(committed), str(candidate))
        assert result.ok, result.failures

    def test_higher_is_better_direction(self, dirs):
        committed, candidate = dirs
        write_report(committed, matrix_report(hit_rate=0.4))
        # A 25% *increase* of a higher-is-better metric is an improvement.
        write_report(candidate, matrix_report(hit_rate=0.5))
        assert check_directory(str(committed), str(candidate)).ok
        # ... and a 25% drop is a regression.
        write_report(candidate, matrix_report(hit_rate=0.3))
        result = check_directory(str(committed), str(candidate))
        assert not result.ok
        assert "hit_rate" in result.failures[0]
        assert "higher is better" in result.failures[0]

    def test_timing_metrics_skipped_by_default(self, dirs):
        committed, candidate = dirs
        write_report(committed, matrix_report(seconds=0.5))
        write_report(candidate, matrix_report(seconds=5.0))  # 10x slower
        result = check_directory(str(committed), str(candidate))
        assert result.ok
        assert result.skipped_timing == 1
        gated = check_directory(
            str(committed), str(candidate), include_timing=True
        )
        assert not gated.ok
        assert "seconds" in gated.failures[0]

    def test_candidate_guard_violation_fails(self, dirs):
        committed, candidate = dirs
        write_report(committed, matrix_report())
        write_report(candidate, matrix_report(indexes_agree=False))
        result = check_directory(str(committed), str(candidate))
        assert not result.ok
        assert "indexes_agree_with_rstar" in result.failures[0]

    def test_missing_candidate_file_fails(self, dirs):
        committed, candidate = dirs
        write_report(committed, matrix_report())
        candidate.mkdir()
        result = check_directory(str(committed), str(candidate))
        assert not result.ok
        assert "no such" in result.failures[0]


class TestSchemaDrift:
    def test_renamed_metric_is_a_named_error_not_keyerror(self, dirs):
        committed, candidate = dirs
        write_report(committed, matrix_report())
        broken = matrix_report()
        broken["runs"][0]["reads"] = broken["runs"][0].pop("disk_reads")
        write_report(candidate, broken)
        with pytest.raises(BenchCheckError) as excinfo:
            check_directory(str(committed), str(candidate))
        message = str(excinfo.value)
        assert "disk_reads" in message
        assert "BENCH_matrix.json" in message

    def test_missing_section_in_committed_report(self, dirs):
        committed, _ = dirs
        broken = matrix_report()
        del broken["acceptance"]
        write_report(committed, broken)
        with pytest.raises(BenchCheckError, match="acceptance"):
            check_directory(str(committed))

    def test_non_numeric_metric_is_a_named_error(self, dirs):
        committed, _ = dirs
        broken = matrix_report()
        broken["runs"][0]["disk_reads"] = "forty"
        write_report(committed, broken)
        with pytest.raises(BenchCheckError, match="should be a number"):
            check_directory(str(committed))

    def test_invalid_json_is_a_named_error(self, tmp_path):
        committed = tmp_path / "committed"
        committed.mkdir()
        (committed / "BENCH_matrix.json").write_text("{not json")
        with pytest.raises(BenchCheckError, match="invalid JSON"):
            check_directory(str(committed))

    def test_empty_directory_is_a_named_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(BenchCheckError, match="no BENCH_"):
            check_directory(str(empty))

    def test_unknown_report_is_noted_not_failed(self, tmp_path):
        committed = tmp_path / "committed"
        write_report(
            committed, {"benchmark": "mystery"}, name="BENCH_mystery.json"
        )
        result = check_directory(str(committed))
        assert result.ok
        assert any("no metric schema" in note for note in result.notes)


class TestOneRevision:
    """Committed reports must come from one working tree."""

    @staticmethod
    def two_reports(directory, first_rev, second_rev):
        write_report(directory, matrix_report(git_rev=first_rev))
        # Same schema under a second name: found via the ``benchmark`` field.
        write_report(
            directory, matrix_report(git_rev=second_rev),
            name="BENCH_matrix_rerun.json",
        )

    def test_differing_git_revs_fail_naming_both_files(self, tmp_path):
        self.two_reports(tmp_path, "a" * 40, "b" * 40)
        result = check_directory(str(tmp_path))
        assert not result.ok
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert "git_rev" in failure
        assert "BENCH_matrix.json aaaaaaa" in failure
        assert "BENCH_matrix_rerun.json bbbbbbb" in failure
        assert main(["bench", "check", "--dir", str(tmp_path)]) == 1

    def test_one_common_git_rev_passes(self, tmp_path):
        self.two_reports(tmp_path, "a" * 40, "a" * 40)
        assert check_directory(str(tmp_path)).ok


class TestRelativeChange:
    def test_zero_baseline_edge_cases(self):
        lower = Metric("m", 0.0, "lower")
        higher = Metric("m", 0.0, "higher")
        assert _signed_relative(lower, 0.0) == 0.0
        assert _signed_relative(lower, 5.0) == -math.inf  # worse
        assert _signed_relative(higher, 5.0) == math.inf  # better

    def test_compare_requires_matching_keys(self):
        baseline = [Metric("a.b", 1.0)]
        with pytest.raises(BenchCheckError, match="lacks metric 'a.b'"):
            compare_metrics("f.json", baseline, [Metric("a.c", 1.0)])


class TestCommittedReports:
    """The gate's day job: the repository's own BENCH_*.json files."""

    def test_validate_mode_passes_on_committed_files(self):
        result = check_directory(str(REPO_ROOT))
        assert result.ok, result.to_text()
        assert len(result.files) >= 4
        assert result.metrics_checked > 0
        assert result.guards_checked > 0

    def test_compare_mode_passes_against_identical_copies(self, tmp_path):
        candidate = tmp_path / "candidate"
        candidate.mkdir()
        for path in sorted(REPO_ROOT.glob("BENCH_*.json")):
            shutil.copy(path, candidate / path.name)
        result = check_directory(str(REPO_ROOT), str(candidate))
        assert result.ok, result.to_text()
        assert result.deltas  # counters actually compared
        assert all(delta.rel == 0.0 for delta in result.deltas)

    def test_every_committed_report_has_a_schema(self):
        for path in sorted(REPO_ROOT.glob("BENCH_*.json")):
            data = json.loads(path.read_text())
            assert extract_report(path.name, data) is not None, path.name


class TestCli:
    def test_cli_validate_passes_on_repo(self):
        assert main(["bench", "check", "--dir", str(REPO_ROOT)]) == 0

    def test_cli_exit_1_on_regression(self, dirs):
        committed, candidate = dirs
        write_report(committed, matrix_report(disk_reads=40))
        write_report(candidate, matrix_report(disk_reads=50))
        code = main(
            [
                "bench", "check",
                "--dir", str(committed),
                "--candidate", str(candidate),
            ]
        )
        assert code == 1

    def test_cli_exit_2_on_unusable_input(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["bench", "check", "--dir", str(empty)]) == 2

    def test_cli_threshold_flag(self, dirs):
        committed, candidate = dirs
        write_report(committed, matrix_report(disk_reads=40))
        write_report(candidate, matrix_report(disk_reads=46))  # +15%
        args = [
            "bench", "check",
            "--dir", str(committed),
            "--candidate", str(candidate),
        ]
        assert main(args + ["--threshold", "0.2"]) == 0
        assert main(args + ["--threshold", "0.1"]) == 1
