"""Tests of the benchmark metadata block.

``bench/run.py`` stamps its report with
:func:`repro.experiments.benchmeta.run_metadata`, so a result is
attributable to a revision, a seed and a point in time.
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
