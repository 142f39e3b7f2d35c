"""Tests for the one-call reproduction suite."""

from __future__ import annotations

import pytest

from repro.experiments.figures import make_setup
from repro.experiments.suite import (
    ALL_ABLATIONS,
    ReproductionRun,
    run_reproduction,
)


@pytest.fixture(scope="module")
def tiny_setup():
    return make_setup(
        n_objects_db1=2_000,
        n_objects_db2=1_500,
        n_places=120,
        n_queries=20,
        seed=4,
    )


class TestSuite:
    def test_figures_only(self, tiny_setup, tmp_path):
        run = run_reproduction(
            tiny_setup, output_dir=tmp_path, include_ablations=False
        )
        assert run.succeeded, run.errors
        assert len(run.results) == 9  # figures 4-9, 12-14
        assert (tmp_path / "REPORT.md").exists()
        assert (tmp_path / "figure_13.txt").exists()

    def test_progress_callback(self, tiny_setup):
        seen: list[str] = []
        run_reproduction(
            tiny_setup, include_ablations=False, progress=seen.append
        )
        assert "figure_04" in seen
        assert len(seen) == 9

    def test_markdown_contains_every_result(self, tiny_setup):
        run = run_reproduction(tiny_setup, include_ablations=False)
        markdown = run.to_markdown()
        for result in run.results.values():
            assert result.title in markdown

    def test_errors_are_captured_not_raised(self, tiny_setup, monkeypatch):
        from repro.experiments import suite

        def boom(setup):
            raise RuntimeError("injected")

        monkeypatch.setitem(suite.ALL_FIGURES, "figure_04", boom)
        run = run_reproduction(tiny_setup, include_ablations=False)
        assert "figure_04" in run.errors
        assert "injected" in run.errors["figure_04"]
        assert not run.succeeded
        assert "Errors" in run.to_markdown()

    def test_ablation_registry_complete(self):
        # Every public ablation function is registered in the suite.
        from repro.experiments import ablation as module

        # ``ablation_workloads`` builds ``bench ablation``'s reference
        # strings; it is not a paper-figure ablation.
        public = {
            name
            for name in dir(module)
            if name.startswith("ablation_") and name != "ablation_workloads"
        }
        registered = set(ALL_ABLATIONS) | {"ablation_updates"}
        # moving objects shares the updates function under its own label.
        assert public <= registered | {"ablation_updates"}

    def test_empty_run(self, tiny_setup):
        run = run_reproduction(
            tiny_setup, include_figures=False, include_ablations=False
        )
        assert run.results == {}
        assert isinstance(run, ReproductionRun)
