"""Tests for the one-call reproduction suite.

``tests/golden/experiment_tables.json`` pins ``sha256(to_text())`` of all 17
tables at the scale of the session's shared run (``conftest.reproduction``).
A refactor of the experiment code must leave every digest alone; after an
*intentional* change to a table regenerate with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_experiments_suite.py
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
from pathlib import Path

import pytest

from repro.experiments import ablation, figures
from repro.experiments.figures import ALL_FIGURES, make_setup
from repro.experiments.suite import ALL_ABLATIONS, run_reproduction

GOLDEN_TABLES = Path(__file__).parent / "golden" / "experiment_tables.json"


def digest(result) -> str:
    return hashlib.sha256(result.to_text().encode()).hexdigest()


@pytest.fixture(scope="module", autouse=True)
def regenerate_if_requested(reproduction):
    if os.environ.get("REGEN_GOLDEN"):
        assert reproduction.succeeded, reproduction.errors
        digests = {name: digest(table) for name, table in reproduction.results.items()}
        GOLDEN_TABLES.write_text(
            json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


@pytest.fixture(scope="module")
def golden(regenerate_if_requested) -> dict[str, str]:
    return json.loads(GOLDEN_TABLES.read_text(encoding="utf-8"))


def test_golden_names_every_table(golden):
    assert set(golden) == set(ALL_FIGURES | ALL_ABLATIONS)


@pytest.mark.parametrize("name", list(ALL_FIGURES | ALL_ABLATIONS))
def test_table_matches_golden(name, table, golden):
    """Each table, byte for byte; the test id names the table that moved."""
    result = table(name)
    assert digest(result) == golden[name], (
        f"{name} is no longer the pinned table; it now reads\n{result.to_text()}"
    )


def defined_in(module, prefix: str) -> set:
    """The ``prefix*`` functions a module defines itself (not its imports)."""
    return {
        value
        for name, value in vars(module).items()
        if name.startswith(prefix)
        and inspect.isfunction(value)
        and value.__module__ == module.__name__
    }


@pytest.fixture(scope="module")
def tiny_setup():
    # The tests below check the suite's plumbing, not its tables: the
    # smallest databases that still build a tree with a directory level.
    return make_setup(
        n_objects_db1=1_000,
        n_objects_db2=800,
        n_places=60,
        n_queries=6,
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

    def test_markdown_contains_every_result(self, reproduction):
        markdown = reproduction.to_markdown()
        assert len(reproduction.results) == 17
        for result in reproduction.results.values():
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
        # Every ablation function is a value of the registry, so none can
        # drop out of ``reproduce`` and ``repro figure``.
        studies = defined_in(ablation, "ablation_")
        assert ablation.ablation_opt_gap in studies
        # (moving objects is the updates function under a second label.)
        assert studies <= set(ALL_ABLATIONS.values())

    def test_figure_registry_complete(self):
        assert defined_in(figures, "figure_") == set(ALL_FIGURES.values())
