"""Shared fixtures for the benchmark suite.

Every case of ``bench_suite.py`` regenerates one figure of the paper (or an
ablation) and both prints the table and writes it to
``benchmarks/results/``.  The databases are built once per session.

Scale knobs (environment variables):

* ``REPRO_BENCH_OBJECTS_DB1`` / ``REPRO_BENCH_OBJECTS_DB2`` — dataset sizes
  (defaults 40000 / 30000, about 1/40 of the paper's databases);
* ``REPRO_BENCH_QUERIES`` — queries per query set (default 300).

The paper's relative-buffer protocol makes the reported *gains* comparable
across scales, so the defaults favour turnaround time.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.figures import PaperSetup, make_setup

RESULTS_DIR = Path(__file__).parent / "results"


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    return int(value) if value else default


@pytest.fixture(scope="session")
def paper_setup() -> PaperSetup:
    return make_setup(
        n_objects_db1=_env_int("REPRO_BENCH_OBJECTS_DB1", 40_000),
        n_objects_db2=_env_int("REPRO_BENCH_OBJECTS_DB2", 30_000),
        n_places=1_200,
        n_queries=_env_int("REPRO_BENCH_QUERIES", 300),
        seed=7,
    )


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark's timer.

    The experiments are deterministic replays — repeating them only burns
    time, so every bench uses one round and one iteration.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def publish(result, results_dir: Path) -> None:
    """Print a figure table and persist it under benchmarks/results/."""
    text = result.to_text()
    print()
    print(text)
    filename = result.figure.lower().replace(" ", "_") + ".txt"
    (results_dir / filename).write_text(text + "\n", encoding="utf-8")


def parse_gain(cell: str) -> float:
    """"+12.3%" -> 0.123 (for shape-guard assertions on figure rows)."""
    return float(str(cell).rstrip("%")) / 100.0
