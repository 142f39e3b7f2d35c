"""Shared fixtures.

Expensive structures (datasets, bulk-loaded trees) are session-scoped; the
tests only read them.  Tests that mutate trees build their own.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.datasets.places import synthetic_places
from repro.datasets.synthetic import us_mainland_like, world_atlas_like
from repro.experiments.figures import make_setup
from repro.experiments.harness import build_database
from repro.experiments.suite import run_reproduction
from repro.geometry.rect import Rect
from repro.sam.rstar import RStarTree


@pytest.fixture(scope="session")
def small_dataset():
    """A small database-1-like dataset (deterministic)."""
    return us_mainland_like(n_objects=3_000, seed=11)


@pytest.fixture(scope="session")
def small_dataset_db2():
    """A small database-2-like dataset (deterministic)."""
    return world_atlas_like(n_objects=2_500, seed=12)


@pytest.fixture(scope="session")
def small_places(small_dataset):
    return synthetic_places(small_dataset, count=200, seed=13)


@pytest.fixture(scope="session")
def small_tree(small_dataset):
    """A bulk-loaded R*-tree over the small dataset (read-only!)."""
    tree = RStarTree(max_dir_entries=16, max_data_entries=12)
    tree.bulk_load(small_dataset.items())
    return tree


@pytest.fixture(scope="session")
def small_database(small_dataset):
    """A full Database (tree + places) over the small dataset (read-only!)."""
    return build_database(small_dataset, n_places=200)


@pytest.fixture(scope="session")
def reproduction():
    """All 24 figure and study tables, run once for the whole session.

    The scale is the one ``tests/golden/experiment_tables.json`` pins; the
    tests that only look at a table read it from here instead of running
    the experiment again.
    """
    setup = make_setup(2_500, 1_500, n_places=150, n_queries=30, seed=3)
    return run_reproduction(setup)


@pytest.fixture(scope="session")
def table(reproduction):
    """Look one table of the shared run up by its registry key."""

    def lookup(name: str):
        assert name not in reproduction.errors, (
            f"{name} failed: {reproduction.errors.get(name)}"
        )
        return reproduction.results[name]

    return lookup


#: Event-loop threads of servers and synchronous clients.  Each is stopped by
#: its owner's ``stop``/``close``; one still running after a test means the
#: test skipped that, and it would outlive the test into interpreter exit.
LOOP_THREADS = ("page-server-loop", "page-client-loop", "cluster-client-loop")


@pytest.fixture(autouse=True)
def no_loop_thread_left_behind():
    before = set(threading.enumerate())
    yield
    started = [
        thread
        for thread in threading.enumerate()
        if thread not in before and thread.name in LOOP_THREADS
    ]
    deadline = time.monotonic() + 2.0
    for thread in started:
        thread.join(max(0.0, deadline - time.monotonic()))
    alive = sorted(thread.name for thread in started if thread.is_alive())
    if alive:
        pytest.fail(f"test left loop threads running: {alive}")


@pytest.fixture()
def unit_space():
    return Rect(0.0, 0.0, 1.0, 1.0)
