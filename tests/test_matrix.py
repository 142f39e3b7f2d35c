"""Pinned disk reads of the policy × index × workload matrix.

Two indexes (the R*-tree and the grid file) are built by single inserts
from the Database-1-like generator, and one buffer per
(index, policy) runs three legs back to back: the phase-shifting query
workload, a clustered access-graph walk projected onto the index's own
pages, and S-W-100 window queries.  Every count is deterministic for the
seed, so the disk reads of each cell are a golden: a change to any
policy's decisions, to an index's layout or to a workload moves a cell
and fails the test.  ASB ÷ LRU on the R*-tree graph leg is 325/268 —
the recency-blind loss on a cycle-rich walk (EXPERIMENTS.md).  The two
indexes must also answer every query of both query legs identically.
"""

from __future__ import annotations

import pytest

from repro.api import BufferSystem
from repro.datasets.places import synthetic_places
from repro.datasets.synthetic import us_mainland_like
from repro.sam.gridfile import GridFile
from repro.sam.rstar import RStarTree
from repro.workloads.access_graph import clustered_graph, graph_walk
from repro.workloads.phased import phased_workload
from repro.workloads.sets import make_query_set

SEED = 7
INDEXES = ("rstar", "gridfile")
WORKLOADS = ("phased", "graph", "mainland")
POLICIES = ("LRU", "ASB")
N_OBJECTS = 2_000
N_QUERIES = 80
GRAPH_LENGTH = 800
#: References per query scope on the graph leg.
GRAPH_SCOPE = 8

#: disk reads per (index, workload, policy).
GOLDEN_READS = {
    ("rstar", "phased", "LRU"): 92,
    ("rstar", "phased", "ASB"): 82,
    ("rstar", "graph", "LRU"): 268,
    ("rstar", "graph", "ASB"): 325,
    ("rstar", "mainland", "LRU"): 88,
    ("rstar", "mainland", "ASB"): 88,
    ("gridfile", "phased", "LRU"): 110,
    ("gridfile", "phased", "ASB"): 108,
    ("gridfile", "graph", "LRU"): 336,
    ("gridfile", "graph", "ASB"): 340,
    ("gridfile", "mainland", "LRU"): 81,
    ("gridfile", "mainland", "ASB"): 86,
}


def _build(kind: str):
    dataset = us_mainland_like(n_objects=N_OBJECTS, seed=SEED)
    if kind == "rstar":
        index = RStarTree()
    else:
        index = GridFile(dataset.space, bucket_capacity=42, max_splits=64)
    for rect, object_id in dataset.items():
        index.insert(rect, object_id)
    return index


def _query_legs() -> dict[str, list]:
    """The two query legs: the phased workload and S-W-100 windows."""
    dataset = us_mainland_like(n_objects=N_OBJECTS, seed=SEED)
    places = synthetic_places(dataset, count=800, seed=SEED)
    return {
        "phased": phased_workload(
            dataset.space, queries_per_phase=N_QUERIES // 4, seed=SEED
        ).queries,
        "mainland": make_query_set(
            "S-W-100", dataset, places, N_QUERIES, SEED
        ).queries,
    }


def _legs(index, query_legs):
    """The three legs as callables driving one buffer system."""
    walk = graph_walk(clustered_graph(6, 24), GRAPH_LENGTH, seed=SEED)
    # Walk nodes spread evenly over the sorted page ids, so the cluster
    # structure covers the whole index whatever its size.
    page_ids = sorted(index.all_page_ids())
    rank = {node: i for i, node in enumerate(walk.graph.nodes)}
    pages = [
        page_ids[rank[node] * len(page_ids) // len(rank)] for node in walk.pages
    ]

    def queries(system, batch):
        for query in batch:
            with system.buffer.query_scope():
                query.run(index, system.buffer)

    def graph(system):
        for start in range(0, len(pages), GRAPH_SCOPE):
            with system.buffer.query_scope():
                for page_id in pages[start:start + GRAPH_SCOPE]:
                    system.fetch(page_id)

    return {
        "phased": lambda system: queries(system, query_legs["phased"]),
        "graph": graph,
        "mainland": lambda system: queries(system, query_legs["mainland"]),
    }


def _counts(system) -> tuple[int, int, int, int]:
    stats = system.buffer.stats
    return system.disk.stats.reads, stats.requests, stats.hits, stats.misses


@pytest.fixture(scope="module")
def query_legs() -> dict[str, list]:
    return _query_legs()


@pytest.fixture(scope="module")
def indexes() -> dict[str, object]:
    return {kind: _build(kind) for kind in INDEXES}


@pytest.fixture(scope="module")
def cells(indexes, query_legs) -> dict[tuple[str, str, str], tuple[int, int, int, int]]:
    """``(disk_reads, requests, hits, misses)`` of every matrix cell."""
    results = {}
    for kind, index in indexes.items():
        capacity = max(8, round(0.047 * index.stats().page_count))
        legs = _legs(index, query_legs)
        for policy in POLICIES:
            system = BufferSystem.build(
                policy=policy, capacity=capacity, disk=index.pagefile.disk
            )
            for name, drive in legs.items():
                before = _counts(system)
                drive(system)
                results[(kind, name, policy)] = tuple(
                    a - b for a, b in zip(_counts(system), before)
                )
            assert system.buffer.stats.evictions > 0, (kind, policy)
            system.close()
    return results


class TestMatrixRun:
    def test_covers_every_cell(self, cells):
        assert set(cells) == {
            (kind, workload, policy)
            for kind in INDEXES for workload in WORKLOADS for policy in POLICIES
        }

    def test_indexes_answer_identically(self, indexes, query_legs):
        rstar, grid = indexes["rstar"], indexes["gridfile"]
        for leg, queries in query_legs.items():
            for query in queries:
                assert sorted(query.run(rstar)) == sorted(query.run(grid)), leg

    def test_disk_reads_are_pinned(self, cells):
        reads = {key: cell[0] for key, cell in cells.items()}
        assert reads == GOLDEN_READS

    def test_counters_are_live_and_consistent(self, cells):
        for key, (reads, requests, hits, misses) in cells.items():
            assert requests > 0, key
            assert hits + misses == requests, key
            assert reads == misses, key
