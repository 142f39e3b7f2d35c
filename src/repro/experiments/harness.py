"""Core experiment machinery.

The experimental protocol follows Section 3 of the paper:

* the database is an R*-tree over the dataset (max 51 directory / 42 data
  entries per page for database 1);
* buffer sizes are *relative* to the number of tree pages (0.3 %–4.7 %), so
  results carry over to larger databases;
* the buffer is cleared before each query set;
* every query runs inside a query scope (its page accesses are correlated);
* the reported metric is the number of disk accesses, and comparisons use
  the relative gain over LRU.

The queries are read-only, so a query set's page-reference string does not
depend on the policy or the buffer size: :meth:`Database.trace` records it
once, and :func:`run_grid` replays every (size, policy) cell from it over
the index's own disk.  :func:`replay` runs a query set live, the reference
the recorded strings are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.buffer.manager import BufferManager
from repro.buffer.policies.asb import ASB
from repro.buffer.policies.base import ReplacementPolicy
from repro.buffer.policies.lru import LRU
from repro.buffer.policies.lru_k import LRUK
from repro.buffer.policies.spatial import SpatialPolicy
from repro.datasets.places import Place, synthetic_places
from repro.datasets.synthetic import Dataset
from repro.sam.base import SpatialIndex
from repro.sam.rstar import RStarTree
from repro.experiments.report import format_gain, format_ratio
from repro.obs.trace import AccessTrace, record_trace, replay_requests
from repro.workloads.sets import QuerySet, make_query_set

#: A fresh policy per replay — policies bind to one buffer manager.
PolicyFactory = Callable[[], ReplacementPolicy]

#: The paper's relative buffer sizes (Section 3): 0.3 % to 4.7 % of the
#: tree's pages.
BUFFER_FRACTIONS = (0.003, 0.006, 0.012, 0.023, 0.047)


@dataclass(slots=True)
class Database:
    """A dataset indexed by an R*-tree, plus its places file."""

    dataset: Dataset
    tree: RStarTree
    places: list[Place]
    _query_sets: dict[tuple[str, int, int], QuerySet] = field(default_factory=dict)
    _traces: dict[tuple[str, int, int], AccessTrace] = field(default_factory=dict)

    @property
    def page_count(self) -> int:
        return len(self.tree.all_page_ids())

    def query_set(self, name: str, count: int, seed: int = 0) -> QuerySet:
        """Build (and cache) a named query set for this database."""
        key = (name, count, seed)
        cached = self._query_sets.get(key)
        if cached is None:
            cached = make_query_set(name, self.dataset, self.places, count, seed)
            self._query_sets[key] = cached
        return cached

    def trace(self, name: str, count: int, seed: int = 0) -> AccessTrace:
        """Record (and cache) the reference string of :meth:`query_set`.

        Recording reads through ``peek``, so it moves no disk counter and
        no sequential-read marker.  The cache is only right while the tree
        does not change after a set is recorded: every tree
        :func:`build_database` builds is read-only from then on, and the
        update studies build their own.
        """
        key = (name, count, seed)
        cached = self._traces.get(key)
        if cached is None:
            cached = record_trace(self.tree, self.query_set(name, count, seed))
            self._traces[key] = cached
        return cached


def build_database(
    dataset: Dataset,
    places: list[Place] | None = None,
    n_places: int = 1_500,
    max_dir_entries: int = 51,
    max_data_entries: int = 42,
    fill: float = 0.7,
    places_seed: int = 42,
) -> Database:
    """Index a dataset with an R*-tree (STR bulk load) and attach places.

    The page capacities default to the paper's database 1 (51/42); the fill
    factor of 0.7 reproduces its ~69 % storage utilisation.
    """
    tree = RStarTree(
        max_dir_entries=max_dir_entries, max_data_entries=max_data_entries
    )
    tree.bulk_load(dataset.items(), fill=fill)
    if places is None:
        places = synthetic_places(dataset, count=n_places, seed=places_seed)
    return Database(dataset=dataset, tree=tree, places=places)


def buffer_capacity(database: Database, fraction: float) -> int:
    """Buffer size in pages for a relative size (e.g. 0.047 for 4.7 %).

    Clamped below at 8 pages so every policy stays meaningful (ASB needs a
    non-empty overflow part, SLRU a non-trivial candidate set).
    """
    if fraction <= 0.0:
        raise ValueError("buffer fraction must be positive")
    return max(8, round(fraction * database.page_count))


def replay(
    index: SpatialIndex,
    query_set: QuerySet,
    policy: ReplacementPolicy,
    capacity: int,
) -> BufferManager:
    """Run a query set live against a fresh buffer; return the buffer (stats).

    Each query runs inside its own query scope (the correlation unit).
    The experiments replay recorded strings instead; this live run is the
    reference the recorded strings are checked against.
    """
    buffer = BufferManager(index.pagefile.disk, capacity, policy)
    for query in query_set:
        with buffer.query_scope():
            query.run(index, buffer)
    return buffer


def replay_mixed(
    index: SpatialIndex,
    stream: list,
    policy: ReplacementPolicy,
    capacity: int,
    observer=None,
) -> BufferManager:
    """Run a mixed query/update stream through a buffer.

    Queries execute as usual; update operations (see
    :mod:`repro.workloads.updates`) run inside :meth:`SpatialIndex.via`,
    so their page accesses and dirty pages are charged to the policy.
    Each stream item is one correlated access burst (one query scope).
    Dirty pages remaining at the end are flushed, so the write count is
    complete.
    """
    from repro.workloads.queries import Query
    from repro.workloads.updates import UpdateOp

    buffer = BufferManager(index.pagefile.disk, capacity, policy, observer=observer)
    with index.via(buffer):
        for item in stream:
            with buffer.query_scope():
                if isinstance(item, Query):
                    item.run(index)
                elif isinstance(item, UpdateOp):
                    item.apply(index)
                else:
                    raise TypeError(f"stream item {item!r} is neither query nor update")
    buffer.flush()
    return buffer


def gain(lru_accesses: int, policy_accesses: int) -> float:
    """The paper's performance gain: |LRU accesses| / |policy accesses| - 1.

    Positive values mean the policy beats LRU; -0.2 means 20 % more disk
    accesses than LRU.
    """
    if policy_accesses <= 0:
        raise ValueError("policy access count must be positive")
    return lru_accesses / policy_accesses - 1.0


# ----------------------------------------------------------------------
# The grid runner — the protocol above, once, for every figure and study
# ----------------------------------------------------------------------

#: The comparison most studies repeat: LRU (the baseline, replayed first),
#: the history-based LRU-2, the pure spatial criterion A, and ASB.
FOUR_POLICIES: dict[str, PolicyFactory] = {
    "LRU": LRU,
    "LRU-2": lambda: LRUK(k=2),
    "A": lambda: SpatialPolicy("A"),
    "ASB": ASB,
}


@dataclass(slots=True)
class GridCell:
    """The raw counts of one (database, query set, buffer size) cell."""

    db: str
    set: str
    #: The relative buffer size as the tables print it, e.g. ``4.7%``.
    buffer: str
    capacity: int
    #: policy label -> disk accesses, in replay order.
    counts: dict[object, int]


def run_grid(
    setup,
    policies: Mapping[object, PolicyFactory],
    sets: Sequence[str],
    fractions: Sequence[float] = (0.047,),
    databases: Sequence[str] | Mapping[str, Database] = ("db1",),
) -> list[GridCell]:
    """Database x query set x relative buffer size x policy, in that order.

    The paper's whole evaluation is this loop: every policy of ``policies``
    (the baseline is one of them, ``"LRU"`` first by convention) replays the
    cell's query set against a fresh buffer of ``buffer_capacity(database,
    fraction)`` pages.  ``databases`` are keys of ``setup`` (a
    :class:`~repro.experiments.figures.PaperSetup`) or a ``{label:
    Database}`` mapping; ``sets`` are query-set names, built at
    ``setup.n_queries`` / ``setup.seed``.  Each set is recorded once
    (:meth:`Database.trace`) and every cell replays its reference string
    over the index's own disk, whose pages keep their spatial criteria from
    one replay to the next.  Returns the cells in loop order;
    :func:`grid_rows` turns them into table rows.
    """
    if not isinstance(databases, Mapping):
        databases = {key: setup.database(key) for key in databases}
    cells: list[GridCell] = []
    for db_key, database in databases.items():
        disk = database.tree.pagefile.disk
        for set_name in sets:
            trace = database.trace(set_name, setup.n_queries, setup.seed)
            for fraction in fractions:
                capacity = buffer_capacity(database, fraction)
                counts = {
                    label: replay_requests(
                        disk, trace.references, factory(), capacity
                    ).stats.misses
                    for label, factory in policies.items()
                }
                buffer = f"{fraction * 100:.1f}%"
                cells.append(GridCell(db_key, set_name, buffer, capacity, counts))
    return cells


def grid_rows(
    cells: Sequence[GridCell],
    columns: Sequence[object],
    lead: Sequence[str] = ("db", "set", "buffer"),
    base: object = "LRU",
    ratio: bool = False,
) -> list[list[object]]:
    """One table row per cell: ``lead``, then every policy of ``columns``.

    A ``lead`` name is a :class:`GridCell` field (``db``, ``set``,
    ``buffer``).  Each column is the policy's gain over ``base`` (``+12.3%``), or with
    ``ratio`` its count relative to ``base`` (``103.5%``, Figure 6's scale).
    """

    def text(counts: dict, label: object) -> str:
        if ratio:
            return format_ratio(counts[label] / counts[base])
        return format_gain(gain(counts[base], counts[label]))

    return [
        [getattr(cell, name) for name in lead]
        + [text(cell.counts, label) for label in columns]
        for cell in cells
    ]


def lru_gain_rows(
    setup,
    policies: Mapping[object, PolicyFactory],
    sets: Sequence[str],
    fractions: Sequence[float],
    databases: Sequence[str] | Mapping[str, Database] = ("db1",),
    lead: Sequence[str] = ("db", "set", "buffer"),
) -> list[list[object]]:
    """The commonest table body: :func:`run_grid` with LRU replayed first as
    the baseline, one row per cell with the gain of each policy over it."""
    cells = run_grid(setup, {"LRU": LRU, **policies}, sets, fractions, databases)
    return grid_rows(cells, list(policies), lead)


def append_gain(rows: list[list[object]]) -> list[list[object]]:
    """The "one row per policy" tail: append to every row the gain of its
    last cell (a count) over the first row's."""
    base = rows[0][-1]
    return [row + [format_gain(gain(base, row[-1]))] for row in rows]
