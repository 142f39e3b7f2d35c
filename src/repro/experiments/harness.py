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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.access import FullPageAccessor
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


def run_queries(
    accessor: FullPageAccessor,
    index: SpatialIndex,
    query_set: QuerySet,
    after_query: Callable[[int, FullPageAccessor], None] | None = None,
) -> FullPageAccessor:
    """Drive a query set through *any* page accessor.

    The harness core is accessor-generic: the same loop runs against a
    plain :class:`~repro.buffer.manager.BufferManager`, a partitioned one,
    the concurrent service, or an unbuffered accessor — each query inside
    its own query scope (the correlation unit).  ``after_query`` is an
    optional hook called with (query index, accessor) after each query.
    """
    for position, query in enumerate(query_set):
        with accessor.query_scope():
            query.run(index, accessor)
        if after_query is not None:
            after_query(position, accessor)
    return accessor


def replay(
    index: SpatialIndex,
    query_set: QuerySet,
    policy: ReplacementPolicy,
    capacity: int,
    after_query: Callable[[int, BufferManager], None] | None = None,
    observer=None,
) -> BufferManager:
    """Run a query set against a fresh buffer; return the buffer (stats).

    Convenience wrapper over :func:`run_queries` for the paper's standard
    setup: one fresh single-threaded buffer per replay.  ``after_query``
    is an optional hook called with (query index, buffer) after each query
    — used e.g. to sample ASB's candidate-set size for Figure 14.
    ``observer`` is an optional event sink receiving the buffer-event
    stream (see :mod:`repro.obs`).  Construction goes through the
    :meth:`repro.api.BufferSystem.build` facade (defaults are
    bit-identical to the historical hand wiring, which the golden-trace
    tests pin down).
    """
    from repro.api import BufferSystem

    system = BufferSystem.build(
        policy=policy,
        capacity=capacity,
        disk=index.pagefile.disk,
        trace=observer,
    )
    run_queries(system.buffer, index, query_set, after_query)
    return system.buffer


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


def pin_top_levels(
    tree: RStarTree, buffer: FullPageAccessor, levels: int
) -> int:
    """Pre-load and pin the top ``levels`` levels of a tree in a buffer.

    The buffer model of Leutenegger & Lopez (the paper's reference [8]):
    the root and the next ``levels - 1`` directory levels are fetched once
    and pinned, so they never leave the buffer.  Works against any page
    accessor with a ``capacity``.  Returns the number of pinned pages.
    Raises :class:`ValueError` if they would not fit.
    """
    if levels < 1:
        return 0
    if tree.root_id is None:
        return 0
    to_pin = [
        page_id
        for page_id in tree.all_page_ids()
        if tree.pagefile.disk.peek(page_id).level > tree.height - 1 - levels
    ]
    capacity = getattr(buffer, "capacity", None)
    if capacity is not None and len(to_pin) >= capacity:
        raise ValueError(
            f"pinning {len(to_pin)} pages exceeds the {capacity}-frame buffer"
        )
    for page_id in to_pin:
        buffer.fetch(page_id)
        buffer.pin(page_id)
    return len(to_pin)


def gain(lru_accesses: int, policy_accesses: int) -> float:
    """The paper's performance gain: |LRU accesses| / |policy accesses| - 1.

    Positive values mean the policy beats LRU; -0.2 means 20 % more disk
    accesses than LRU.
    """
    if policy_accesses <= 0:
        raise ValueError("policy access count must be positive")
    return lru_accesses / policy_accesses - 1.0


def replay_misses(
    index: SpatialIndex,
    query_set: QuerySet,
    policy: ReplacementPolicy,
    capacity: int,
) -> int:
    """Disk accesses (buffer misses) of one replay against a fresh buffer."""
    return replay(index, query_set, policy, capacity).stats.misses


def compare_policies(
    index: SpatialIndex,
    query_set: QuerySet,
    policies: Mapping[str, PolicyFactory],
    capacity: int,
) -> dict[str, int]:
    """Disk accesses (buffer misses) per policy for one query set.

    Each policy replays the identical query sequence against its own fresh
    buffer, mirroring the paper's cleared-buffer protocol.
    """
    return {
        name: replay_misses(index, query_set, factory(), capacity)
        for name, factory in policies.items()
    }


def gains_vs_lru(
    index: SpatialIndex,
    query_set: QuerySet,
    policies: Mapping[str, PolicyFactory],
    capacity: int,
) -> dict[str, float]:
    """Relative gains of each policy over a plain LRU buffer."""
    lru_misses = replay_misses(index, query_set, LRU(), capacity)
    accesses = compare_policies(index, query_set, policies, capacity)
    return {name: gain(lru_misses, misses) for name, misses in accesses.items()}


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
    #: policy label -> what ``measure`` returned, in replay order.
    counts: dict[object, object]


def run_grid(
    setup,
    policies: Mapping[object, PolicyFactory],
    sets: Sequence[str] | Mapping[str, object],
    fractions: Sequence[float] = (0.047,),
    databases: Sequence[str] | Mapping[str, Database] = ("db1",),
    measure: Callable[..., object] = replay_misses,
) -> list[GridCell]:
    """Database x query set x relative buffer size x policy, in that order.

    The paper's whole evaluation is this loop: every policy of ``policies``
    (the baseline is one of them, ``"LRU"`` first by convention) replays the
    cell's query set against a fresh buffer of ``buffer_capacity(database,
    fraction)`` pages.  ``databases`` are keys of ``setup`` (a
    :class:`~repro.experiments.figures.PaperSetup`) or a ``{label:
    Database}`` mapping; ``sets`` are query-set names, built at
    ``setup.n_queries`` / ``setup.seed``, or a ``{label: workload}`` mapping
    whose values go to ``measure`` as they are (query lists, traces).
    ``measure(index, workload, policy, capacity)`` is the per-replay metric,
    disk accesses unless a study passes its own.  Returns the cells in loop
    order; :func:`grid_rows` turns them into table rows.
    """
    if not isinstance(databases, Mapping):
        databases = {key: setup.database(key) for key in databases}
    if not isinstance(sets, Mapping):
        sets = dict.fromkeys(sets)
    cells: list[GridCell] = []
    for db_key, database in databases.items():
        for set_name, workload in sets.items():
            if workload is None:
                workload = database.query_set(set_name, setup.n_queries, setup.seed)
            for fraction in fractions:
                capacity = buffer_capacity(database, fraction)
                counts = {
                    label: measure(database.tree, workload, factory(), capacity)
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
    ``buffer``) or a policy label, which prints that policy's raw count.
    Each column is the policy's gain over ``base`` (``+12.3%``), or with
    ``ratio`` its count relative to ``base`` (``103.5%``, Figure 6's scale).
    """

    def text(counts: dict, label: object) -> str:
        if ratio:
            return format_ratio(counts[label] / counts[base])
        return format_gain(gain(counts[base], counts[label]))

    return [
        [
            cell.counts[name] if name in cell.counts else getattr(cell, name)
            for name in lead
        ]
        + [text(cell.counts, label) for label in columns]
        for cell in cells
    ]


def lru_gain_rows(
    setup,
    policies: Mapping[object, PolicyFactory],
    sets: Sequence[str] | Mapping[str, object],
    fractions: Sequence[float],
    databases: Sequence[str] | Mapping[str, Database] = ("db1",),
    lead: Sequence[str] = ("db", "set", "buffer"),
) -> list[list[object]]:
    """The commonest table body: :func:`run_grid` with LRU replayed first as
    the baseline, one row per cell with the gain of each policy over it."""
    cells = run_grid(setup, {"LRU": LRU, **policies}, sets, fractions, databases)
    return grid_rows(cells, list(policies), lead)


def append_gain(rows: list[list[object]], column: int = -1) -> list[list[object]]:
    """The "one row per policy" tail: append to every row the gain of its
    ``column`` cell (a count) over the first row's.

    A row whose cell is not a count (a pinned level that does not fit) is
    kept as it is.
    """
    base = rows[0][column]
    return [
        row + [format_gain(gain(base, row[column]))]
        if isinstance(row[column], int)
        else row
        for row in rows
    ]
