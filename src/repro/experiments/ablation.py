"""The study ablations: paper future work and design questions as tables.

Each ``ablation_*`` function takes a :class:`~repro.experiments.figures.PaperSetup`
and returns a :class:`~repro.experiments.figures.FigureResult`, exactly like
the paper figures; :mod:`repro.experiments.suite` registers them, and
``python -m repro figure <name>`` prints any one of them.
"""

from __future__ import annotations

from repro.buffer.manager import BufferManager
from repro.buffer.policies.asb import ASB
from repro.buffer.policies.lru import LRU
from repro.buffer.policies.lru_k import LRUK
from repro.buffer.policies.lru_p import LRUP
from repro.buffer.policies.spatial import SpatialPolicy
from repro.datasets.synthetic import us_mainland_like
from repro.experiments.figures import FigureResult, PaperSetup
from repro.experiments.harness import (
    FOUR_POLICIES,
    Database,
    append_gain,
    buffer_capacity,
    grid_rows,
    lru_gain_rows,
    replay_mixed,
    run_grid,
)
from repro.obs.trace import replay_requests
from repro.sam.gridfile import GridFile
from repro.sam.rstar import RStarTree
from repro.storage.objects import build_tree_with_objects
from repro.workloads.sets import make_query_set


#: Sets probing both regimes: one where the spatial criterion helps and one
#: where it hurts.
ABLATION_SETS = ("U-W-100", "S-W-100", "INT-W-100")


def ablation_overflow_size(
    setup: PaperSetup,
    overflow_fractions: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4),
    buffer_fraction: float = 0.047,
) -> FigureResult:
    """How big should the overflow buffer be?  (Paper future work #1.)

    Overflow fraction 0 degenerates to static SLRU (no adaptation signal);
    very large fractions starve the main part.  The paper fixes 20 %.
    """
    capacity = buffer_capacity(setup.db1, buffer_fraction)
    policies = {
        fraction: (lambda f=fraction: ASB(overflow_fraction=f))
        for fraction in overflow_fractions
    }
    return FigureResult(
        figure="Ablation overflow-size",
        title="ASB gain vs LRU for different overflow-buffer fractions",
        headers=["query set"]
        + [f"{int(f * 100)}%" for f in overflow_fractions],
        rows=lru_gain_rows(
            setup, policies, ABLATION_SETS, (buffer_fraction,), lead=("set",)
        ),
        notes=f"buffer = {capacity} pages ({buffer_fraction:.1%} of the tree)",
    )


def ablation_step_size(
    setup: PaperSetup,
    step_fractions: tuple[float, ...] = (0.005, 0.01, 0.05, 0.2),
    buffer_fraction: float = 0.047,
) -> FigureResult:
    """Sensitivity of ASB to the adaptation step (paper: 1 % of the main part)."""
    capacity = buffer_capacity(setup.db1, buffer_fraction)
    policies = {
        step: (lambda s=step: ASB(step_fraction=s)) for step in step_fractions
    }
    return FigureResult(
        figure="Ablation step-size",
        title="ASB gain vs LRU for different adaptation step sizes",
        headers=["query set"] + [f"{step:.1%}" for step in step_fractions],
        rows=lru_gain_rows(
            setup, policies, ABLATION_SETS, (buffer_fraction,), lead=("set",)
        ),
        notes=f"buffer = {capacity} pages",
    )


def ablation_sams(
    setup: PaperSetup,
    buffer_fraction: float = 0.047,
) -> FigureResult:
    """The policies on a non-hierarchical index (Section 2.3's claim).

    The spatial criteria are defined for generic page entries, so they
    also rank a grid file's directory stripes and buckets.  This ablation
    indexes database 1's objects with a grid file and repeats the
    A / LRU-2 / ASB comparison on it.
    """
    dataset = setup.db1.dataset
    gridfile = GridFile(dataset.space, bucket_capacity=42, max_splits=32)
    for rect, payload in dataset.items():
        gridfile.insert(rect, payload)
    cells = run_grid(
        setup,
        FOUR_POLICIES,
        ABLATION_SETS,
        (buffer_fraction,),
        databases={"gridfile": Database(dataset, gridfile, setup.db1.places)},
    )
    return FigureResult(
        figure="Ablation SAMs",
        title="Policy gains vs LRU on a grid file (a non-R-tree SAM)",
        headers=["index", "query set", "A", "LRU-2", "ASB"],
        rows=grid_rows(cells, ("A", "LRU-2", "ASB"), lead=("db", "set")),
    )


def ablation_object_pages(
    setup: PaperSetup,
    buffer_fraction: float = 0.047,
    n_objects: int = 12_000,
) -> FigureResult:
    """All three page categories in one buffer (Section 2.1's full setting).

    The paper stores object pages in separate files and buffers and
    reports only tree accesses; this ablation runs the window queries with
    ``fetch_objects=True`` against a single shared buffer, so directory,
    data and object pages compete for frames — the setting LRU-T was
    designed for (drop object pages first, keep directory pages longest).
    """
    from repro.buffer.policies.lru_t import LRUT

    dataset = us_mainland_like(n_objects=n_objects, seed=setup.seed + 6)
    tree, store = build_tree_with_objects(
        dataset, lambda pagefile: RStarTree(pagefile=pagefile)
    )
    windows = [
        query.region
        for query in make_query_set(
            "S-W-100", dataset, setup.db1.places, setup.n_queries, setup.seed
        )
    ]

    def misses(manager: BufferManager) -> int:
        for window in windows:
            with manager.query_scope():
                tree.window_query(window, manager, fetch_objects=True)
        return manager.stats.misses

    total_pages = tree.stats().page_count + store.page_count
    capacity = max(8, round(buffer_fraction * total_pages))
    policies = {
        "LRU": LRU,
        "LRU-T": LRUT,
        "LRU-P": LRUP,
        "LRU-2": lambda: LRUK(k=2),
        "A": lambda: SpatialPolicy("A"),
        "ASB": ASB,
    }
    return FigureResult(
        figure="Ablation object-pages",
        title="Three page categories (directory/data/object) in one buffer",
        headers=["policy", "reads", "gain vs LRU"],
        rows=append_gain(
            [
                [name, misses(BufferManager(tree.pagefile.disk, capacity, factory()))]
                for name, factory in policies.items()
            ]
        ),
        notes=(
            f"{tree.stats().page_count} tree pages + {store.page_count} "
            f"object pages; buffer = {capacity} pages; S-W-100 with "
            "fetch_objects=True"
        ),
    )


def ablation_updates(
    setup: PaperSetup,
    n_updates: int = 600,
    n_queries: int = 300,
    buffer_fraction: float = 0.047,
    moving: bool = False,
) -> FigureResult:
    """Updates and moving objects through the buffer (future work #2/#3).

    Builds a fresh tree per policy (updates mutate it), replays an
    interleaved stream of window queries and index updates, and reports
    disk reads, write-backs and the total-access gain over LRU.  With
    ``moving=True`` the update half is a pure moving-objects stream.
    """
    from repro.workloads.updates import (
        interleave,
        moving_objects_stream,
        update_stream,
    )

    dataset = us_mainland_like(n_objects=12_000, seed=setup.seed + 5)
    queries = list(
        make_query_set("S-W-100", dataset, setup.db1.places, n_queries, setup.seed)
    )
    if moving:
        updates = moving_objects_stream(dataset, n_updates, seed=setup.seed)
    else:
        updates = update_stream(dataset, n_updates, seed=setup.seed)
    stream = interleave(queries, updates, seed=setup.seed)
    rows: list[list[object]] = []
    capacity = 0
    for name, factory in FOUR_POLICIES.items():
        tree = RStarTree()
        tree.bulk_load(dataset.items())
        capacity = max(8, round(buffer_fraction * tree.stats().page_count))
        stats = replay_mixed(tree, stream, factory(), capacity).stats
        rows.append(
            [name, stats.misses, stats.writebacks, stats.misses + stats.writebacks]
        )
    kind = "moving objects" if moving else "inserts/deletes/moves"
    return FigureResult(
        figure="Ablation updates" + ("-moving" if moving else ""),
        title=f"Queries interleaved with {kind}, through the buffer",
        headers=["policy", "reads", "writebacks", "total", "gain vs LRU"],
        rows=append_gain(rows),
        notes=(
            f"{n_queries} S-W-100 queries + {n_updates} updates, "
            f"buffer = {capacity} pages"
        ),
    )


def ablation_opt_gap(
    setup: PaperSetup,
    buffer_fraction: float = 0.047,
    sets: tuple[str, ...] = ("U-W-100", "S-W-100", "INT-W-100"),
) -> FigureResult:
    """How far from Belady's optimum does each policy land?

    Records each query set's reference trace once, computes the offline
    OPT miss count, and reports every policy's misses as a percentage
    above OPT.  The gap shows the remaining headroom: where even OPT
    barely beats LRU, no replacement cleverness can pay off.
    """
    from repro.experiments.analysis import opt_misses

    database = setup.db1
    capacity = buffer_capacity(database, buffer_fraction)
    cells = run_grid(setup, FOUR_POLICIES, sets, (buffer_fraction,))
    rows: list[list[object]] = []
    for cell in cells:
        trace = database.trace(cell.set, setup.n_queries, setup.seed)
        optimum = opt_misses(trace, capacity)
        gaps = [
            f"+{(misses / optimum - 1) * 100:.1f}%" for misses in cell.counts.values()
        ]
        rows.append([cell.set, optimum] + gaps)
    return FigureResult(
        figure="Ablation opt-gap",
        title="Distance from Belady's offline optimum (misses above OPT)",
        headers=["query set", "OPT misses"] + list(FOUR_POLICIES),
        rows=rows,
        notes=f"database 1, buffer = {capacity} pages",
    )


def ablation_io_time(
    setup: PaperSetup,
    buffer_fraction: float = 0.047,
) -> FigureResult:
    """Random vs sequential I/O (paper future work #1, second half).

    The simulated disk charges a full seek for a random access and only
    the transfer time for a physically adjacent one.  Policies that evict
    structurally close pages together preserve more sequentiality, so the
    time ranking can differ from the pure access-count ranking.
    """
    database = setup.db1
    disk = database.tree.pagefile.disk
    stats = disk.stats
    capacity = buffer_capacity(database, buffer_fraction)
    rows: list[list[object]] = []
    for set_name in ABLATION_SETS:
        trace = database.trace(set_name, setup.n_queries, setup.seed)
        for name, factory in FOUR_POLICIES.items():
            reads_before = stats.reads
            sequential_before = stats.sequential_reads
            elapsed_before = stats.elapsed_ms
            replay_requests(disk, trace.references, factory(), capacity)
            reads = stats.reads - reads_before
            sequential = stats.sequential_reads - sequential_before
            elapsed = stats.elapsed_ms - elapsed_before
            rows.append(
                [
                    set_name,
                    name,
                    reads,
                    f"{sequential / reads:.1%}" if reads else "n/a",
                    f"{elapsed:.0f} ms",
                ]
            )
    return FigureResult(
        figure="Ablation io-time",
        title="Access counts vs simulated I/O time (random 10 ms, seq. 1 ms)",
        headers=["query set", "policy", "reads", "sequential", "sim. time"],
        rows=rows,
    )
