"""Per-figure experiment definitions.

One function per figure of the paper's evaluation (Figures 4-9 and 12-14 —
the evaluation has no numbered tables).  Each function runs the experiment
on a :class:`PaperSetup` and returns a :class:`FigureResult` whose rows are
the same series the paper plots; ``to_text()`` renders the table
``python -m repro figure N`` prints.

The setup alone sets the scale: the golden tests run the figures tiny,
``repro figure`` and the shape guards of ``tests/test_paper_claims.py`` at
bench scale (the defaults of :func:`make_setup`), where the paper's
qualitative shapes are visible.  See EXPERIMENTS.md for paper-vs-measured
notes per figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.buffer.policies.asb import ASB
from repro.buffer.policies.lru_k import LRUK
from repro.buffer.policies.lru_p import LRUP
from repro.buffer.policies.slru import SLRU
from repro.buffer.policies.spatial import SpatialPolicy
from repro.datasets.synthetic import us_mainland_like, world_atlas_like
from repro.obs.events import TraceRecorder
from repro.obs.trace import replay_requests
from repro.obs.windows import WindowedMetrics
from repro.experiments.harness import (
    Database,
    PolicyFactory,
    buffer_capacity,
    build_database,
    grid_rows,
    lru_gain_rows,
    run_grid,
)
from repro.experiments.report import format_table


@dataclass(slots=True)
class FigureResult:
    """The regenerated data of one paper figure."""

    figure: str
    title: str
    headers: list[str]
    rows: list[list[object]]
    notes: str = ""
    #: Extra payload for series-style figures (Figure 14's trace).
    series: dict[str, list[float]] = field(default_factory=dict)

    def to_text(self) -> str:
        parts = [f"{self.figure}: {self.title}"]
        if self.notes:
            parts.append(self.notes)
        parts.append(format_table(self.headers, self.rows))
        return "\n".join(parts)


@dataclass(slots=True)
class PaperSetup:
    """Both databases of the paper plus shared experiment parameters."""

    db1: Database
    db2: Database
    n_queries: int
    seed: int

    def database(self, key: str) -> Database:
        if key == "db1":
            return self.db1
        if key == "db2":
            return self.db2
        raise KeyError(f"unknown database {key!r}")


def make_setup(
    n_objects_db1: int = 40_000,
    n_objects_db2: int = 30_000,
    n_places: int = 1_200,
    n_queries: int = 300,
    seed: int = 7,
) -> PaperSetup:
    """Build both databases at the requested scale.

    Defaults are bench scale (~1/40 of the paper's databases); the paper's
    relative-buffer-size protocol makes the results comparable across
    scales.
    """
    db1 = build_database(
        us_mainland_like(n_objects=n_objects_db1, seed=seed), n_places=n_places
    )
    db2 = build_database(
        world_atlas_like(n_objects=n_objects_db2, seed=seed + 1),
        n_places=n_places,
    )
    return PaperSetup(db1=db1, db2=db2, n_queries=n_queries, seed=seed)


# ----------------------------------------------------------------------
# Query-set vocabularies per figure
# ----------------------------------------------------------------------

UNIFORM_SETS = ("U-P", "U-W-1000", "U-W-333", "U-W-100", "U-W-33")
IDENTICAL_SIMILAR_SETS = ("ID-P", "ID-W", "S-P", "S-W-333", "S-W-100", "S-W-33")
INDEPENDENT_INTENSIFIED_SETS = (
    "IND-P",
    "IND-W-100",
    "IND-W-33",
    "INT-P",
    "INT-W-100",
    "INT-W-33",
)
ALL_DISTRIBUTION_SETS = (
    "U-P",
    "U-W-100",
    "U-W-33",
    "ID-P",
    "ID-W",
    "S-P",
    "S-W-100",
    "INT-P",
    "INT-W-100",
    "IND-P",
    "IND-W-100",
)


def _gain_figure(
    setup: PaperSetup,
    figure: str,
    title: str,
    policies: dict[str, PolicyFactory],
    sets: tuple[str, ...],
    fractions: tuple[float, ...],
    headers: list[str] | None = None,
) -> FigureResult:
    """Gains of ``policies`` over LRU on both databases, one row per cell."""
    return FigureResult(
        figure=figure,
        title=title,
        headers=["database", "query set", "buffer"] + (headers or list(policies)),
        rows=lru_gain_rows(setup, policies, sets, fractions, ("db1", "db2")),
    )


# ----------------------------------------------------------------------
# Figure 4 — LRU-P vs LRU
# ----------------------------------------------------------------------

def figure_04(setup: PaperSetup) -> FigureResult:
    """Performance gain of LRU-P compared to LRU, both databases.

    Paper shape: largest gains for small buffers and medium window sizes;
    about zero (sometimes negative) for large buffers with point or small
    window queries on database 1.
    """
    sets = UNIFORM_SETS + ("INT-P", "INT-W-333", "INT-W-100", "INT-W-33")
    fractions = (0.006, 0.012, 0.023, 0.047)
    return _gain_figure(
        setup,
        "Figure 4",
        "Performance gain of LRU-P compared to LRU",
        {"LRU-P": LRUP},
        sets,
        fractions,
        headers=["gain(LRU-P)"],
    )


# ----------------------------------------------------------------------
# Figure 5 — LRU-K vs LRU
# ----------------------------------------------------------------------

def figure_05(setup: PaperSetup) -> FigureResult:
    """Performance gain of LRU-2/3/5 compared to LRU, database 1.

    Paper shape: 15-25 % gains for point and small/medium window queries,
    about zero for large windows, and no significant difference between
    K = 2, 3 and 5.
    """
    sets = (
        "U-P",
        "U-W-1000",
        "U-W-333",
        "U-W-100",
        "U-W-33",
        "ID-P",
        "ID-W",
        "S-P",
        "S-W-100",
        "INT-P",
        "INT-W-100",
        "IND-P",
        "IND-W-100",
    )
    fractions = (0.012, 0.047)
    ks = (2, 3, 5)
    policies = {f"LRU-{k}": (lambda kk=k: LRUK(k=kk)) for k in ks}
    return FigureResult(
        figure="Figure 5",
        title="Performance gain using LRU-K compared to LRU (database 1)",
        headers=["query set", "buffer"] + [f"gain(LRU-{k})" for k in ks],
        rows=lru_gain_rows(setup, policies, sets, fractions, lead=("set", "buffer")),
    )


# ----------------------------------------------------------------------
# Figure 6 — the five spatial criteria against each other
# ----------------------------------------------------------------------

def figure_06(setup: PaperSetup) -> FigureResult:
    """Relative disk accesses of A/EA/M/EM/EO with A as the 100 % baseline.

    Paper shape: A best for the 0.3 % buffer, EO worst; with the 4.7 %
    buffer A and M roughly tie while EA, EM and EO fall behind.
    """
    sets = ("U-W-333", "U-W-100", "S-W-100", "ID-W", "S-W-33")
    criteria = ("A", "EA", "M", "EM", "EO")
    fractions = (0.003, 0.047)
    policies = {
        crit: (lambda c=crit: SpatialPolicy(criterion=c)) for crit in criteria
    }
    # Buffer size is the outer loop here (the paper groups by buffer).
    cells = [
        cell
        for fraction in fractions
        for cell in run_grid(setup, policies, sets, (fraction,))
    ]
    return FigureResult(
        figure="Figure 6",
        title="Disk accesses of the spatial criteria relative to A (=100%)",
        headers=["query set", "buffer"] + list(criteria),
        rows=grid_rows(cells, criteria, ("set", "buffer"), base="A", ratio=True),
    )


# ----------------------------------------------------------------------
# Figures 7-9 — LRU-P vs A vs LRU-2, per distribution family
# ----------------------------------------------------------------------

_COMPARISON_POLICIES = {
    "LRU-P": LRUP,
    "A": lambda: SpatialPolicy(criterion="A"),
    "LRU-2": lambda: LRUK(k=2),
}
_COMPARISON_FRACTIONS = (0.006, 0.047)


def figure_07(setup: PaperSetup) -> FigureResult:
    """Uniform distribution: the spatial strategy wins, LRU-P is worst."""
    return _gain_figure(
        setup,
        "Figure 7",
        "Performance gain for the uniform distribution",
        _COMPARISON_POLICIES,
        UNIFORM_SETS,
        _COMPARISON_FRACTIONS,
    )


def figure_08(setup: PaperSetup) -> FigureResult:
    """Identical/similar: A mostly >= LRU-2, with collapses for big windows."""
    return _gain_figure(
        setup,
        "Figure 8",
        "Performance gain for the identical and similar distributions",
        _COMPARISON_POLICIES,
        IDENTICAL_SIMILAR_SETS,
        _COMPARISON_FRACTIONS,
    )


def figure_09(setup: PaperSetup) -> FigureResult:
    """Independent/intensified: A collapses (db2 water, hot small pages)."""
    return _gain_figure(
        setup,
        "Figure 9",
        "Performance gain for the independent and intensified distributions",
        _COMPARISON_POLICIES,
        INDEPENDENT_INTENSIFIED_SETS,
        _COMPARISON_FRACTIONS,
    )


# ----------------------------------------------------------------------
# Figure 12 — static candidate sets (SLRU)
# ----------------------------------------------------------------------

def figure_12(setup: PaperSetup) -> FigureResult:
    """A vs SLRU 50 % vs SLRU 25 %: the combination shifts A towards LRU.

    Paper shape: where A gains a lot, SLRU gains less; where A loses, SLRU
    turns the loss into a (slight) gain — more so for the 25 % set.
    """
    sets = (
        "U-W-100",
        "U-W-33",
        "S-W-100",
        "ID-W",
        "INT-P",
        "INT-W-100",
        "IND-W-100",
    )
    policies = {
        "A": lambda: SpatialPolicy(criterion="A"),
        "SLRU 50%": lambda: SLRU(candidate_fraction=0.50),
        "SLRU 25%": lambda: SLRU(candidate_fraction=0.25),
    }
    return _gain_figure(
        setup,
        "Figure 12",
        "Performance gains using a candidate set of static size",
        policies,
        sets,
        (0.023,),
    )


# ----------------------------------------------------------------------
# Figure 13 — the headline comparison: A, SLRU, ASB, LRU-2 vs LRU
# ----------------------------------------------------------------------

def figure_13(setup: PaperSetup) -> FigureResult:
    """The paper's central result.

    Paper shape: ASB tracks A where A excels, avoids A's losses elsewhere,
    and achieves a gain over LRU for *every* query set (robustness); LRU-2
    still wins some sets, but at the cost of unbounded history memory.
    """
    policies = {
        "A": lambda: SpatialPolicy(criterion="A"),
        "SLRU": lambda: SLRU(candidate_fraction=0.25),
        "ASB": ASB,
        "LRU-2": lambda: LRUK(k=2),
    }
    return _gain_figure(
        setup,
        "Figure 13",
        "Performance gains of A, SLRU, ASB and LRU-2 compared to LRU",
        policies,
        ALL_DISTRIBUTION_SETS,
        (0.047,),
    )


# ----------------------------------------------------------------------
# Figure 14 — the ASB adaptation trace on a mixed query set
# ----------------------------------------------------------------------

def figure_14(setup: PaperSetup) -> FigureResult:
    """Candidate-set size of ASB over INT-W-33, then U-W-33, then S-W-33.

    Paper shape: the size drops during the intensified phase (LRU
    dominates), rises sharply during the uniform phase (spatial dominates),
    and settles in between during the similar phase.
    """
    database = setup.db1
    # Twice the usual queries per phase, so each phase is long enough for
    # the knob to settle.  Each phase's query indices are shifted past the
    # previous phase's, so the joined string keeps one index per query.
    count = 2 * setup.n_queries
    phases = ("INT-W-33", "U-W-33", "S-W-33")
    references = [
        (page_id, offset * count + query)
        for offset, name in enumerate(phases)
        for page_id, query in database.trace(name, count, setup.seed).references
    ]
    capacity = buffer_capacity(database, 0.047)
    policy = ASB()
    recorder = TraceRecorder(kinds=("fetch", "hit", "miss", "adapt"))
    replay_requests(
        database.tree.pagefile.disk, references, policy, capacity, recorder
    )
    # The event stream carries both the knob (``adapt.size``) and the
    # rolling hit ratio; each is sampled where a query ends, i.e. where a
    # fetch of the next query starts, and once after the last.  Figure
    # 14's story ("the knob follows the phase changes") becomes visible as
    # adapt events moving the hit ratio.
    adaptations = [event for event in recorder.events if event.kind == "adapt"]
    size = (
        adaptations[0].size - adaptations[0].delta
        if adaptations
        else policy.candidate_size
    )
    metrics = WindowedMetrics(window=max(64, capacity))
    sizes: list[float] = []
    hit_ratios: list[float] = []

    def sample() -> None:
        sizes.append(float(size))
        hit_ratios.append(metrics.rolling.ratio)

    query = None
    for event in recorder.events:
        if event.kind == "fetch" and event.query != query:
            if query is not None:
                sample()
            query = event.query
        elif event.kind == "adapt":
            size = event.size
        metrics.emit(event)
    if query is not None:
        sample()
    rows: list[list[object]] = []
    for index, phase in enumerate(phases):
        phase_sizes = sizes[index * count : (index + 1) * count]
        # The tail average describes the level the knob settles at.
        tail = phase_sizes[len(phase_sizes) // 2 :] or phase_sizes
        rows.append(
            [
                phase,
                f"{min(phase_sizes):.0f}",
                f"{sum(tail) / len(tail):.1f}",
                f"{max(phase_sizes):.0f}",
            ]
        )
    return FigureResult(
        figure="Figure 14",
        title="Size of the candidate set using ASB for a mixed query set",
        headers=["phase", "min size", "settled avg", "max size"],
        rows=rows,
        notes=(
            f"buffer = {capacity} pages, main part = {policy.main_capacity}, "
            f"overflow = {policy.overflow_capacity}, "
            f"{len(adaptations)} adaptation events"
        ),
        series={
            "candidate_size": sizes,
            "rolling_hit_ratio": hit_ratios,
            "adaptation_clock": [float(event.clock) for event in adaptations],
        },
    )


#: Registry behind ``repro figure``, ``repro reproduce`` and the golden tables.
ALL_FIGURES = {
    "figure_04": figure_04,
    "figure_05": figure_05,
    "figure_06": figure_06,
    "figure_07": figure_07,
    "figure_08": figure_08,
    "figure_09": figure_09,
    "figure_12": figure_12,
    "figure_13": figure_13,
    "figure_14": figure_14,
}
