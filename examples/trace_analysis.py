#!/usr/bin/env python3
"""Trace-driven analysis: miss-ratio curves, OPT, and access profiles.

Records the page-reference trace of one workload, then analyses it with
the classic buffer-study toolkit:

1. a **trace profile** — per page-type/level reference intensity, the
   quantitative basis of type-based replacement (paper Section 2.1);
2. the exact **LRU miss-ratio curve** for every buffer size at once
   (Mattson stack-distance analysis) rendered as an ASCII chart;
3. **Belady's OPT** at selected sizes, showing how much headroom the
   online policies leave on this workload.

Run:  python examples/trace_analysis.py
"""

from repro import ASB, LRU, LRUK, RStarTree, SpatialPolicy
from repro.datasets.places import synthetic_places
from repro.datasets.synthetic import us_mainland_like
from repro.experiments.analysis import (
    lru_miss_curve,
    opt_misses,
    profile_trace,
)
from repro.experiments.plots import line_chart
from repro.obs.trace import record_trace, replay_requests
from repro.workloads.sets import make_query_set

N_OBJECTS = 25_000
N_QUERIES = 250
SET_NAME = "S-W-100"


def main() -> None:
    dataset = us_mainland_like(n_objects=N_OBJECTS, seed=17)
    places = synthetic_places(dataset, count=1_000, seed=18)
    tree = RStarTree()
    tree.bulk_load(dataset.items())
    queries = make_query_set(SET_NAME, dataset, places, N_QUERIES, seed=19)

    print(f"recording the trace of {N_QUERIES} {SET_NAME} queries ...")
    trace = record_trace(tree, queries)
    print(f"{len(trace)} references, {trace.distinct_pages} distinct pages\n")

    # 1. Who gets referenced how often?
    print(profile_trace(trace, tree.pagefile.disk).to_text())

    # 2. The full LRU miss-ratio curve from one stack simulation.
    max_capacity = min(trace.distinct_pages, 300)
    curve = lru_miss_curve(trace, max_capacity)
    ratios = [misses / len(trace) for misses in curve]
    print(f"\nLRU miss ratio vs buffer size (1..{max_capacity} pages):\n")
    print(line_chart(ratios, width=64, height=10, label="buffer size ->"))

    # 3. The OPT gap at a paper-style buffer size.
    capacity = max(8, round(0.047 * len(tree.all_page_ids())))
    optimum = opt_misses(trace, capacity)
    print(f"\nat {capacity} pages (4.7% of the tree):")
    print(f"{'policy':<8} {'misses':>7} {'above OPT':>10}")
    print(f"{'OPT':<8} {optimum:>7} {'--':>10}")
    disk = tree.pagefile.disk
    for name, factory in {
        "LRU": LRU,
        "LRU-2": lambda: LRUK(k=2),
        "A": lambda: SpatialPolicy("A"),
        "ASB": ASB,
    }.items():
        misses = replay_requests(
            disk, trace.references, factory(), capacity
        ).stats.misses
        print(f"{name:<8} {misses:>7} {misses / optimum - 1:>+9.1%}")

    print(
        "\nThe curve's knee shows where extra buffer stops paying; the OPT "
        "column shows how\nmuch of the remaining gap any replacement policy "
        "could still close."
    )


if __name__ == "__main__":
    main()
