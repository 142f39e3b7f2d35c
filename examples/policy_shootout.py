#!/usr/bin/env python3
"""The paper's policies, head to head, across all five query distributions.

Runs the paper's replacement policies — LRU with the FIFO and MRU
baselines, structural LRU variants, LRU-K, the five spatial criteria, SLRU
and ASB —
over one query set per distribution family, and prints a leaderboard of
disk reads plus each policy's worst-case behaviour relative to LRU (the
paper's robustness lens: a policy that sometimes loses to LRU is not
deployable, however well it does elsewhere).

Run:  python examples/policy_shootout.py
"""

from repro import (
    ASB,
    FIFO,
    LRU,
    LRUK,
    LRUP,
    LRUT,
    MRU,
    SLRU,
    BufferManager,
    RStarTree,
    SpatialPolicy,
)
from repro.datasets.places import synthetic_places
from repro.datasets.synthetic import us_mainland_like
from repro.workloads.sets import make_query_set

N_OBJECTS = 30_000
N_QUERIES = 250
BUFFER_FRACTION = 0.047

POLICIES = {
    "LRU": LRU,
    "FIFO": FIFO,
    "MRU": MRU,
    "LRU-T": LRUT,
    "LRU-P": LRUP,
    "LRU-2": lambda: LRUK(k=2),
    "LRU-3": lambda: LRUK(k=3),
    "A": lambda: SpatialPolicy("A"),
    "EA": lambda: SpatialPolicy("EA"),
    "M": lambda: SpatialPolicy("M"),
    "EM": lambda: SpatialPolicy("EM"),
    "EO": lambda: SpatialPolicy("EO"),
    "SLRU 25%": lambda: SLRU(candidate_fraction=0.25),
    "ASB": ASB,
}

QUERY_SETS = ("U-W-100", "ID-W", "S-W-100", "INT-W-100", "IND-W-100")


def main() -> None:
    dataset = us_mainland_like(n_objects=N_OBJECTS, seed=3)
    places = synthetic_places(dataset, count=1_000, seed=4)
    tree = RStarTree()
    tree.bulk_load(dataset.items())
    capacity = max(8, round(BUFFER_FRACTION * tree.stats().page_count))
    print(
        f"database: {len(dataset)} objects, {tree.stats().page_count} pages; "
        f"buffer {capacity} pages; {N_QUERIES} queries per set\n"
    )

    sets = {
        name: make_query_set(name, dataset, places, N_QUERIES, seed=5)
        for name in QUERY_SETS
    }

    reads: dict[str, dict[str, int]] = {}
    for policy_name, factory in POLICIES.items():
        reads[policy_name] = {}
        for set_name, query_set in sets.items():
            buffer = BufferManager(tree.pagefile.disk, capacity, factory())
            for query in query_set:
                with buffer.query_scope():
                    query.run(tree, buffer)
            reads[policy_name][set_name] = buffer.stats.misses

    header = f"{'policy':<10}" + "".join(f"{name:>12}" for name in QUERY_SETS)
    print(header + f"{'worst vs LRU':>14}")
    print("-" * len(header) + "-" * 14)
    lru_row = reads["LRU"]

    def worst_gain(row):
        return min(lru_row[s] / row[s] - 1.0 for s in QUERY_SETS)

    ranked = sorted(
        reads.items(), key=lambda item: sum(item[1].values())
    )
    for policy_name, row in ranked:
        cells = "".join(f"{row[name]:>12}" for name in QUERY_SETS)
        print(f"{policy_name:<10}{cells}{worst_gain(row):>+13.1%}")

    robust = [
        name for name, row in reads.items() if worst_gain(row) >= -0.02
    ]
    print(
        "\npolicies within 2% of LRU in their worst case "
        f"(robust): {', '.join(sorted(robust))}"
    )
    print(
        "note how the pure spatial criteria win several columns but lose "
        "the intensified one,\nwhile ASB stays near the front everywhere — "
        "the paper's core claim."
    )


if __name__ == "__main__":
    main()
