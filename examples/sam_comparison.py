#!/usr/bin/env python3
"""One buffer policy, two spatial access methods.

Section 2.3 of the paper defines the spatial replacement criteria for
generic page entries, not only for the R*-tree it measures on.  This
example runs the same window-query workload over the paper's R*-tree and
the library's contrast index, the grid file (a non-hierarchical directory
over shared buckets), each behind an ASB buffer, and compares structure
sizes and I/O behaviour.

Run:  python examples/sam_comparison.py
"""

from repro import ASB, BufferManager, GridFile, RStarTree
from repro.datasets.synthetic import us_mainland_like
from repro.workloads.distributions import uniform_queries

N_OBJECTS = 4_000
N_QUERIES = 120
BUFFER_PAGES = 24


def main() -> None:
    dataset = us_mainland_like(n_objects=N_OBJECTS, seed=31)
    items = dataset.items()
    queries = uniform_queries(dataset.space, N_QUERIES, ex=100, seed=32)

    print(f"building two indexes over {len(dataset)} objects ...")
    rstar = RStarTree(max_dir_entries=24, max_data_entries=24)
    rstar.bulk_load(items)
    gridfile = GridFile(dataset.space, bucket_capacity=24, max_splits=30)
    for rect, payload in items:
        gridfile.insert(rect, payload)

    indexes = {"R*-tree": rstar, "Grid file": gridfile}

    print(
        f"\n{'index':<10} {'pages':>7} {'dir%':>6} {'height':>7} "
        f"{'page reads':>11} {'hit ratio':>10} {'results':>8}"
    )
    answers = {}
    for name, index in indexes.items():
        stats = index.stats()
        buffer = BufferManager(index.pagefile.disk, BUFFER_PAGES, ASB())
        answers[name] = []
        for query in queries:
            with buffer.query_scope():
                answers[name].append(sorted(query.run(index, buffer)))
        print(
            f"{name:<10} {stats.page_count:>7} "
            f"{stats.directory_fraction:>6.1%} {stats.height:>7} "
            f"{buffer.stats.misses:>11} {buffer.stats.hit_ratio:>10.1%} "
            f"{sum(map(len, answers[name])):>8}"
        )

    assert answers["Grid file"] == answers["R*-tree"]
    print("\nBoth indexes return the same objects for every query.")


if __name__ == "__main__":
    main()
