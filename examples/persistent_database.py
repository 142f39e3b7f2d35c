#!/usr/bin/env python3
"""A persistent spatial database: build once, save, reopen, query.

Demonstrates the storage side of the library beyond simulation:

1. build an R*-tree over a synthetic map in memory,
2. save it with the binary page format (checksummed fixed-size slots + JSON
   sidecar),
3. reopen the file as a read-only database,
4. serve buffered queries from the file-backed pages — every miss is now a
   real ``seek`` + ``read`` on the file,
5. reopen mutably (pages materialised) and apply updates.

Run:  python examples/persistent_database.py
"""

import os
import tempfile

from repro import ASB, BufferManager, Rect, RStarTree
from repro.datasets.synthetic import us_mainland_like
from repro.storage.serialization import load_tree, save_tree
from repro.workloads.distributions import uniform_queries

N_OBJECTS = 15_000
BUFFER_PAGES = 48


def main() -> None:
    dataset = us_mainland_like(n_objects=N_OBJECTS, seed=41)
    tree = RStarTree()
    tree.bulk_load(dataset.items())
    stats = tree.stats()
    print(
        f"built: {stats.page_count} pages, height {stats.height}, "
        f"{stats.entry_count} objects"
    )

    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "map.db")

        # 2. Save: binary pages + metadata sidecar.
        save_tree(tree, path)
        size_kb = os.path.getsize(path) / 1024
        print(f"saved to {path}: {size_kb:.0f} KiB "
              f"(+ {os.path.getsize(path + '.json')} B sidecar)")

        # 3./4. Reopen read-only and serve buffered queries from the file.
        database = load_tree(path)
        try:
            buffer = BufferManager(database.pagefile.disk, BUFFER_PAGES, ASB())
            queries = uniform_queries(dataset.space, 120, ex=100, seed=42)
            results = 0
            for query in queries:
                with buffer.query_scope():
                    results += len(query.run(database, buffer))
            disk = database.pagefile.disk
            print(
                f"served {len(queries)} queries from the file: "
                f"{results} objects, {buffer.stats.misses} page reads "
                f"({disk.stats.sequential_reads} sequential), "
                f"hit ratio {buffer.stats.hit_ratio:.1%}"
            )

            # Cross-check against the in-memory original.
            sample = Rect(0.45, 0.45, 0.55, 0.55)
            assert sorted(database.window_query(sample)) == sorted(
                tree.window_query(sample)
            )
            print("file-backed results match the in-memory tree")
        finally:
            database.pagefile.disk.close()

        # 5. Mutable reopen: materialise and update.
        mutable = load_tree(path, mutable=True)
        mutable.insert(Rect(0.001, 0.001, 0.002, 0.002), 999_999)
        mutable.validate()
        print(
            f"mutable reopen: inserted one object, now "
            f"{mutable.entry_count} objects, structure verified"
        )


if __name__ == "__main__":
    main()
