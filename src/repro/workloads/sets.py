"""Named query sets, matching the paper's nomenclature.

Set names follow Section 3.1 exactly: ``U-P``, ``U-W-33``, ``ID-P``,
``ID-W``, ``S-P``, ``S-W-100``, ``INT-P``, ``INT-W-333``, ``IND-P``,
``IND-W-1000`` and so on, with ``ex`` in {33, 100, 333, 1000}.  A
:class:`QuerySet` carries its queries together with the name, so experiment
reports can label their rows like the paper's figures.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterator

from repro.datasets.places import Place
from repro.datasets.synthetic import Dataset
from repro.workloads.distributions import (
    identical_queries,
    independent_queries,
    intensified_queries,
    similar_queries,
    uniform_queries,
)
from repro.workloads.queries import Query

#: Window extent classes used in the paper's experiments.
EX_VALUES = (33, 100, 333, 1000)

#: The distribution prefixes of Section 3.1.
DISTRIBUTIONS = ("U", "ID", "S", "INT", "IND")

#: All set names appearing in the paper: point sets plus windows per ex.
#: The identical distribution has a single window set (object sizes are
#: maintained, so there is no ex parameter).
QUERY_SET_NAMES = tuple(
    [f"{dist}-P" for dist in DISTRIBUTIONS]
    + ["ID-W"]
    + [
        f"{dist}-W-{ex}"
        for dist in ("U", "S", "INT", "IND")
        for ex in EX_VALUES
    ]
)


@dataclass(frozen=True, slots=True)
class QuerySet:
    """A named, ordered sequence of queries."""

    name: str
    queries: tuple[Query, ...]

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self) -> Iterator[Query]:
        return iter(self.queries)


def parse_set_name(name: str) -> tuple[str, bool, int | None]:
    """Split a set name into (distribution, is_window, ex).

    >>> parse_set_name("INT-W-33")
    ('INT', True, 33)
    >>> parse_set_name("U-P")
    ('U', False, None)
    """
    parts = name.split("-")
    if len(parts) < 2 or parts[0] not in DISTRIBUTIONS:
        raise ValueError(f"malformed query-set name {name!r}")
    if parts[1] == "P" and len(parts) == 2:
        return parts[0], False, None
    if parts[1] == "W" and len(parts) == 2 and parts[0] == "ID":
        return parts[0], True, None
    if parts[1] == "W" and len(parts) == 3:
        try:
            ex = int(parts[2])
        except ValueError:
            raise ValueError(f"malformed query-set name {name!r}") from None
        if ex < 1:
            raise ValueError(f"ex must be positive in {name!r}")
        return parts[0], True, ex
    raise ValueError(f"malformed query-set name {name!r}")


def make_query_set(
    name: str,
    dataset: Dataset,
    places: list[Place] | None,
    count: int,
    seed: int = 0,
) -> QuerySet:
    """Build the named query set with ``count`` queries.

    ``places`` is required for the S/INT/IND families (they sample the
    places file); U and ID work from the dataset alone.  The seed is mixed
    with the set name so different sets of one experiment are independent.
    """
    distribution, is_window, ex = parse_set_name(name)
    # zlib.crc32 is stable across processes (str.__hash__ is randomised).
    mixed_seed = (seed * 1_000_003 + zlib.crc32(name.encode("utf-8"))) & 0x7FFFFFFF
    space = dataset.space
    if distribution == "U":
        queries = uniform_queries(space, count, ex, mixed_seed)
    elif distribution == "ID":
        queries = identical_queries(dataset, count, is_window, mixed_seed)
    else:
        if places is None:
            raise ValueError(f"query set {name!r} needs a places file")
        if distribution == "S":
            queries = similar_queries(places, space, count, ex, mixed_seed)
        elif distribution == "INT":
            queries = intensified_queries(places, space, count, ex, mixed_seed)
        else:  # IND
            queries = independent_queries(places, space, count, ex, mixed_seed)
    return QuerySet(name=name, queries=tuple(queries))
