"""Synthetic spatial datasets.

The paper uses two real databases (USGS GNIS features of the US mainland
and the line/area features of a world atlas) plus a populated-places file.
Those files are not redistributable, so this package generates seeded
synthetic stand-ins that reproduce the *structural* properties the
replacement-policy experiments depend on — see DESIGN.md, Section 2, for
the substitution argument.
"""

from repro.datasets.places import Place, synthetic_places
from repro.datasets.synthetic import (
    PAPER_DB1_OBJECTS,
    Cluster,
    Dataset,
    DatasetStream,
    us_mainland_like,
    us_mainland_like_stream,
    world_atlas_like,
)
from repro.datasets.stats import DatasetStats, describe

__all__ = [
    "Cluster",
    "Dataset",
    "DatasetStream",
    "PAPER_DB1_OBJECTS",
    "us_mainland_like",
    "us_mainland_like_stream",
    "world_atlas_like",
    "Place",
    "synthetic_places",
    "DatasetStats",
    "describe",
]
