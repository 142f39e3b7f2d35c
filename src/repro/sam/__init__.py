"""Spatial access methods (SAMs).

The paper evaluates replacement policies on an R*-tree; Section 2.3 only
remarks that page entries could also be quadtree cells or z-values.  This
package provides the paper's index and one contrast:

* :class:`RStarTree` — the paper's index (Beckmann et al. 1990), with
  forced reinsertion, the R* split, deletion, and STR bulk loading;
* :class:`GridFile` — the grid file (Nievergelt et al.), a
  non-hierarchical directory over shared buckets: the contrast index of
  the policy x index x workload matrix and of ``ablation_sams``.

Both indexes build through a :class:`~repro.storage.pagefile.PageFile`
(unaccounted) and answer queries through any page accessor — typically a
:class:`~repro.buffer.manager.BufferManager`, so every page touched during
a query passes through the replacement policy under study.
"""

from repro.sam.base import PageAccessor, SpatialIndex, TreeStats
from repro.sam.gridfile import GridFile
from repro.sam.rstar import RStarTree

__all__ = [
    "PageAccessor",
    "SpatialIndex",
    "TreeStats",
    "RStarTree",
    "GridFile",
]
