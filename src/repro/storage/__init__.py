"""Storage substrate: pages, a simulated disk, and page files.

The paper measures the number of disk accesses needed to evaluate spatial
queries under different buffer-replacement policies.  This package provides
the measured substrate: self-describing pages (type, tree level, MBRs — the
metadata the structural and spatial policies consume), a simulated disk that
counts read/write accesses and can model access latency and inject failures,
and a page file that handles allocation on top of the disk.
"""

from repro.storage.disk import DelayedDisk, DiskError, DiskStats, SimulatedDisk
from repro.storage.objects import ObjectStore, build_tree_with_objects
from repro.storage.page import Page, PageEntry, PageId, PageType, seed_page
from repro.storage.pagefile import PageFile
from repro.storage.serialization import (
    FileDisk,
    decode_page,
    encode_page,
    load_tree,
    read_page,
    save_tree,
)

__all__ = [
    "DelayedDisk",
    "DiskError",
    "DiskStats",
    "SimulatedDisk",
    "Page",
    "PageEntry",
    "PageId",
    "PageType",
    "seed_page",
    "PageFile",
    "ObjectStore",
    "build_tree_with_objects",
    "FileDisk",
    "encode_page",
    "decode_page",
    "read_page",
    "save_tree",
    "load_tree",
]
