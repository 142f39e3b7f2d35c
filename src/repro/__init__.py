"""repro — spatial-database buffer management.

A faithful, self-contained reproduction of

    Thomas Brinkhoff: "A Robust and Self-Tuning Page-Replacement Strategy
    for Spatial Database Systems", EDBT 2002, LNCS 2287, pp. 533-552.

The library provides the full stack the paper's experiments need: geometry,
a page/disk storage substrate with access accounting, spatial access
methods (the paper's R*-tree and a grid file), a buffer
manager with the paper's policies (LRU, LRU-T, LRU-P, LRU-K, the spatial
criteria A/EA/M/EM/EO, SLRU and the self-tuning ASB, beside the FIFO and
MRU baselines), synthetic datasets and query workloads mirroring the paper's distributions, and an
experiment harness that regenerates every figure of the evaluation.

Quickstart::

    from repro import (
        BufferManager, RStarTree, ASB, us_mainland_like, Rect,
    )

    dataset = us_mainland_like(n_objects=20_000, seed=7)
    tree = RStarTree()
    tree.bulk_load(dataset.items())

    buffer = BufferManager(tree.pagefile.disk, capacity=200, policy=ASB())
    with buffer.query_scope():
        hits = tree.window_query(Rect(0.4, 0.4, 0.45, 0.45), accessor=buffer)
    print(len(hits), buffer.stats.snapshot())

Or, through the one-call facade (the construction path the CLI, the page
server and the experiment harness all use)::

    from repro import BufferSystem

    system = BufferSystem.build(policy="ASB", capacity=200,
                                disk=tree.pagefile.disk)

The page-service front-end lives in :mod:`repro.server` (asyncio server
with admission control) and :mod:`repro.client` (pipelined async client
plus a synchronous wrapper).
"""

from repro.access import (
    BuildAccessor,
    DirectAccessor,
    FullPageAccessor,
    PageAccessor,
)
from repro.api import BufferSystem, ClusterSystem
from repro.buffer.concurrent import ConcurrentBufferManager
from repro.buffer.manager import BufferFullError, BufferManager
from repro.buffer.policies import (
    ParamSpec,
    UnknownPolicyError,
    make_policy,
    policy_names,
    policy_param_space,
)
from repro.buffer.policies import (
    ASB,
    FIFO,
    LRU,
    LRUK,
    LRUP,
    LRUT,
    MRU,
    SLRU,
    SpatialPolicy,
)
from repro.datasets.synthetic import Dataset, us_mainland_like, world_atlas_like
from repro.geometry.rect import Point, Rect
from repro.obs import (
    BufferEvent,
    Fanout,
    RecordedTrace,
    TraceRecorder,
    WindowedMetrics,
)
from repro.sam.gridfile import GridFile
from repro.tuning import TuningSpec
from repro.sam.rstar import RStarTree
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page, PageEntry, PageType
from repro.storage.pagefile import PageFile

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # geometry
    "Point",
    "Rect",
    # storage
    "SimulatedDisk",
    "PageFile",
    "Page",
    "PageEntry",
    "PageType",
    # page-access protocol
    "PageAccessor",
    "FullPageAccessor",
    "DirectAccessor",
    "BuildAccessor",
    # buffer
    "BufferManager",
    "ConcurrentBufferManager",
    "BufferFullError",
    # facade
    "BufferSystem",
    "ClusterSystem",
    # self-tuning
    "TuningSpec",
    # policies
    "make_policy",
    "policy_names",
    "policy_param_space",
    "ParamSpec",
    "UnknownPolicyError",
    "LRU",
    "FIFO",
    "MRU",
    "LRUT",
    "LRUP",
    "LRUK",
    "SpatialPolicy",
    "SLRU",
    "ASB",
    # spatial access methods
    "RStarTree",
    "GridFile",
    # datasets
    "Dataset",
    "us_mainland_like",
    "world_atlas_like",
    # observability
    "BufferEvent",
    "TraceRecorder",
    "Fanout",
    "WindowedMetrics",
    "RecordedTrace",
]
