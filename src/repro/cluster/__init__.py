"""``repro.cluster`` — the distributed buffer tier.

One :class:`~repro.api.BufferSystem` is one *cell* of a fleet; this
package adds everything needed to run several cells as one cluster:

* :class:`HashRing` / :class:`ClusterMap` — consistent-hash page
  ownership over a fixed slot space with virtual nodes and an
  epoch-numbered membership document that servers and clients agree on;
* :class:`ClusterPageServer` — a :class:`~repro.server.PageServer` that
  knows its node identity: it serves the pages it owns, forwards
  mis-routed requests to the true owner, pushes hot pages to read
  replicas, invalidates them synchronously on update (LSN-guarded), and
  probes a remote-memory *far buffer* before paying a disk read;
* :class:`RoutingClient` / :class:`ClusterClient` — clients that map
  page id → owner, fan batches out per owner, and retry against the
  next ring epoch on connection loss or backpressure;
* :class:`FarBuffer` / :class:`ReplicaStore` — the LSN-guarded page
  byte stores behind the new opcodes.

The facade lives in :class:`repro.api.ClusterSystem`.
"""

from repro.cluster.client import ClusterClient, RoutingClient
from repro.cluster.node import (
    ClusterNodeConfig,
    ClusterPageServer,
    EvictOfferSink,
    FarBuffer,
    FarProbeDisk,
    ReplicaStore,
)
from repro.cluster.ring import ClusterMap, HashRing

__all__ = [
    "ClusterClient",
    "ClusterMap",
    "ClusterNodeConfig",
    "ClusterPageServer",
    "EvictOfferSink",
    "FarBuffer",
    "FarProbeDisk",
    "HashRing",
    "ReplicaStore",
    "RoutingClient",
]
