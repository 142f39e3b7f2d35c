"""``repro.cluster`` — the distributed buffer tier.

One :class:`~repro.api.BufferSystem` is one *cell* of a fleet; this
package adds what is needed to run several cells as one cluster:

* :class:`HashRing` / :class:`ClusterMap` — consistent-hash page
  ownership over a fixed slot space with virtual nodes and an
  epoch-numbered membership document that servers and clients agree on;
* :class:`ClusterPageServer` — a :class:`~repro.server.PageServer` that
  knows its node identity: it serves the pages it owns and forwards
  mis-routed requests to the true owner;
* :class:`RoutingClient` / :class:`ClusterClient` — clients that map
  page id → owner, fan batches out per owner, and retry against the
  next ring epoch on connection loss or backpressure.

The facade lives in :class:`repro.api.ClusterSystem`.
"""

from repro.cluster.client import ClusterClient, RoutingClient
from repro.cluster.node import ClusterPageServer
from repro.cluster.ring import ClusterMap, HashRing

__all__ = [
    "ClusterClient",
    "ClusterMap",
    "ClusterPageServer",
    "HashRing",
    "RoutingClient",
]
