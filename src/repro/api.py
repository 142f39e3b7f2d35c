"""``repro.api`` — one construction path for the whole buffer stack.

Historically every consumer (CLI, experiments, tests, benchmarks)
hand-wired a disk, a policy, a :class:`~repro.buffer.manager.BufferManager`
or :class:`~repro.buffer.concurrent.ConcurrentBufferManager`, an optional
:class:`~repro.wal.manager.DurabilityManager` and an optional event sink.
:func:`BufferSystem.build` consolidates that wiring into a single call::

    from repro.api import BufferSystem

    system = BufferSystem.build(policy="ASB", capacity=64)
    page = system.fetch(3)

    # Concurrent, durable, traced:
    system = BufferSystem.build(
        policy="LRU-2", capacity=128, shards=4,
        durability=True, trace=True,
    )
    ...
    system.close()        # drain: flush through the WAL path, sync the log

Defaults are deliberately boring: no shards (a plain sequential
``BufferManager``), no durability, no tracing — a default build is
bit-identical to the hand-wired seed construction, which the golden-trace
tests pin down.  The page server (:mod:`repro.server`), the CLI and the
experiment harness all construct through this facade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.buffer.concurrent import ConcurrentBufferManager
from repro.buffer.manager import BufferManager
from repro.buffer.policies import make_policy

if TYPE_CHECKING:
    from contextlib import AbstractContextManager

    from repro.obs.events import EventSink, TraceRecorder
    from repro.storage.page import Page, PageId
    from repro.wal.manager import DurabilityManager

#: Keys accepted by ``durability=dict(...)``; forwarded to
#: :class:`~repro.wal.manager.DurabilityManager`.
_DURABILITY_KEYS = (
    "group_window",
    "flush_interval",
    "flush_batch",
    "checkpoint_interval",
    "retry",
)


@dataclass
class BufferSystem:
    """A fully wired buffer stack: disk, buffer, policy, WAL, observer.

    Build one with :meth:`build`; the attributes expose every layer for
    direct use, and the common page operations are delegated so a
    ``BufferSystem`` can be handed to anything written against the page
    accessor protocol.
    """

    buffer: "BufferManager | ConcurrentBufferManager"
    disk: object
    policy_name: str
    observer: "EventSink | None" = None
    recorder: "TraceRecorder | None" = None
    durability: "DurabilityManager | None" = None
    tuner: object | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        *,
        policy: str = "LRU",
        capacity: int = 64,
        disk: object | None = None,
        shards: int | None = None,
        durability: "bool | Mapping | DurabilityManager | None" = None,
        trace: "bool | EventSink | None" = None,
        policy_kwargs: Mapping | None = None,
        page_size: int = 4096,
        tuning: object | None = None,
    ) -> "BufferSystem":
        """Wire a complete buffer system in one call.

        ``policy``
            A registry name (see :func:`repro.buffer.policies.make_policy`);
            ``policy_kwargs`` are forwarded to it.  A sharded build makes
            one policy per shard from the name.
        ``disk``
            Any page store (:class:`~repro.storage.disk.SimulatedDisk`,
            :class:`~repro.wal.durable.DurableDisk`, ...).  Defaults to a
            fresh in-memory ``SimulatedDisk`` — or a fresh ``DurableDisk``
            when durability is requested.
        ``shards``
            ``None`` (default) builds the sequential
            :class:`BufferManager` — bit-identical to the seed wiring.
            An integer builds the thread-safe
            :class:`ConcurrentBufferManager` with that many shards.
        ``durability``
            ``None`` for the undurable core; ``True`` for a default
            :class:`DurabilityManager`; a mapping for one with those
            keyword arguments (``group_window``, ``flush_interval``,
            ``flush_batch``, ``checkpoint_interval``, ``retry``); or a
            ready manager.  Requires (or creates) a ``DurableDisk``.
        ``trace``
            ``True`` attaches a fresh
            :class:`~repro.obs.events.TraceRecorder` (exposed as
            ``system.recorder``); any event sink is attached as-is.
        ``tuning``
            ``None`` (default) keeps the buffer static — bit-identical
            to every pre-tuning build.  A
            :class:`~repro.tuning.TuningSpec` attaches the ghost-cache
            controller: ``TuningSpec()`` a default winner-take-all
            panel, ``TuningSpec(candidates=..., epoch_length=...)`` an
            explicit one.  The controller is exposed as ``system.tuner``.
        """
        if not isinstance(policy, str):
            raise TypeError(
                "policy must be a registry name (see make_policy); "
                f"got {type(policy).__name__}"
            )
        from repro.obs.events import TraceRecorder

        # --- observer ---------------------------------------------------
        recorder = None
        observer = None
        if trace is True:
            recorder = TraceRecorder()
            observer = recorder
        elif trace is not None and trace is not False:
            # Identity checks, not truthiness: an *empty* recorder is
            # falsy (it has __len__) but is still a sink to attach.
            observer = trace

        # --- durability -------------------------------------------------
        durability_manager = cls._build_durability(durability, disk, page_size)
        if durability_manager is not None:
            disk = durability_manager.disk
        elif disk is None:
            from repro.storage.disk import SimulatedDisk

            disk = SimulatedDisk()

        # --- policy + buffer -------------------------------------------
        policy_kwargs = dict(policy_kwargs or {})
        tuning = cls._normalise_tuning(tuning)
        factory = lambda: make_policy(policy, **policy_kwargs)  # noqa: E731

        if shards is None:
            buffer: BufferManager | ConcurrentBufferManager = BufferManager(
                disk,
                capacity,
                factory(),
                observer=observer,
                durability=durability_manager,
            )
        else:
            buffer = ConcurrentBufferManager(
                disk,
                capacity,
                factory,
                shards=shards,
                observer=observer,
                durability=durability_manager,
            )
        # --- self-tuning -----------------------------------------------
        tuner = None
        if tuning is not None:
            from repro.tuning import TuningController

            # The concurrent service wraps the observer in a LockingSink;
            # the controller must emit through the wrapped sink.
            tuner = TuningController(
                tuning, observer=getattr(buffer, "observer", observer)
            )
            tuner.attach_buffer(buffer, policy, policy_kwargs)

        return cls(
            buffer=buffer,
            disk=disk,
            policy_name=policy,
            observer=observer,
            recorder=recorder,
            durability=durability_manager,
            tuner=tuner,
        )

    @staticmethod
    def _normalise_tuning(tuning: object) -> object | None:
        """Type-check ``tuning=``: a TuningSpec, or None."""
        if tuning is None or tuning is False:
            return None
        from repro.tuning import TuningSpec

        if isinstance(tuning, TuningSpec):
            return tuning
        raise TypeError(
            f"tuning must be None or a TuningSpec; got {type(tuning).__name__}"
        )

    @staticmethod
    def _build_durability(
        durability: "bool | Mapping | DurabilityManager | None",
        disk: object | None,
        page_size: int,
    ) -> "DurabilityManager | None":
        if durability is None or durability is False:
            return None
        from repro.wal.durable import DurableDisk
        from repro.wal.manager import DurabilityManager

        if isinstance(durability, DurabilityManager):
            if disk is not None and durability.disk is not disk:
                raise ValueError(
                    "durability manager is bound to a different disk than "
                    "the one passed as disk="
                )
            return durability
        if durability is True:
            kwargs: dict = {}
        elif isinstance(durability, Mapping):
            unknown = sorted(set(durability) - set(_DURABILITY_KEYS))
            if unknown:
                raise TypeError(
                    f"unknown durability option(s) {unknown}; accepted: "
                    + ", ".join(_DURABILITY_KEYS)
                )
            kwargs = dict(durability)
        else:
            raise TypeError(
                "durability must be None/True, a mapping of options, or a "
                f"DurabilityManager; got {type(durability).__name__}"
            )
        if disk is None:
            disk = DurableDisk(page_size=page_size)
        elif not isinstance(disk, DurableDisk):
            raise TypeError(
                "durability requires a DurableDisk (byte-durable medium); "
                f"got {type(disk).__name__}"
            )
        return DurabilityManager(disk, **kwargs)

    # ------------------------------------------------------------------
    # Page accessor delegation
    # ------------------------------------------------------------------

    def fetch(self, page_id: "PageId") -> "Page":
        return self.buffer.fetch(page_id)

    def install(self, page: "Page") -> None:
        self.buffer.install(page)

    def discard(self, page_id: "PageId") -> None:
        self.buffer.discard(page_id)

    def mark_dirty(self, page_id: "PageId") -> None:
        self.buffer.mark_dirty(page_id)

    def pin(self, page_id: "PageId") -> None:
        self.buffer.pin(page_id)

    def unpin(self, page_id: "PageId") -> None:
        self.buffer.unpin(page_id)

    def pinned(self, page_id: "PageId") -> "AbstractContextManager[Page]":
        return self.buffer.pinned(page_id)

    def query_scope(self) -> "AbstractContextManager[int]":
        return self.buffer.query_scope()

    # ------------------------------------------------------------------
    # Lifecycle and introspection
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self.buffer.capacity

    @property
    def is_concurrent(self) -> bool:
        return isinstance(self.buffer, ConcurrentBufferManager)

    def stats_snapshot(self) -> dict:
        """The buffer statistics as a plain dict (plus tuner state, if any)."""
        snapshot_hook = getattr(self.buffer, "stats_snapshot", None)
        if snapshot_hook is not None:
            snapshot = snapshot_hook()
        else:
            snapshot = self.buffer.stats.snapshot()
        if self.tuner is not None:
            snapshot["tuning"] = self.tuner.snapshot()
        return snapshot

    def commit(self) -> int:
        """Request a durability point; flushes the buffer when undurable."""
        if self.durability is not None:
            return self.durability.commit()
        self.buffer.flush()
        return 0

    def close(self) -> None:
        """Graceful drain: flush dirty frames through the WAL path, sync.

        With durability attached this takes a full checkpoint (every dirty
        frame written back under the WAL invariant, then a durable
        CHECKPOINT record) and forces the log tail durable; without it,
        the dirty frames are simply written back.  Idempotent.
        """
        self.buffer.drain()

    def __enter__(self) -> "BufferSystem":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.buffer)

    def resident_ids(self) -> "list[PageId]":
        return self.buffer.resident_ids()


@dataclass
class ClusterSystem:
    """An in-process cluster: N page-server nodes over one shared disk.

    :meth:`build` wires everything the cluster tier needs — a consistent
    hash ring over ``nodes`` data nodes and one :class:`BufferSystem` and
    :class:`~repro.cluster.ClusterPageServer` per node, each on its own
    :class:`~repro.server.ServerThread` event loop.  All nodes share one
    disk — the cluster partitions the *buffer* tier, not the storage
    tier — and each node owns the pages the ring assigns it.

    The facade exists for tests and benchmarks; production-shaped
    deployments would run one :class:`ClusterPageServer` per host against
    the same :class:`~repro.cluster.ClusterMap`.
    """

    cluster_map: object
    systems: "dict[str, BufferSystem]"
    servers: "dict[str, object]"
    disk: object
    page_size: int = 4096

    @classmethod
    def build(
        cls,
        nodes: int = 3,
        *,
        policy: "str" = "LRU",
        capacity: int = 64,
        shards: int | None = None,
        page_size: int = 4096,
        vnodes: int | None = None,
        slots: int | None = None,
        host: str = "127.0.0.1",
        disk: object | None = None,
        policy_kwargs: Mapping | None = None,
        server_kwargs: Mapping | None = None,
    ) -> "ClusterSystem":
        """Start an ``nodes``-node cluster and return the running fleet.

        ``server_kwargs``
            Forwarded to every node's :class:`ClusterPageServer`
            (``max_inflight``, ``workers``, ...).

        Nodes always get the thread-safe
        :class:`~repro.buffer.concurrent.ConcurrentBufferManager`
        (``shards=None`` builds one shard): over a ``disk`` that may block
        (a :class:`~repro.storage.disk.DelayedDisk`, a file) a node runs
        its requests, the owned slice of a mixed batch included, on its
        worker pool, several at a time, so the sequential core is not
        safe there.  Over memory media every request runs on the event
        loop.
        """
        from repro.cluster import ClusterPageServer
        from repro.cluster.ring import (
            DEFAULT_SLOTS,
            DEFAULT_VNODES,
            ClusterMap,
        )
        from repro.server.runner import ServerThread
        from repro.storage.disk import SimulatedDisk

        if nodes < 1:
            raise ValueError("a cluster needs at least one data node")
        if disk is None:
            disk = SimulatedDisk()
        node_ids = [f"node-{index}" for index in range(nodes)]
        cluster_map = ClusterMap.build(
            node_ids,
            vnodes=DEFAULT_VNODES if vnodes is None else vnodes,
            slots=DEFAULT_SLOTS if slots is None else slots,
            host=host,
        )

        systems: dict[str, BufferSystem] = {}
        servers: dict[str, ServerThread] = {}
        server_kwargs = dict(server_kwargs or {})
        try:
            for node_id in node_ids:
                system = BufferSystem.build(
                    policy=policy,
                    capacity=capacity,
                    shards=shards or 1,
                    disk=disk,
                    page_size=page_size,
                    policy_kwargs=policy_kwargs,
                )
                server = ClusterPageServer(
                    system,
                    cluster_map,
                    node_id,
                    host=host,
                    port=0,
                    page_size=page_size,
                    **server_kwargs,
                )
                servers[node_id] = ServerThread(server=server).start()
                systems[node_id] = system
        except BaseException:
            for thread in reversed(list(servers.values())):
                try:
                    thread.stop()
                except Exception:  # noqa: BLE001 - best-effort teardown
                    pass
            raise
        return cls(
            cluster_map=cluster_map,
            systems=systems,
            servers=servers,
            disk=disk,
            page_size=page_size,
        )

    # ------------------------------------------------------------------

    @property
    def data_nodes(self) -> "list[str]":
        return list(self.cluster_map.data_nodes)

    def address(self, node_id: str | None = None) -> "tuple[str, int]":
        """A node's ``(host, port)``; the first data node by default."""
        if node_id is None:
            node_id = self.cluster_map.data_nodes[0]
        return self.cluster_map.address(node_id)

    def client(self, *, timeout: float = 30.0):
        """A synchronous :class:`~repro.cluster.ClusterClient` for the fleet."""
        from repro.cluster import ClusterClient

        host, port = self.address()
        return ClusterClient(
            host, port, page_size=self.page_size, timeout=timeout
        )

    def node_stats(self) -> "dict[str, dict]":
        """Every node's STATS-shaped snapshot (server counters + node block)."""
        return {
            node_id: thread.server.stats_snapshot()
            for node_id, thread in self.servers.items()
        }

    def accounting(self) -> dict:
        """Buffer accounting summed across the fleet.

        The per-node identity (``requests == hits + misses``) survives
        summation, which is what the cluster smoke test asserts: routing
        moves *where* a page is served from, never how the serving node
        accounts for it.
        """
        totals = {"requests": 0, "hits": 0, "misses": 0}
        for system in self.systems.values():
            stats = system.stats_snapshot()
            totals["requests"] += stats.get("requests", 0)
            totals["hits"] += stats.get("hits", 0)
            totals["misses"] += stats.get("misses", 0)
        return totals

    def close(self) -> None:
        """Stop every node (graceful drain), last node first."""
        for node_id in reversed(list(self.servers)):
            try:
                self.servers[node_id].stop()
            except Exception:  # noqa: BLE001 - keep stopping the rest
                pass

    def __enter__(self) -> "ClusterSystem":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
