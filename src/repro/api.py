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
from typing import TYPE_CHECKING, Callable, Mapping

from repro.buffer.concurrent import ConcurrentBufferManager
from repro.buffer.manager import BufferManager
from repro.buffer.policies import make_policy
from repro.buffer.policies.base import ReplacementPolicy

if TYPE_CHECKING:
    from contextlib import AbstractContextManager

    from repro.obs.events import EventSink, TraceRecorder
    from repro.server.admission import AdmissionController
    from repro.storage.page import Page, PageId
    from repro.wal.manager import DurabilityManager

#: What ``policy=`` accepts: a registry name, a ready instance (sequential
#: builds only), or a zero-argument factory (required for sharded builds).
PolicyLike = "str | ReplacementPolicy | Callable[[], ReplacementPolicy]"

#: Keys accepted by ``durability=dict(...)``; forwarded to
#: :class:`~repro.wal.manager.DurabilityManager`.
_DURABILITY_KEYS = (
    "group_window",
    "flush_interval",
    "flush_batch",
    "checkpoint_interval",
    "retry",
)

#: Keys accepted by ``admission=dict(...)``; forwarded to
#: :class:`~repro.server.admission.AdmissionController`.
_ADMISSION_KEYS = (
    "max_inflight",
    "max_queued",
    "per_client_limit",
    "queue_timeout",
    "retry_hint_ms",
)

#: ``background_writeback=True`` cleans cold dirty frames every this many
#: buffer requests (see ``flush_interval`` on
#: :class:`~repro.wal.manager.DurabilityManager`).
DEFAULT_WRITEBACK_INTERVAL = 64


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
    admission: "AdmissionController | None" = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        *,
        policy: "str | ReplacementPolicy | Callable[[], ReplacementPolicy]" = "LRU",
        capacity: int = 64,
        disk: object | None = None,
        shards: int | None = None,
        durability: "bool | Mapping | DurabilityManager | None" = None,
        trace: "bool | EventSink | None" = None,
        policy_kwargs: Mapping | None = None,
        page_size: int = 4096,
        tuning: object | None = None,
        background_writeback: "bool | int | None" = None,
        admission: "bool | Mapping | AdmissionController | None" = None,
    ) -> "BufferSystem":
        """Wire a complete buffer system in one call.

        ``policy``
            A registry name (see :func:`repro.buffer.policies.make_policy`),
            a ready :class:`ReplacementPolicy` instance, or a zero-argument
            factory.  ``policy_kwargs`` are forwarded when a name is given.
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
            :class:`~repro.tuning.TuningSpec` is the typed surface:
            ``TuningSpec()`` attaches a default winner-take-all
            controller, ``TuningSpec(mode="ensemble", ...)`` replaces
            the policy with an
            :class:`~repro.tuning.EnsemblePolicy` over the spec's
            experts and re-weights its mixture per epoch (optionally
            seeded from an offline-fitted ``weights_path`` artifact).
            A raw :class:`~repro.tuning.TuningConfig` is the advanced
            controller surface and passes through unchanged.
            The controller is exposed as ``system.tuner``.
        ``background_writeback``
            ``None`` (default) leaves background cleaning to the
            ``durability`` options — off unless ``flush_interval`` is
            given, bit-identical to the pre-flag wiring.  ``True``
            enables the background flusher at
            :data:`DEFAULT_WRITEBACK_INTERVAL`; an integer sets the
            interval directly; ``False``/``0`` forces it off.  Requires
            durability (the flusher lives in the
            :class:`~repro.wal.manager.DurabilityManager`) and refuses
            to fight an explicit ``flush_interval`` in the durability
            mapping.
        ``admission``
            ``None`` (default) attaches no admission control — the page
            server builds its own controller exactly as before.
            ``True`` attaches a default
            :class:`~repro.server.admission.AdmissionController`; a
            mapping forwards its keys (``max_inflight``, ``max_queued``,
            ``per_client_limit``, ``queue_timeout``, ``retry_hint_ms``);
            a ready controller is attached as-is.  Exposed as
            ``system.admission`` and preferred by
            :class:`~repro.server.PageServer` when present.
        """
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
        durability = cls._apply_writeback(durability, background_writeback)
        durability_manager = cls._build_durability(durability, disk, page_size)
        if durability_manager is not None:
            disk = durability_manager.disk
        elif disk is None:
            from repro.storage.disk import SimulatedDisk

            disk = SimulatedDisk()

        # --- policy + buffer -------------------------------------------
        policy_kwargs = dict(policy_kwargs or {})
        tuning = cls._normalise_tuning(tuning)
        policy, policy_kwargs = cls._apply_ensemble_mode(
            policy, policy_kwargs, tuning
        )
        if isinstance(policy, str):
            policy_name = policy
            factory = lambda: make_policy(policy_name, **policy_kwargs)  # noqa: E731
        elif isinstance(policy, ReplacementPolicy):
            if shards is not None and shards > 1:
                raise ValueError(
                    "a ready policy instance binds to one buffer core; "
                    "sharded builds need a name or factory (one fresh "
                    "policy per shard)"
                )
            if policy_kwargs:
                raise ValueError("policy_kwargs require a policy name")
            policy_name = policy.name
            instance = policy
            factory = lambda: instance  # noqa: E731
        elif callable(policy):
            if policy_kwargs:
                raise ValueError("policy_kwargs require a policy name")
            probe = policy()
            if not isinstance(probe, ReplacementPolicy):
                raise TypeError(
                    f"policy factory returned {type(probe).__name__}, "
                    "not a ReplacementPolicy"
                )
            policy_name = probe.name
            first = [probe]
            factory = lambda: first.pop() if first else policy()  # noqa: E731
        else:
            raise TypeError(
                "policy must be a name, a ReplacementPolicy, or a factory; "
                f"got {type(policy).__name__}"
            )

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
            from repro.tuning import TuningController, TuningSpec

            config = (
                tuning.to_config() if isinstance(tuning, TuningSpec) else tuning
            )
            # The concurrent service wraps the observer in a LockingSink;
            # the controller must emit through the wrapped sink.
            tuner = TuningController(
                config, observer=getattr(buffer, "observer", observer)
            )
            tuner.attach_buffer(buffer, policy_name, policy_kwargs)

        # --- admission control -------------------------------------------
        admission_controller = cls._build_admission(
            admission, getattr(buffer, "observer", observer)
        )

        return cls(
            buffer=buffer,
            disk=disk,
            policy_name=policy_name,
            observer=observer,
            recorder=recorder,
            durability=durability_manager,
            tuner=tuner,
            admission=admission_controller,
        )

    @staticmethod
    def _normalise_tuning(tuning: object) -> object | None:
        """Type-check ``tuning=``: a TuningSpec/TuningConfig, or None."""
        if tuning is None or tuning is False:
            return None
        from repro.tuning import TuningConfig, TuningSpec

        if isinstance(tuning, (TuningSpec, TuningConfig)):
            return tuning
        raise TypeError(
            "tuning must be None, a TuningSpec, or a TuningConfig; got "
            f"{type(tuning).__name__}"
        )

    @staticmethod
    def _apply_ensemble_mode(
        policy: "str | ReplacementPolicy | Callable[[], ReplacementPolicy]",
        policy_kwargs: dict,
        tuning: object | None,
    ) -> tuple:
        """Fold an ensemble-mode TuningSpec into the policy arguments.

        ``TuningSpec(mode="ensemble")`` means the live policy must be an
        :class:`~repro.tuning.EnsemblePolicy`.  A policy *name* is folded
        into the expert panel (the named policy leads, the spec's experts
        follow, duplicates dropped); ``policy="ENSEMBLE"`` keeps its own
        ``policy_kwargs``; ready instances and factories pass through
        untouched (the controller validates them at attach time).
        ``weights_path`` seeds the mixture with the offline-fitted
        weights.
        """
        from repro.tuning import TuningSpec

        if not (isinstance(tuning, TuningSpec) and tuning.mode == "ensemble"):
            return policy, policy_kwargs
        if not isinstance(policy, str):
            # An EnsemblePolicy instance or factory already fixes the
            # panel; a spec trying to override it would be ignored
            # silently — refuse instead.
            if tuning.experts is not None or tuning.weights_path is not None:
                raise ValueError(
                    "ensemble experts/weights_path can only be applied to "
                    "a policy *name*; pass them to the EnsemblePolicy "
                    "constructor instead"
                )
            return policy, policy_kwargs
        name = policy.strip().upper()
        if name == "ENSEMBLE":
            kwargs = dict(policy_kwargs)
            kwargs.setdefault("experts", tuning.resolved_experts())
        else:
            if policy_kwargs:
                raise ValueError(
                    'mode="ensemble" folds the policy name into the expert '
                    "panel, where per-policy kwargs cannot follow; pass "
                    "policy='ENSEMBLE' with policy_kwargs={'experts': "
                    "[...]} to configure experts explicitly"
                )
            panel: list[str] = []
            for expert in (name, *tuning.resolved_experts()):
                if expert not in panel:
                    panel.append(expert)
            kwargs = {"experts": tuple(panel)}
        if tuning.weights_path is not None and "weights" not in kwargs:
            from repro.tuning import FittedWeights

            experts = kwargs["experts"]
            if all(isinstance(expert, str) for expert in experts):
                fitted = FittedWeights.load(tuning.weights_path)
                kwargs["weights"] = fitted.weights_for(experts)
        return "ENSEMBLE", kwargs

    @staticmethod
    def _apply_writeback(
        durability: "bool | Mapping | DurabilityManager | None",
        background_writeback: "bool | int | None",
    ) -> "bool | Mapping | DurabilityManager | None":
        """Fold the ``background_writeback`` flag into the durability spec."""
        if background_writeback is None:
            return durability
        if background_writeback is True:
            interval = DEFAULT_WRITEBACK_INTERVAL
        elif background_writeback is False:
            interval = 0
        else:
            interval = int(background_writeback)
            if interval < 0:
                raise ValueError("background_writeback must be non-negative")
        if durability is None or durability is False:
            if interval:
                raise ValueError(
                    "background_writeback requires durability (the background "
                    "flusher lives in the DurabilityManager); pass "
                    "durability=True or a durability mapping"
                )
            return durability
        if durability is True:
            return {"flush_interval": interval}
        if isinstance(durability, Mapping):
            if "flush_interval" in durability:
                raise ValueError(
                    "pass either background_writeback= or a flush_interval "
                    "in the durability mapping, not both"
                )
            merged = dict(durability)
            merged["flush_interval"] = interval
            return merged
        raise ValueError(
            "background_writeback cannot reconfigure a ready "
            "DurabilityManager; set flush_interval on it directly"
        )

    @staticmethod
    def _build_admission(
        admission: "bool | Mapping | AdmissionController | None",
        observer: "EventSink | None",
    ) -> "AdmissionController | None":
        if admission is None or admission is False:
            return None
        from repro.server.admission import AdmissionController

        if isinstance(admission, AdmissionController):
            return admission
        if admission is True:
            return AdmissionController(observer=observer)
        if isinstance(admission, Mapping):
            unknown = sorted(set(admission) - set(_ADMISSION_KEYS))
            if unknown:
                raise TypeError(
                    f"unknown admission option(s) {unknown}; accepted: "
                    + ", ".join(_ADMISSION_KEYS)
                )
            return AdmissionController(**dict(admission), observer=observer)
        raise TypeError(
            "admission must be None/True, a mapping of options, or an "
            f"AdmissionController; got {type(admission).__name__}"
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
        if self.admission is not None:
            snapshot["admission"] = self.admission.snapshot()
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


def build_buffer_system(**kwargs) -> BufferSystem:
    """Module-level convenience alias of :meth:`BufferSystem.build`."""
    return BufferSystem.build(**kwargs)


@dataclass
class ClusterSystem:
    """An in-process cluster: N page-server nodes over one shared disk.

    :meth:`build` wires everything the cluster tier needs — a consistent
    hash ring over ``nodes`` data nodes, one :class:`BufferSystem` and
    :class:`~repro.cluster.ClusterPageServer` per node (each on its own
    :class:`~repro.server.ServerThread` event loop), optional hot-page
    read replication (``replicas``) and an optional far-memory node
    (``far_buffer``).  All nodes share one underlying disk — the cluster
    partitions the *buffer* tier, not the storage tier — wrapped
    per-node in a :class:`~repro.cluster.FarProbeDisk` so misses can
    probe the far tier before paying the disk read.

    The facade exists for tests, benchmarks and the CLI; production-shaped
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
        replicas: int = 0,
        far_buffer: "bool | int | None" = None,
        policy: "str" = "LRU",
        capacity: int = 64,
        shards: int | None = None,
        page_size: int = 4096,
        replicate_after: int = 4,
        vnodes: int | None = None,
        slots: int | None = None,
        host: str = "127.0.0.1",
        disk: object | None = None,
        policy_kwargs: Mapping | None = None,
        server_kwargs: Mapping | None = None,
    ) -> "ClusterSystem":
        """Start an ``nodes``-node cluster and return the running fleet.

        ``far_buffer``
            ``None``/``False`` for no far tier; ``True`` for a far node
            with the default capacity; an integer for a far node holding
            that many clean pages.
        ``server_kwargs``
            Forwarded to every node's :class:`ClusterPageServer`
            (``max_inflight``, ``workers``, ...).

        Nodes always get the thread-safe
        :class:`~repro.buffer.concurrent.ConcurrentBufferManager`
        (``shards=None`` builds one shard): every node serves requests
        from a worker pool, so the sequential core is never safe here.
        """
        from repro.cluster import (
            ClusterNodeConfig,
            ClusterPageServer,
            EvictOfferSink,
            FarProbeDisk,
        )
        from repro.cluster.ring import (
            DEFAULT_SLOTS,
            DEFAULT_VNODES,
            ClusterMap,
        )
        from repro.server.runner import ServerThread
        from repro.storage.disk import SimulatedDisk

        if nodes < 1:
            raise ValueError("a cluster needs at least one data node")
        if replicas >= nodes:
            raise ValueError(
                f"replicas={replicas} needs at least {replicas + 1} data nodes"
            )
        far_capacity = 1024
        if far_buffer is True:
            far_node = "far"
        elif far_buffer:
            far_node = "far"
            far_capacity = int(far_buffer)
        else:
            far_node = None

        if disk is None:
            disk = SimulatedDisk()
        data_ids = [f"node-{index}" for index in range(nodes)]
        cluster_map = ClusterMap.build(
            data_ids,
            replicas=replicas,
            far_node=far_node,
            vnodes=DEFAULT_VNODES if vnodes is None else vnodes,
            slots=DEFAULT_SLOTS if slots is None else slots,
            host=host,
        )

        systems: dict[str, BufferSystem] = {}
        servers: dict[str, ServerThread] = {}
        server_kwargs = dict(server_kwargs or {})
        started: list[ServerThread] = []
        try:
            for node_id in [*data_ids, *([far_node] if far_node else [])]:
                is_far = node_id == far_node
                offer_sink = (
                    EvictOfferSink() if far_node and not is_far else None
                )
                system = BufferSystem.build(
                    policy=policy,
                    capacity=capacity if not is_far else max(4, capacity // 8),
                    shards=(shards or 1) if not is_far else 1,
                    disk=FarProbeDisk(disk) if not is_far else disk,
                    page_size=page_size,
                    trace=offer_sink,
                    policy_kwargs=policy_kwargs,
                )
                config = ClusterNodeConfig(
                    node_id=node_id,
                    cluster_map=cluster_map,
                    replicate_after=replicate_after,
                    far_capacity=far_capacity,
                    offer_sink=offer_sink,
                )
                server = ClusterPageServer(
                    system,
                    config,
                    host=host,
                    port=0,
                    page_size=page_size,
                    **server_kwargs,
                )
                thread = ServerThread(server=server)
                thread.start()
                started.append(thread)
                systems[node_id] = system
                servers[node_id] = thread
        except BaseException:
            for thread in reversed(started):
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

    def client(self, *, spread_reads: bool = False, timeout: float = 30.0):
        """A synchronous :class:`~repro.cluster.ClusterClient` for the fleet."""
        from repro.cluster import ClusterClient

        host, port = self.address()
        return ClusterClient(
            host,
            port,
            page_size=self.page_size,
            timeout=timeout,
            spread_reads=spread_reads,
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
        summation, which is what the cluster smoke test asserts: routing,
        replication and the far tier move *where* a page is served from,
        never how the serving node accounts for it.
        """
        totals = {"requests": 0, "hits": 0, "misses": 0}
        for system in self.systems.values():
            stats = system.stats_snapshot()
            totals["requests"] += stats.get("requests", 0)
            totals["hits"] += stats.get("hits", 0)
            totals["misses"] += stats.get("misses", 0)
        return totals

    def close(self) -> None:
        """Stop every node (graceful drain), far node last."""
        for node_id in reversed(list(self.servers)):
            try:
                self.servers[node_id].stop()
            except Exception:  # noqa: BLE001 - keep stopping the rest
                pass

    def __enter__(self) -> "ClusterSystem":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
