"""``bench cluster`` — scaling, tiering and correctness of the cluster.

Three experiments over in-process :class:`~repro.api.ClusterSystem`
fleets, one report (``BENCH_cluster.json``):

**Scaling sweep.**  Fleet sizes × client counts on a read-heavy uniform
workload over a page set much larger than any node's buffer, against a
*slow* shared disk (a real ``time.sleep`` per miss,
:class:`~repro.storage.disk.DelayedDisk`).  Each node serves misses
from a small worker pool, so per-node throughput is bounded by ``workers / read_delay`` — an
I/O-concurrency bound, not a CPU bound — and adding nodes multiplies
the aggregate.  This is the regime the cluster tier exists for, and it
is measurable on a single-core host: the acceptance gate requires the
best 4-node aggregate to beat the best single-node aggregate by >= 2.5x.

**Tiered scenario.**  A replicated fleet with a far-memory node under a
hotspot workload (most reads hit a small hot set, ``spread_reads``
rotating them across owner and replicas).  Reports the replica hit
share (foreign reads served from replica stores) and far hit share
(local misses served from the far tier instead of disk).

**Invalidation soak.**  Randomised writer/reader threads over a small
page set.  Writers partition the pages (one writer per page), bump a
version payload on every update and publish the committed version only
*after* the update is acknowledged; readers sample the published floor
before fetching and flag any page that reads below it.  Because owners
invalidate replicas and the far tier synchronously before acking, the
flag count must be zero — ``zero_stale_reads`` in the acceptance block.

Run with ``python -m repro bench cluster``; the regression gate
(``bench check``) validates the committed report.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Sequence

from repro.api import ClusterSystem
from repro.experiments.benchmeta import run_metadata
from repro.storage import DelayedDisk, SimulatedDisk, seed_page


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, int(round(fraction * (len(sorted_values) - 1)))
    )
    return sorted_values[index]


@dataclass
class ClusterBenchParams:
    """Knobs for the whole run (CLI flags map 1:1)."""

    nodes: tuple = (1, 2, 4)
    clients: tuple = (1, 2, 4, 8)
    pages: int = 1024
    capacity: int = 32
    workers: int = 2
    read_delay_ms: float = 2.0
    batch: int = 16
    batches_per_client: int = 30
    replicas: int = 1
    far_capacity: int = 256
    soak_seconds: float = 3.0
    soak_pages: int = 48
    soak_writers: int = 2
    soak_readers: int = 4
    seed: int = 7


@dataclass
class ScalePoint:
    """One cell of the scaling sweep."""

    nodes: int
    clients: int
    throughput: float  # pages / second, aggregate over the fleet
    p50_ms: float  # per-batch fetch latency
    p99_ms: float
    requests: int  # pages fetched
    misses: int


@dataclass
class TieredResult:
    """The replicated + far-buffer scenario."""

    nodes: int
    replicas: int
    requests: int
    replica_hits: int
    replica_hit_share: float  # of all pages read
    far_hits: int
    far_hit_share: float  # of all buffer misses
    far_offers: int
    invalidations_sent: int


@dataclass
class SoakResult:
    """The randomised invalidation soak."""

    seconds: float
    reads: int
    writes: int
    stale_reads: int
    replica_hits: int
    invalidations_sent: int
    invalidate_failures: int
    accounting: dict = field(default_factory=dict)


@dataclass
class ClusterBenchReport:
    params: ClusterBenchParams
    points: list = field(default_factory=list)
    tiered: TieredResult | None = None
    soak: SoakResult | None = None

    # ------------------------------------------------------------------

    def best_throughput(self, nodes: int) -> float:
        cells = [p.throughput for p in self.points if p.nodes == nodes]
        return max(cells) if cells else 0.0

    def scaling_factor(self) -> float:
        """Best multi-node aggregate over best single-node aggregate."""
        single = self.best_throughput(1)
        if single <= 0:
            return 0.0
        widest = max(p.nodes for p in self.points)
        return self.best_throughput(widest) / single

    def acceptance(self) -> dict:
        accounting = self.soak.accounting if self.soak else {}
        identity = bool(accounting) and accounting.get("requests", -1) == (
            accounting.get("hits", 0) + accounting.get("misses", 0)
        )
        return {
            "scaling_factor_geq_2_5x": self.scaling_factor() >= 2.5,
            "zero_stale_reads": (
                self.soak is not None and self.soak.stale_reads == 0
            ),
            "replica_hits_observed": (
                self.tiered is not None and self.tiered.replica_hits > 0
            ),
            "far_hits_observed": (
                self.tiered is not None and self.tiered.far_hits > 0
            ),
            "accounting_identity_holds": identity,
        }

    def to_dict(self) -> dict:
        return {
            "benchmark": "cluster",
            "meta": run_metadata(self.params.seed),
            "params": asdict(self.params),
            "points": [asdict(point) for point in self.points],
            "tiered": asdict(self.tiered) if self.tiered else None,
            "soak": asdict(self.soak) if self.soak else None,
            "scaling_factor": self.scaling_factor(),
            "acceptance": self.acceptance(),
        }

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def to_text(self) -> str:
        lines = [
            f"cluster scaling sweep: {self.params.pages} pages, "
            f"{self.params.capacity} frames x {self.params.workers} workers "
            f"per node, {self.params.read_delay_ms:.1f} ms reads",
            f"{'nodes':>5} {'clients':>7} {'pages/s':>10} {'p50 ms':>8} "
            f"{'p99 ms':>8} {'misses':>8}",
        ]
        for point in self.points:
            lines.append(
                f"{point.nodes:>5} {point.clients:>7} "
                f"{point.throughput:>10.0f} {point.p50_ms:>8.2f} "
                f"{point.p99_ms:>8.2f} {point.misses:>8}"
            )
        lines.append(f"scaling factor (best wide / best single): "
                     f"{self.scaling_factor():.2f}x")
        if self.tiered is not None:
            t = self.tiered
            lines.append(
                f"tiered: {t.replica_hits} replica hits "
                f"({t.replica_hit_share:.1%} of reads), {t.far_hits} far hits "
                f"({t.far_hit_share:.1%} of misses), {t.far_offers} offers, "
                f"{t.invalidations_sent} invalidations"
            )
        if self.soak is not None:
            s = self.soak
            lines.append(
                f"soak: {s.reads} reads / {s.writes} writes in "
                f"{s.seconds:.1f}s, {s.stale_reads} stale reads, "
                f"{s.invalidations_sent} invalidations "
                f"({s.invalidate_failures} failed)"
            )
        verdict = self.acceptance()
        lines.append(
            "acceptance: "
            + ", ".join(f"{key}={'PASS' if ok else 'FAIL'}"
                        for key, ok in verdict.items())
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Scaling sweep
# ----------------------------------------------------------------------


def _seed_fleet(fleet: ClusterSystem, pages: int) -> None:
    for page_id in range(pages):
        fleet.disk.store(seed_page(page_id))


def _scale_worker(
    fleet: ClusterSystem,
    params: ClusterBenchParams,
    seed: int,
    latencies: list,
    errors: list,
    lock: threading.Lock,
) -> None:
    rng = random.Random(seed)
    local = []
    try:
        client = fleet.client()
        try:
            for _ in range(params.batches_per_client):
                batch = [
                    rng.randrange(params.pages) for _ in range(params.batch)
                ]
                started = time.perf_counter()
                client.fetch_many(batch)
                local.append(time.perf_counter() - started)
        finally:
            client.close()
    except Exception as exc:  # noqa: BLE001 - re-raised by the measurer
        with lock:
            errors.append(exc)
        return
    with lock:
        latencies.extend(local)


def measure_scale_point(
    params: ClusterBenchParams, nodes: int, clients: int
) -> ScalePoint:
    # Sleeping, not spinning: the nodes' concurrent misses must overlap.
    disk = DelayedDisk(SimulatedDisk(), params.read_delay_ms / 1000.0)
    fleet = ClusterSystem.build(
        nodes,
        capacity=params.capacity,
        disk=disk,
        server_kwargs={
            "workers": params.workers,
            "max_inflight": max(16, 4 * clients),
            "max_queued": max(128, 32 * clients),
        },
    )
    latencies: list[float] = []
    errors: list = []
    lock = threading.Lock()
    try:
        _seed_fleet(fleet, params.pages)
        threads = [
            threading.Thread(
                target=_scale_worker,
                args=(
                    fleet,
                    params,
                    params.seed * 1000 + nodes * 100 + index,
                    latencies,
                    errors,
                    lock,
                ),
            )
            for index in range(clients)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        accounting = fleet.accounting()
    finally:
        fleet.close()
    if errors:
        raise RuntimeError(
            f"{len(errors)} of {clients} bench clients failed "
            f"(nodes={nodes}); first: {errors[0]!r}"
        ) from errors[0]
    total_pages = clients * params.batches_per_client * params.batch
    latencies.sort()
    return ScalePoint(
        nodes=nodes,
        clients=clients,
        throughput=total_pages / elapsed if elapsed > 0 else 0.0,
        p50_ms=_percentile(latencies, 0.50) * 1000.0,
        p99_ms=_percentile(latencies, 0.99) * 1000.0,
        requests=total_pages,
        misses=accounting.get("misses", 0),
    )


# ----------------------------------------------------------------------
# Tiered scenario: replicas + far buffer under a hotspot
# ----------------------------------------------------------------------


def measure_tiered(params: ClusterBenchParams) -> TieredResult:
    nodes = max(params.nodes) if params.nodes else 3
    nodes = max(nodes, params.replicas + 1)
    fleet = ClusterSystem.build(
        nodes,
        replicas=params.replicas,
        far_buffer=params.far_capacity,
        capacity=params.capacity,
        replicate_after=2,
    )
    rng = random.Random(params.seed)
    hot = max(8, params.pages // 10)
    reads = 0
    try:
        _seed_fleet(fleet, params.pages)
        client = fleet.client(spread_reads=True)
        try:
            for _ in range(40 * params.batch):
                if rng.random() < 0.8:
                    page_id = rng.randrange(hot)
                else:
                    page_id = rng.randrange(params.pages)
                client.fetch(page_id)
                reads += 1
            time.sleep(0.2)  # let the offer loop flush its queue
            batch = [rng.randrange(params.pages) for _ in range(params.batch)]
            client.fetch_many(batch)
            reads += len(batch)
            stats = client.stats_all()
        finally:
            client.close()
        accounting = fleet.accounting()
    finally:
        fleet.close()
    nodes_blocks = [
        st.get("node", {}) for st in stats.values() if st.get("node")
    ]
    replica_hits = sum(b.get("replica_hits", 0) for b in nodes_blocks)
    far_hits = sum(b.get("far_hits", 0) for b in nodes_blocks)
    misses = accounting.get("misses", 0)
    return TieredResult(
        nodes=nodes,
        replicas=params.replicas,
        requests=reads,
        replica_hits=replica_hits,
        replica_hit_share=replica_hits / reads if reads else 0.0,
        far_hits=far_hits,
        far_hit_share=far_hits / misses if misses else 0.0,
        far_offers=sum(b.get("far_offers", 0) for b in nodes_blocks),
        invalidations_sent=sum(
            b.get("invalidations_sent", 0) for b in nodes_blocks
        ),
    )


# ----------------------------------------------------------------------
# Invalidation soak
# ----------------------------------------------------------------------


def run_soak(params: ClusterBenchParams) -> SoakResult:
    nodes = max(3, params.replicas + 1)
    fleet = ClusterSystem.build(
        nodes,
        replicas=params.replicas,
        far_buffer=params.far_capacity,
        capacity=max(8, params.soak_pages // 4),
        replicate_after=2,
    )
    committed = [0] * params.soak_pages  # writer-published version floors
    stop = threading.Event()
    counters = {"reads": 0, "writes": 0, "stale": 0}
    errors: list = []
    lock = threading.Lock()

    def writer(worker: int) -> None:
        rng = random.Random(params.seed + worker)
        mine = [
            pid
            for pid in range(params.soak_pages)
            if pid % params.soak_writers == worker
        ]
        writes = 0
        try:
            client = fleet.client()
            try:
                while not stop.is_set():
                    pid = rng.choice(mine)
                    version = committed[pid] + 1
                    client.update(seed_page(pid, version))
                    # Publish only after the ack: the owner has already
                    # invalidated every remote copy of the old version.
                    committed[pid] = version
                    writes += 1
                    time.sleep(rng.uniform(0.0, 0.004))
            finally:
                client.close()
        except Exception as exc:  # noqa: BLE001 - re-raised after join
            with lock:
                errors.append(exc)
        with lock:
            counters["writes"] += writes

    def reader(worker: int) -> None:
        rng = random.Random(10_000 + params.seed + worker)
        reads = stale = 0
        try:
            client = fleet.client(spread_reads=True)
            try:
                while not stop.is_set():
                    pid = rng.randrange(params.soak_pages)
                    floor = committed[pid]
                    page = client.fetch(pid)
                    version = page.entries[0].payload
                    if version < floor:
                        stale += 1
                    reads += 1
            finally:
                client.close()
        except Exception as exc:  # noqa: BLE001 - re-raised after join
            with lock:
                errors.append(exc)
        with lock:
            counters["reads"] += reads
            counters["stale"] += stale

    try:
        _seed_fleet(fleet, params.soak_pages)
        threads = [
            threading.Thread(target=writer, args=(index,))
            for index in range(params.soak_writers)
        ] + [
            threading.Thread(target=reader, args=(index,))
            for index in range(params.soak_readers)
        ]
        for thread in threads:
            thread.start()
        time.sleep(params.soak_seconds)
        stop.set()
        for thread in threads:
            thread.join()
        stats = fleet.node_stats()
        accounting = fleet.accounting()
    finally:
        fleet.close()
    if errors:
        raise RuntimeError(
            f"{len(errors)} soak workers failed; first: {errors[0]!r}"
        ) from errors[0]
    nodes_blocks = [
        st.get("node", {}) for st in stats.values() if st.get("node")
    ]
    return SoakResult(
        seconds=params.soak_seconds,
        reads=counters["reads"],
        writes=counters["writes"],
        stale_reads=counters["stale"],
        replica_hits=sum(b.get("replica_hits", 0) for b in nodes_blocks),
        invalidations_sent=sum(
            b.get("invalidations_sent", 0) for b in nodes_blocks
        ),
        invalidate_failures=sum(
            b.get("invalidate_failures", 0) for b in nodes_blocks
        ),
        accounting=accounting,
    )


# ----------------------------------------------------------------------


def run_cluster_bench(params: ClusterBenchParams) -> ClusterBenchReport:
    report = ClusterBenchReport(params=params)
    for nodes in params.nodes:
        for clients in params.clients:
            report.points.append(measure_scale_point(params, nodes, clients))
    report.tiered = measure_tiered(params)
    report.soak = run_soak(params)
    return report
