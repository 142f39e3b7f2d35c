"""``bench ablation`` — which components are earning their complexity?

The system now carries several load-bearing components: WAL group
commit, admission control, ghost-cache sampling, background write-back
and the self-tuning controller.  The survey
literature (PAPERS.md, "Evolution of Buffer Management in Database
Systems") argues such complexity must be justified *per component* —
this harness measures exactly that.

Design: a run-ID'd **stage runner** executes a *baseline-plus-one-off*
configuration matrix.  The baseline is a fully equipped
:class:`~repro.api.BufferSystem` (every component on); each variant
disables or weakens exactly one component through the corresponding
``BufferSystem.build`` flag and re-runs the identical operation
schedule.  Per-component **importance scores** are the metric deltas of
the one-off run against the baseline — a component that changes nothing
when removed is not earning its keep.

Workloads come from :mod:`repro.workloads.access_graph`: the matrix
always includes the hostile ``cycle`` string (the worst case for
demand-paged recency policies) next to the locality-structured
``clustered`` walk, so robustness is scored alongside friendly-case
performance.  The live policy deliberately starts naive (MRU) so the
tuning component has something real to fix — with tuning off, the
naivety is what the matrix measures.

Determinism: the operation schedules derive from one seed, and with
``workers=1`` the whole run is serial, so every counter metric
(hit-rate, disk reads, fsyncs, write-backs) is bit-reproducible — the
property the regression gate and the tests rely on.  Wall-clock
throughput is always noisy and is reported separately.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.api import BufferSystem
from repro.experiments.benchmeta import run_metadata
from repro.server.admission import AdmissionRejected, AdmissionTimeout
from repro.storage.page import seed_page
from repro.tuning import TuningConfig
from repro.wal.durable import DurableDisk
from repro.workloads.access_graph import ReferenceString, adversarial_suite
from repro.buffer.manager import BufferManager
from repro.buffer.policies.asb import ASB
from repro.buffer.policies.clock import Clock
from repro.buffer.policies.fifo import FIFO
from repro.buffer.policies.lfu import LFU
from repro.buffer.policies.lru import LRU
from repro.buffer.policies.lru_k import LRUK
from repro.buffer.policies.lru_p import LRUP
from repro.buffer.policies.mru import MRU
from repro.buffer.policies.random_policy import RandomPolicy
from repro.buffer.policies.spatial import SpatialPolicy
from repro.datasets.synthetic import us_mainland_like
from repro.experiments.figures import FigureResult, PaperSetup
from repro.experiments.harness import (
    FOUR_POLICIES,
    Database,
    append_gain,
    buffer_capacity,
    gain,
    grid_rows,
    lru_gain_rows,
    pin_top_levels,
    replay,
    replay_misses,
    replay_mixed,
    run_grid,
    run_queries,
)
from repro.experiments.report import format_gain
from repro.sam.quadtree import Quadtree
from repro.sam.rstar import RStarTree
from repro.sam.zbtree import ZBTree
from repro.storage.objects import build_tree_with_objects
from repro.workloads.sets import make_query_set

#: Metrics that are bit-deterministic for a fixed seed at ``workers=1``
#: (relative deltas of these make up the ``counter_importance`` score).
COUNTER_METRICS = ("hit_rate", "disk_reads", "fsyncs", "writebacks")


# ----------------------------------------------------------------------
# Parameters and the configuration matrix
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AblationParams:
    """Everything that shapes the matrix (hashed into the run id)."""

    capacity: int = 32
    shards: int = 2
    workers: int = 4
    length: int = 4_000
    seed: int = 7
    write_every: int = 4
    commit_every: int = 16
    epoch_length: int = 400
    read_delay_us: float = 20.0
    page_size: int = 256
    clusters: int = 4
    start_policy: str = "MRU"
    group_window: int = 8
    writeback_interval: int = 32
    ghost_sample: float = 0.25

    def __post_init__(self) -> None:
        if self.capacity < 2:
            raise ValueError("capacity must be at least 2")
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.length < 1:
            raise ValueError("length must be positive")


@dataclass(frozen=True)
class ComponentSpec:
    """One ablatable component: how to switch it *off* from the baseline."""

    key: str
    description: str
    overrides: dict = field(hash=False)


def _tuning_config(params: AblationParams, sample: float) -> TuningConfig:
    return TuningConfig(
        epoch_length=params.epoch_length,
        hysteresis=0.01,
        patience=1,
        cooldown=1,
        sample=sample,
    )


def baseline_build_kwargs(params: AblationParams) -> dict:
    """The all-components-on configuration, via ``BufferSystem.build`` flags."""
    return {
        "policy": params.start_policy,
        "capacity": params.capacity,
        "shards": params.shards,
        "durability": {"group_window": params.group_window},
        "background_writeback": params.writeback_interval,
        "admission": {
            "max_inflight": max(2, params.workers),
            "max_queued": 2 * max(2, params.workers),
        },
        "tuning": _tuning_config(params, params.ghost_sample),
        "page_size": params.page_size,
    }


def component_specs(params: AblationParams) -> tuple[ComponentSpec, ...]:
    """The matrix: each spec removes/weakens exactly one component."""
    return (
        ComponentSpec(
            key="group_commit",
            description=(
                f"WAL group commit, window {params.group_window} "
                "(off: window 1 — every commit pays its own fsync)"
            ),
            overrides={"durability": {"group_window": 1}},
        ),
        ComponentSpec(
            key="admission_control",
            description=(
                "bounded in-flight/queued admission in front of the buffer "
                "(off: requests go straight to the shards; the benefit — "
                "bounded overload — is asserted by the page-service tests, "
                "the ablation scores its steady-state cost)"
            ),
            overrides={"admission": None},
        ),
        ComponentSpec(
            key="ghost_sampling",
            description=(
                f"SHARDS-style id-hash sampling of the ghost caches at rate "
                f"{params.ghost_sample:g} (off: every access feeds every "
                "ghost — full-fidelity, full-cost shadowing)"
            ),
            overrides={"tuning": _tuning_config(params, 1.0)},
        ),
        ComponentSpec(
            key="background_writeback",
            description=(
                f"background flusher cleaning cold dirty frames every "
                f"{params.writeback_interval} requests (off: every dirty "
                "page is written back in the eviction latency path)"
            ),
            overrides={"background_writeback": False},
        ),
        ComponentSpec(
            key="tuning",
            description=(
                "ghost caches + epoch controller adapting the live policy "
                f"(off: the buffer stays {params.start_policy} forever)"
            ),
            overrides={"tuning": None},
        ),
    )


def _describe(value: object) -> object:
    """A JSON-able description of a build kwarg (for run ids and reports)."""
    if isinstance(value, TuningConfig):
        return {
            "TuningConfig": {
                name: getattr(value, name)
                for name in (
                    "epoch_length",
                    "hysteresis",
                    "patience",
                    "cooldown",
                    "allow_retune",
                    "allow_switch",
                    "sample",
                )
            }
        }
    if isinstance(value, Mapping):
        return {key: _describe(item) for key, item in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _run_id(key: str, build_kwargs: Mapping, params: AblationParams) -> str:
    blob = json.dumps(
        {
            "key": key,
            "kwargs": _describe(dict(build_kwargs)),
            "seed": params.seed,
            "length": params.length,
            "workers": params.workers,
        },
        sort_keys=True,
    ).encode()
    return f"{key}-{hashlib.sha256(blob).hexdigest()[:10]}"


# ----------------------------------------------------------------------
# Workloads and operation schedules
# ----------------------------------------------------------------------

#: One buffer operation: ``("read", page_id)``, ``("write", page_id)`` or
#: ``("commit", None)``.
Op = "tuple[str, int | None]"


def build_schedule(
    reference: ReferenceString, write_every: int, commit_every: int
) -> list["tuple[str, int | None]"]:
    """Turn a reference string into a mixed read/write/commit op list."""
    ops: list[tuple[str, int | None]] = []
    for index, page_id in enumerate(reference.pages):
        if write_every and (index + 1) % write_every == 0:
            ops.append(("write", page_id))
        else:
            ops.append(("read", page_id))
        if commit_every and (index + 1) % commit_every == 0:
            ops.append(("commit", None))
    return ops


def ablation_workloads(params: AblationParams) -> dict[str, ReferenceString]:
    """The matrix workloads: hostile cycle + locality-structured walk."""
    return adversarial_suite(
        params.capacity,
        params.length,
        seed=params.seed,
        clusters=params.clusters,
    )


class _DelayedDurableDisk(DurableDisk):
    """A durable disk whose reads cost simulated I/O wall-clock time.

    The in-memory byte store serves reads in sub-microsecond time, which
    makes every CPU-side component look enormous relative to the I/O it
    saves.  Spinning for an SSD-class latency per read restores the
    regime buffer managers exist for (cf. the same device model in
    ``bench tuning``).
    """

    def __init__(self, page_size: int, read_delay_s: float = 0.0) -> None:
        super().__init__(page_size=page_size)
        self._read_delay_s = read_delay_s

    def read(self, page_id):
        page = super().read(page_id)
        if self._read_delay_s > 0.0:
            deadline = time.perf_counter() + self._read_delay_s
            while time.perf_counter() < deadline:
                pass
        return page


def _make_disk(
    params: AblationParams, workloads: Mapping[str, ReferenceString]
) -> _DelayedDurableDisk:
    disk = _DelayedDurableDisk(
        page_size=params.page_size,
        read_delay_s=params.read_delay_us * 1e-6,
    )
    page_ids: set[int] = set()
    for reference in workloads.values():
        page_ids.update(reference.graph.nodes)
    for page_id in sorted(page_ids):
        disk.store(seed_page(page_id))
    disk.stats.reset()
    return disk


# ----------------------------------------------------------------------
# Driving one configuration
# ----------------------------------------------------------------------


class _AdmissionGate:
    """Synchronous bridge into the (asyncio) admission controller.

    The controller's single-threaded discipline is preserved: all of its
    code runs on one dedicated loop thread, exactly as it does under the
    page server; worker threads block on concurrent futures.
    """

    def __init__(self, controller) -> None:
        self._controller = controller
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="ablation-admission", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def acquire(self, client_id: int) -> None:
        asyncio.run_coroutine_threadsafe(
            self._controller.acquire(client_id), self._loop
        ).result()

    def release(self, client_id: int) -> None:
        self._loop.call_soon_threadsafe(self._controller.release, client_id)

    def close(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5)
        self._loop.close()


def _run_op(
    system: BufferSystem,
    op: "tuple[str, int | None]",
    gate: "_AdmissionGate | None",
    client_id: int,
) -> None:
    if gate is not None:
        try:
            gate.acquire(client_id)
        except (AdmissionRejected, AdmissionTimeout):
            return
    try:
        kind, page_id = op
        if kind == "read":
            system.fetch(page_id)
        elif kind == "write":
            with system.buffer.pinned(page_id):
                system.mark_dirty(page_id)
        else:
            system.commit()
    finally:
        if gate is not None:
            gate.release(client_id)


def _drive_ops(
    system: BufferSystem,
    ops: Sequence["tuple[str, int | None]"],
    workers: int,
) -> float:
    """Run one schedule; returns wall-clock seconds.

    ``workers == 1`` runs strictly serially (deterministic counters);
    more workers split the schedule round-robin over real threads, so
    coalescing and admission see genuine concurrency.
    """
    gate = (
        _AdmissionGate(system.admission) if system.admission is not None else None
    )
    try:
        started = time.perf_counter()
        if workers <= 1:
            for op in ops:
                _run_op(system, op, gate, 0)
        else:
            schedules = [list(ops[index::workers]) for index in range(workers)]
            barrier = threading.Barrier(workers)
            errors: list[BaseException] = []

            def work(worker_id: int, schedule) -> None:
                try:
                    barrier.wait()
                    for op in schedule:
                        _run_op(system, op, gate, worker_id)
                except BaseException as exc:  # noqa: BLE001 — reraised below
                    errors.append(exc)

            threads = [
                threading.Thread(
                    target=work, args=(index, schedule), daemon=True
                )
                for index, schedule in enumerate(schedules)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if errors:
                raise errors[0]
        return time.perf_counter() - started
    finally:
        if gate is not None:
            gate.close()


def _totals(system: BufferSystem) -> dict[str, int]:
    stats = system.buffer.stats
    admission = system.admission
    rejected = 0
    if admission is not None:
        rejected = (
            admission.rejected_queue_full
            + admission.rejected_quota
            + admission.timeouts
        )
    return {
        "requests": stats.requests,
        "hits": stats.hits,
        "misses": stats.misses,
        "evictions": stats.evictions,
        "writebacks": stats.writebacks,
        "disk_reads": system.disk.stats.reads,
        "fsyncs": system.durability.wal.stats.fsyncs if system.durability else 0,
        "coalesced": getattr(system.buffer, "coalesced_misses", 0),
        "rejected": rejected,
    }


@dataclass(slots=True)
class RunMetrics:
    """Counter + wall-clock outcome of one schedule (or a whole config)."""

    ops: int = 0
    requests: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    disk_reads: int = 0
    fsyncs: int = 0
    coalesced: int = 0
    rejected: int = 0
    seconds: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    @property
    def throughput(self) -> float:
        return self.ops / self.seconds if self.seconds > 0 else 0.0

    @property
    def accounting_ok(self) -> bool:
        return self.hits + self.misses == self.requests

    def add(self, other: "RunMetrics") -> None:
        for name in (
            "ops", "requests", "hits", "misses", "evictions", "writebacks",
            "disk_reads", "fsyncs", "coalesced", "rejected",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.seconds += other.seconds

    def to_dict(self) -> dict:
        return {
            "ops": self.ops,
            "requests": self.requests,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "evictions": self.evictions,
            "writebacks": self.writebacks,
            "disk_reads": self.disk_reads,
            "fsyncs": self.fsyncs,
            "coalesced": self.coalesced,
            "rejected": self.rejected,
            "seconds": round(self.seconds, 4),
            "throughput": round(self.throughput, 1),
            "accounting_ok": self.accounting_ok,
        }


@dataclass(slots=True)
class StageRecord:
    """One step of a config run, in execution order (the stage log)."""

    name: str
    seconds: float
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seconds": round(self.seconds, 4),
            "detail": self.detail,
        }


@dataclass(slots=True)
class ConfigRun:
    """One cell of the matrix: a config, its stages and its metrics."""

    key: str
    run_id: str
    overrides: dict
    stages: list[StageRecord] = field(default_factory=list)
    workloads: dict[str, RunMetrics] = field(default_factory=dict)
    overall: RunMetrics = field(default_factory=RunMetrics)
    tuner: dict = field(default_factory=dict)

    @property
    def accounting_ok(self) -> bool:
        return self.overall.accounting_ok

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "run_id": self.run_id,
            "overrides": self.overrides,
            "stages": [stage.to_dict() for stage in self.stages],
            "workloads": {
                name: metrics.to_dict()
                for name, metrics in self.workloads.items()
            },
            "overall": self.overall.to_dict(),
            "tuner": self.tuner,
        }


def run_config(
    key: str,
    build_kwargs: Mapping,
    overrides: Mapping,
    params: AblationParams,
    workloads: Mapping[str, ReferenceString],
    schedules: Mapping[str, Sequence["tuple[str, int | None]"]],
) -> ConfigRun:
    """The stage runner for one configuration: build → drive → drain."""
    run = ConfigRun(
        key=key,
        run_id=_run_id(key, build_kwargs, params),
        overrides=dict(_describe(dict(overrides))),
    )
    started = time.perf_counter()
    disk = _make_disk(params, workloads)
    system = BufferSystem.build(disk=disk, **build_kwargs)
    run.stages.append(
        StageRecord(
            name="build",
            seconds=time.perf_counter() - started,
            detail=f"{params.shards} shard(s), {params.capacity} frames",
        )
    )
    before = _totals(system)
    for name, schedule in schedules.items():
        seconds = _drive_ops(system, schedule, params.workers)
        after = _totals(system)
        metrics = RunMetrics(
            ops=len(schedule),
            seconds=seconds,
            **{field_: after[field_] - before[field_] for field_ in before},
        )
        run.workloads[name] = metrics
        run.overall.add(metrics)
        run.stages.append(
            StageRecord(
                name=f"drive:{name}",
                seconds=seconds,
                detail=f"{len(schedule)} ops, hit rate {metrics.hit_rate:.1%}",
            )
        )
        before = after
    if system.tuner is not None:
        snapshot = system.tuner.snapshot()
        run.tuner = {
            "live": snapshot.get("live"),
            "epochs": snapshot.get("epochs"),
            "retunes": snapshot.get("retunes"),
            "switches": snapshot.get("switches"),
        }
    started = time.perf_counter()
    system.close()
    run.stages.append(
        StageRecord(name="drain", seconds=time.perf_counter() - started)
    )
    return run


# ----------------------------------------------------------------------
# Importance scoring and the report
# ----------------------------------------------------------------------


def _relative(variant: float, baseline: float) -> "float | None":
    """Relative change of a lower-is-better counter, or None off a 0 base."""
    if baseline == 0:
        return None if variant == 0 else float("inf")
    return variant / baseline - 1.0


@dataclass(slots=True)
class ComponentScore:
    """One component's measured contribution (baseline minus one-off).

    Sign convention: positive deltas mean the component *helps* that
    metric (removing it made the metric worse); negative deltas are the
    component's cost.  ``importance`` ranks by the largest absolute
    effect on any scored metric; ``counter_importance`` restricts that
    to the deterministic counters (the value the tests pin down).
    """

    key: str
    description: str
    run_id: str
    hit_rate_delta: float = 0.0
    disk_reads_rel: "float | None" = None
    fsyncs_rel: "float | None" = None
    writebacks_rel: "float | None" = None
    throughput_rel: float = 0.0

    @property
    def counter_importance(self) -> float:
        values = [abs(self.hit_rate_delta)]
        for value in (self.disk_reads_rel, self.fsyncs_rel, self.writebacks_rel):
            if value is not None and value != float("inf"):
                values.append(abs(value))
        return max(values)

    @property
    def importance(self) -> float:
        return max(self.counter_importance, abs(self.throughput_rel))

    def to_dict(self) -> dict:
        def _round(value):
            if value is None:
                return None
            if value == float("inf"):
                return "inf"
            return round(value, 4)

        return {
            "component": self.key,
            "description": self.description,
            "run_id": self.run_id,
            "deltas": {
                "hit_rate": _round(self.hit_rate_delta),
                "disk_reads": _round(self.disk_reads_rel),
                "fsyncs": _round(self.fsyncs_rel),
                "writebacks": _round(self.writebacks_rel),
                "throughput": _round(self.throughput_rel),
            },
            "counter_importance": _round(self.counter_importance),
            "importance": _round(self.importance),
        }


def score_component(
    spec: ComponentSpec, baseline: RunMetrics, variant_run: ConfigRun
) -> ComponentScore:
    """Deltas of the one-off against the baseline, component-helps-positive."""
    variant = variant_run.overall
    base_throughput = baseline.throughput
    throughput_rel = (
        (base_throughput - variant.throughput) / base_throughput
        if base_throughput > 0
        else 0.0
    )
    return ComponentScore(
        key=spec.key,
        description=spec.description,
        run_id=variant_run.run_id,
        # Removing a helpful component drops the hit rate → positive.
        hit_rate_delta=baseline.hit_rate - variant.hit_rate,
        # Lower-is-better counters: removal increasing them → positive.
        disk_reads_rel=_relative(variant.disk_reads, baseline.disk_reads),
        fsyncs_rel=_relative(variant.fsyncs, baseline.fsyncs),
        writebacks_rel=_relative(variant.writebacks, baseline.writebacks),
        throughput_rel=throughput_rel,
    )


@dataclass(slots=True)
class AblationReport:
    """The full matrix outcome: baseline, one-offs, ranked importance."""

    params: AblationParams
    workloads: dict[str, ReferenceString]
    baseline: ConfigRun
    variants: dict[str, ConfigRun] = field(default_factory=dict)
    scores: list[ComponentScore] = field(default_factory=list)

    def ranked(self) -> list[ComponentScore]:
        return sorted(self.scores, key=lambda score: -score.importance)

    def all_runs(self) -> list[ConfigRun]:
        return [self.baseline, *self.variants.values()]

    def acceptance(self) -> dict:
        return {
            "components_scored": len(self.scores),
            "at_least_5_components": len(self.scores) >= 5,
            "accounting_identity_holds": all(
                run.accounting_ok for run in self.all_runs()
            ),
            "includes_hostile_workload": "cycle" in self.workloads,
        }

    def to_dict(self) -> dict:
        return {
            "benchmark": "ablation",
            "meta": run_metadata(self.params.seed, run_id=self.baseline.run_id),
            "config": {
                "capacity": self.params.capacity,
                "shards": self.params.shards,
                "workers": self.params.workers,
                "length": self.params.length,
                "write_every": self.params.write_every,
                "commit_every": self.params.commit_every,
                "epoch_length": self.params.epoch_length,
                "read_delay_us": self.params.read_delay_us,
                "page_size": self.params.page_size,
                "start_policy": self.params.start_policy,
                "group_window": self.params.group_window,
                "writeback_interval": self.params.writeback_interval,
                "ghost_sample": self.params.ghost_sample,
                "baseline_build": dict(
                    _describe(baseline_build_kwargs(self.params))
                ),
            },
            "workloads": [
                {
                    "name": name,
                    "length": len(reference),
                    "distinct_pages": reference.distinct_pages(),
                    "digest": reference.digest(),
                }
                for name, reference in self.workloads.items()
            ],
            "baseline": self.baseline.to_dict(),
            "components": [score.to_dict() for score in self.ranked()],
            "variants": {
                key: run.to_dict() for key, run in self.variants.items()
            },
            "acceptance": self.acceptance(),
        }

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")

    def to_text(self) -> str:
        params = self.params
        lines = [
            f"ablation — {params.capacity} frames, {params.shards} shard(s), "
            f"{params.workers} worker(s), {len(self.workloads)} workloads × "
            f"{params.length} refs, start {params.start_policy}, "
            f"seed {params.seed} (run {self.baseline.run_id})",
            "",
            f"{'config':>21} {'hit rate':>8} {'reads':>7} {'fsyncs':>6} "
            f"{'wbacks':>6} {'coal':>5} {'ops/s':>9}",
        ]
        for run in self.all_runs():
            label = "baseline" if run.key == "baseline" else f"-{run.key}"
            overall = run.overall
            lines.append(
                f"{label:>21} {overall.hit_rate:>8.1%} {overall.disk_reads:>7} "
                f"{overall.fsyncs:>6} {overall.writebacks:>6} "
                f"{overall.coalesced:>5} {overall.throughput:>9.0f}"
            )
        lines.append("")
        lines.append("component importance (baseline minus one-off; positive = helps):")
        lines.append(
            f"{'rank':>4} {'component':>21} {'Δhit':>7} {'Δreads':>8} "
            f"{'Δfsyncs':>8} {'Δops/s':>8} {'score':>7}"
        )

        def _fmt(value):
            if value is None:
                return "n/a"
            if value == float("inf"):
                return "inf"
            return f"{value:+.1%}"

        for rank, score in enumerate(self.ranked(), start=1):
            lines.append(
                f"{rank:>4} {score.key:>21} {score.hit_rate_delta:>+7.1%} "
                f"{_fmt(score.disk_reads_rel):>8} {_fmt(score.fsyncs_rel):>8} "
                f"{score.throughput_rel:>+8.1%} {score.importance:>7.3f}"
            )
        verdict = self.acceptance()
        lines.append("")
        lines.append(
            "acceptance: "
            f"components={verdict['components_scored']} "
            f"accounting={verdict['accounting_identity_holds']} "
            f"hostile-workload={verdict['includes_hostile_workload']}"
        )
        return "\n".join(lines)


def run_ablation(params: AblationParams | None = None, **kwargs) -> AblationReport:
    """Execute the whole matrix: baseline first, then every one-off."""
    if params is None:
        params = AblationParams(**kwargs)
    elif kwargs:
        raise TypeError("pass either an AblationParams or keyword overrides")
    workloads = ablation_workloads(params)
    schedules = {
        name: build_schedule(reference, params.write_every, params.commit_every)
        for name, reference in workloads.items()
    }
    base_kwargs = baseline_build_kwargs(params)
    baseline = run_config(
        "baseline", base_kwargs, {}, params, workloads, schedules
    )
    report = AblationReport(
        params=params, workloads=workloads, baseline=baseline
    )
    for spec in component_specs(params):
        variant_kwargs = dict(base_kwargs)
        variant_kwargs.update(spec.overrides)
        run = run_config(
            spec.key, variant_kwargs, spec.overrides, params, workloads, schedules
        )
        report.variants[spec.key] = run
        report.scores.append(score_component(spec, baseline.overall, run))
    return report


# ----------------------------------------------------------------------
# Paper-figure ablations (formerly ``repro.experiments.ablations``)
# ----------------------------------------------------------------------


#: Sets probing both regimes: one where the spatial criterion helps and one
#: where it hurts.
ABLATION_SETS = ("U-W-100", "S-W-100", "INT-W-100")


def ablation_overflow_size(
    setup: PaperSetup,
    overflow_fractions: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4),
    buffer_fraction: float = 0.047,
) -> FigureResult:
    """How big should the overflow buffer be?  (Paper future work #1.)

    Overflow fraction 0 degenerates to static SLRU (no adaptation signal);
    very large fractions starve the main part.  The paper fixes 20 %.
    """
    capacity = buffer_capacity(setup.db1, buffer_fraction)
    policies = {
        fraction: (lambda f=fraction: ASB(overflow_fraction=f))
        for fraction in overflow_fractions
    }
    return FigureResult(
        figure="Ablation overflow-size",
        title="ASB gain vs LRU for different overflow-buffer fractions",
        headers=["query set"]
        + [f"{int(f * 100)}%" for f in overflow_fractions],
        rows=lru_gain_rows(
            setup, policies, ABLATION_SETS, (buffer_fraction,), lead=("set",)
        ),
        notes=f"buffer = {capacity} pages ({buffer_fraction:.1%} of the tree)",
    )


def ablation_step_size(
    setup: PaperSetup,
    step_fractions: tuple[float, ...] = (0.005, 0.01, 0.05, 0.2),
    buffer_fraction: float = 0.047,
) -> FigureResult:
    """Sensitivity of ASB to the adaptation step (paper: 1 % of the main part)."""
    capacity = buffer_capacity(setup.db1, buffer_fraction)
    policies = {
        step: (lambda s=step: ASB(step_fraction=s)) for step in step_fractions
    }
    return FigureResult(
        figure="Ablation step-size",
        title="ASB gain vs LRU for different adaptation step sizes",
        headers=["query set"] + [f"{step:.1%}" for step in step_fractions],
        rows=lru_gain_rows(
            setup, policies, ABLATION_SETS, (buffer_fraction,), lead=("set",)
        ),
        notes=f"buffer = {capacity} pages",
    )


def ablation_sams(
    setup: PaperSetup,
    buffer_fraction: float = 0.047,
) -> FigureResult:
    """The policies on other spatial access methods (Section 2.3's claim).

    The spatial criteria are defined for generic page entries — quadtree
    cells and z-values included.  This ablation indexes database 1's
    objects with a bucket quadtree and a z-order B+-tree and repeats the
    A / LRU-2 / ASB comparison on them.
    """
    from repro.sam.gridfile import GridFile

    dataset = setup.db1.dataset
    quadtree = Quadtree(dataset.space, capacity=42)
    for rect, payload in dataset.items():
        quadtree.insert(rect, payload)
    zbtree = ZBTree(dataset.space, max_entries=42)
    zbtree.bulk_load(dataset.items())
    gridfile = GridFile(dataset.space, bucket_capacity=42, max_splits=32)
    for rect, payload in dataset.items():
        gridfile.insert(rect, payload)
    indexes = {"quadtree": quadtree, "z-b+tree": zbtree, "gridfile": gridfile}
    cells = run_grid(
        setup,
        FOUR_POLICIES,
        ABLATION_SETS,
        (buffer_fraction,),
        databases={
            name: Database(dataset, index, setup.db1.places)
            for name, index in indexes.items()
        },
    )
    return FigureResult(
        figure="Ablation SAMs",
        title="Policy gains vs LRU on non-R-tree spatial access methods",
        headers=["index", "query set", "A", "LRU-2", "ASB"],
        rows=grid_rows(cells, ("A", "LRU-2", "ASB"), lead=("db", "set")),
    )


def ablation_baselines(
    setup: PaperSetup,
    buffer_fraction: float = 0.047,
) -> FigureResult:
    """Classic baselines (FIFO, CLOCK, LFU, MRU, RANDOM) vs LRU."""
    policies = {
        "FIFO": FIFO,
        "CLOCK": Clock,
        "LFU": LFU,
        "MRU": MRU,
        "RANDOM": lambda: RandomPolicy(seed=3),
    }
    return FigureResult(
        figure="Ablation baselines",
        title="Classic replacement baselines vs LRU (database 1)",
        headers=["query set"] + list(policies),
        rows=lru_gain_rows(
            setup, policies, ABLATION_SETS, (buffer_fraction,), lead=("set",)
        ),
    )


def ablation_pinned_levels(
    setup: PaperSetup,
    buffer_fraction: float = 0.047,
    sets: tuple[str, ...] = ABLATION_SETS,
) -> FigureResult:
    """Pinning top tree levels (Leutenegger & Lopez, the paper's ref [8]).

    LRU-P generalises level pinning; this ablation runs the original:
    LRU with the top 1 / 2 levels fetched once and pinned, against plain
    LRU and LRU-P.  Pinned pages can never be evicted — a static
    commitment LRU-P makes dynamically.  The reads of a pinned row count
    the query sets only: the pins' own initial fetches happen before the
    count starts, so the row is short by the number of pinned pages.
    """
    database = setup.db1
    capacity = buffer_capacity(database, buffer_fraction)

    def pinned_row(levels: int) -> list[object]:
        label = f"LRU + pin top {levels}"
        buffer = BufferManager(database.tree.pagefile.disk, capacity, LRU())
        try:
            pin_top_levels(database.tree, buffer, levels)
        except ValueError:
            return [label, "n/a", "does not fit"]  # at this buffer size
        start = buffer.stats.misses
        for set_name in sets:
            query_set = database.query_set(set_name, setup.n_queries, setup.seed)
            run_queries(buffer, database.tree, query_set)
        return [label, buffer.stats.misses - start]

    plain = run_grid(setup, {"LRU": LRU, "LRU-P": LRUP}, sets, (buffer_fraction,))
    lru, lru_p = (
        sum(cell.counts[name] for cell in plain) for name in ("LRU", "LRU-P")
    )
    return FigureResult(
        figure="Ablation pinned-levels",
        title="Static level pinning (ref [8]) vs the dynamic LRU-P",
        headers=["strategy", "reads", "gain vs LRU"],
        rows=append_gain(
            [["LRU", lru], pinned_row(1), pinned_row(2), ["LRU-P", lru_p]]
        ),
        notes=(
            f"summed over {', '.join(sets)}; buffer = {capacity} pages; "
            "pinned runs keep the pages across sets (no clearing), plain "
            "runs use a fresh buffer per set"
        ),
    )


def ablation_adaptive_buffers(
    setup: PaperSetup,
    buffer_fraction: float = 0.047,
    sets: tuple[str, ...] = (
        "U-W-100",
        "ID-W",
        "S-W-100",
        "INT-P",
        "INT-W-100",
        "IND-W-100",
    ),
) -> FigureResult:
    """ASB against the wider literature of self-tuning / two-part buffers.

    2Q (Johnson/Shasha 1994) and ARC (Megiddo/Modha 2003) split the buffer
    along the recency-vs-frequency axis; the paper's ASB splits along the
    recency-vs-spatial axis.  GCLOCK with type weights and static domain
    separation represent the type-aware classics.  The question this
    extension answers: does spatial feedback buy anything the
    frequency-based adapters do not already provide?
    """
    from repro.buffer.policies.arc import ARC as ARCPolicy
    from repro.buffer.policies.domain_separation import DomainSeparation
    from repro.buffer.policies.gclock import GClock, type_weight
    from repro.buffer.policies.two_q import TwoQ

    capacity = buffer_capacity(setup.db1, buffer_fraction)
    policies = {
        "ASB": ASB,
        "2Q": TwoQ,
        "ARC": ARCPolicy,
        "LRU-2": lambda: LRUK(k=2),
        "GCLOCK": lambda: GClock(initial_weight=type_weight),
        "DOMAIN": DomainSeparation,
    }
    return FigureResult(
        figure="Ablation adaptive-buffers",
        title="ASB vs 2Q, ARC, LRU-2, GCLOCK and domain separation (gains vs LRU)",
        headers=["query set"] + list(policies),
        rows=lru_gain_rows(setup, policies, sets, (buffer_fraction,), lead=("set",)),
        notes=f"database 1, buffer = {capacity} pages",
    )


def _object_page_workload(setup: PaperSetup, n_objects: int, seed_offset: int):
    """A tree whose leaves reference object pages, and its S-W-100 workload.

    Returns the tree, its object store and ``misses(manager)``, which runs
    the windows with ``fetch_objects=True`` through a buffer manager and
    returns its miss count.
    """
    dataset = us_mainland_like(n_objects=n_objects, seed=setup.seed + seed_offset)
    tree, store = build_tree_with_objects(
        dataset, lambda pagefile: RStarTree(pagefile=pagefile)
    )
    windows = [
        query.region
        for query in make_query_set(
            "S-W-100", dataset, setup.db1.places, setup.n_queries, setup.seed
        )
    ]

    def misses(manager) -> int:
        for window in windows:
            with manager.query_scope():
                tree.window_query(window, manager, fetch_objects=True)
        return manager.stats.misses

    return tree, store, misses


def ablation_object_pages(
    setup: PaperSetup,
    buffer_fraction: float = 0.047,
    n_objects: int = 12_000,
) -> FigureResult:
    """All three page categories in one buffer (Section 2.1's full setting).

    The paper stores object pages in separate files and buffers and
    reports only tree accesses; this ablation runs the window queries with
    ``fetch_objects=True`` against a single shared buffer, so directory,
    data and object pages compete for frames — the setting LRU-T was
    designed for (drop object pages first, keep directory pages longest).
    """
    from repro.buffer.policies.lru_t import LRUT

    tree, store, misses = _object_page_workload(setup, n_objects, 6)
    total_pages = tree.stats().page_count + store.page_count
    capacity = max(8, round(buffer_fraction * total_pages))
    policies = {
        "LRU": LRU,
        "LRU-T": LRUT,
        "LRU-P": LRUP,
        "LRU-2": lambda: LRUK(k=2),
        "A": lambda: SpatialPolicy("A"),
        "ASB": ASB,
    }
    return FigureResult(
        figure="Ablation object-pages",
        title="Three page categories (directory/data/object) in one buffer",
        headers=["policy", "reads", "gain vs LRU"],
        rows=append_gain(
            [
                [name, misses(BufferManager(tree.pagefile.disk, capacity, factory()))]
                for name, factory in policies.items()
            ]
        ),
        notes=(
            f"{tree.stats().page_count} tree pages + {store.page_count} "
            f"object pages; buffer = {capacity} pages; S-W-100 with "
            "fetch_objects=True"
        ),
    )


def ablation_partitioned_buffer(
    setup: PaperSetup,
    buffer_fraction: float = 0.047,
    n_objects: int = 12_000,
) -> FigureResult:
    """Shared buffer vs per-category partitions (the paper's architecture).

    The paper buffers object pages separately from the tree; this ablation
    compares, at equal total memory, a single shared buffer against
    partitioned layouts with different policy assignments — including the
    natural hybrid: spatial replacement for the tree partition, LRU for
    the object partition.
    """
    from repro.buffer.partitioned import PartitionedBufferManager
    from repro.storage.page import PageType

    tree, store, misses = _object_page_workload(setup, n_objects, 7)
    total_pages = tree.stats().page_count + store.page_count
    capacity = max(12, round(buffer_fraction * total_pages))
    tree_share = max(4, round(capacity * 0.5))
    dir_share = max(2, round(tree_share * 0.15))
    data_share = tree_share - dir_share
    object_share = capacity - tree_share
    disk = tree.pagefile.disk

    def split(data_policy) -> PartitionedBufferManager:
        return PartitionedBufferManager(
            disk,
            {
                PageType.DIRECTORY: (dir_share, LRU()),
                PageType.DATA: (data_share, data_policy),
                PageType.OBJECT: (object_share, LRU()),
            },
        )

    layouts = {
        "shared LRU": lambda: BufferManager(disk, capacity, LRU()),
        "shared ASB": lambda: BufferManager(disk, capacity, ASB()),
        "split LRU/LRU": lambda: split(LRU()),
        "split A/LRU": lambda: split(SpatialPolicy("A")),
    }
    return FigureResult(
        figure="Ablation partitioned-buffer",
        title="Shared vs per-category buffers at equal total memory",
        headers=["layout", "reads", "gain vs shared LRU"],
        rows=append_gain(
            [[name, misses(factory())] for name, factory in layouts.items()]
        ),
        notes=(
            f"total = {capacity} frames (dir {dir_share} / data {data_share} "
            f"/ object {object_share} in the split layouts); S-W-100 with "
            "fetch_objects=True"
        ),
    )


def ablation_updates(
    setup: PaperSetup,
    n_updates: int = 600,
    n_queries: int = 300,
    buffer_fraction: float = 0.047,
    moving: bool = False,
) -> FigureResult:
    """Updates and moving objects through the buffer (future work #2/#3).

    Builds a fresh tree per policy (updates mutate it), replays an
    interleaved stream of window queries and index updates, and reports
    disk reads, write-backs and the total-access gain over LRU.  With
    ``moving=True`` the update half is a pure moving-objects stream.
    """
    from repro.workloads.updates import (
        interleave,
        moving_objects_stream,
        update_stream,
    )

    dataset = us_mainland_like(n_objects=12_000, seed=setup.seed + 5)
    queries = list(
        make_query_set("S-W-100", dataset, setup.db1.places, n_queries, setup.seed)
    )
    if moving:
        updates = moving_objects_stream(dataset, n_updates, seed=setup.seed)
    else:
        updates = update_stream(dataset, n_updates, seed=setup.seed)
    stream = interleave(queries, updates, seed=setup.seed)
    rows: list[list[object]] = []
    capacity = 0
    for name, factory in FOUR_POLICIES.items():
        tree = RStarTree()
        tree.bulk_load(dataset.items())
        capacity = max(8, round(buffer_fraction * tree.stats().page_count))
        stats = replay_mixed(tree, stream, factory(), capacity).stats
        rows.append(
            [name, stats.misses, stats.writebacks, stats.misses + stats.writebacks]
        )
    kind = "moving objects" if moving else "inserts/deletes/moves"
    return FigureResult(
        figure="Ablation updates" + ("-moving" if moving else ""),
        title=f"Queries interleaved with {kind}, through the buffer",
        headers=["policy", "reads", "writebacks", "total", "gain vs LRU"],
        rows=append_gain(rows),
        notes=(
            f"{n_queries} S-W-100 queries + {n_updates} updates, "
            f"buffer = {capacity} pages"
        ),
    )


def ablation_multiclient(
    setup: PaperSetup,
    client_sets: tuple[str, ...] = ("U-W-100", "S-W-100", "INT-W-100"),
    buffer_fraction: float = 0.047,
) -> FigureResult:
    """Concurrent clients sharing one buffer (beyond the paper's protocol).

    Three clients with different distributions interleave at the buffer;
    the same queries also run sequentially for contrast.  Interleaving
    stretches reuse distances, so per-policy behaviour under concurrency
    is a robustness test of its own.
    """
    from repro.workloads.multiclient import ClientStream, replay_clients

    database = setup.db1
    capacity = buffer_capacity(database, buffer_fraction)
    clients = [
        ClientStream(
            name=set_name,
            queries=database.query_set(
                set_name, setup.n_queries, setup.seed
            ).queries,
        )
        for set_name in client_sets
    ]
    sequential = run_grid(setup, FOUR_POLICIES, client_sets, (buffer_fraction,))
    rows: list[list[object]] = []
    for name, factory in FOUR_POLICIES.items():
        buffer, _ = replay_clients(
            database.tree, clients, factory(), capacity, seed=setup.seed
        )
        rows.append(
            [
                name,
                buffer.stats.misses,
                sum(cell.counts[name] for cell in sequential),
            ]
        )
    return FigureResult(
        figure="Ablation multiclient",
        title="Three interleaved clients vs sequential execution",
        headers=["policy", "interleaved reads", "sequential reads", "gain vs LRU"],
        rows=append_gain(rows, column=1),
        notes=(
            f"clients: {', '.join(client_sets)}; "
            f"{setup.n_queries} queries each; buffer = {capacity} pages"
        ),
    )


def ablation_opt_gap(
    setup: PaperSetup,
    buffer_fraction: float = 0.047,
    sets: tuple[str, ...] = ("U-W-100", "S-W-100", "INT-W-100"),
) -> FigureResult:
    """How far from Belady's optimum does each policy land?

    Records each query set's reference trace once, computes the offline
    OPT miss count, and reports every policy's misses as a percentage
    above OPT.  The gap shows the remaining headroom: where even OPT
    barely beats LRU, no replacement cleverness can pay off.
    """
    from repro.experiments.analysis import opt_misses
    from repro.experiments.trace import record_trace, replay_trace

    database = setup.db1
    capacity = buffer_capacity(database, buffer_fraction)
    traces = {
        set_name: record_trace(
            database.tree,
            database.query_set(set_name, setup.n_queries, setup.seed),
        )
        for set_name in sets
    }
    cells = run_grid(
        setup,
        FOUR_POLICIES,
        traces,
        (buffer_fraction,),
        measure=lambda index, trace, policy, capacity: replay_trace(
            trace, policy, capacity
        ).misses,
    )
    rows: list[list[object]] = []
    for cell in cells:
        optimum = opt_misses(traces[cell.set], capacity)
        gaps = [
            f"+{(misses / optimum - 1) * 100:.1f}%" for misses in cell.counts.values()
        ]
        rows.append([cell.set, optimum] + gaps)
    return FigureResult(
        figure="Ablation opt-gap",
        title="Distance from Belady's offline optimum (misses above OPT)",
        headers=["query set", "OPT misses"] + list(FOUR_POLICIES),
        rows=rows,
        notes=f"database 1, buffer = {capacity} pages",
    )


def ablation_build_method(
    setup: PaperSetup,
    n_objects: int = 8_000,
    buffer_fraction: float = 0.047,
) -> FigureResult:
    """STR vs Hilbert packing vs R* insertion (EXPERIMENTS.md's hypothesis).

    The paper's trees were grown by R* insertion; ours are bulk loaded.
    Insertion-grown trees have looser, more overlapping directory MBRs, so
    queries into sparse regions (database 2's water) descend further —
    which is the suspected cause of the db2-independent deviation.  This
    ablation builds the same world-atlas dataset three ways (smaller
    fanout keeps insertion affordable) and compares structure and query
    cost per build method.
    """
    from repro.datasets.synthetic import world_atlas_like

    dataset = world_atlas_like(n_objects=n_objects, seed=setup.seed + 10)
    items = dataset.items()

    def build(method: str) -> RStarTree:
        tree = RStarTree()  # paper fanout (numpy-accelerated insertion)
        if method == "insert":
            for mbr, payload in items:
                tree.insert(mbr, payload)
        else:
            tree.bulk_load(items, method=method)
        return tree

    def directory_overlap(tree: RStarTree) -> float:
        pages = [
            tree.pagefile.disk.peek(pid)
            for pid in tree.all_page_ids()
        ]
        leaf_mbrs = [page.mbr() for page in pages if page.is_leaf]
        total = 0.0
        for i in range(len(leaf_mbrs)):
            for j in range(i + 1, len(leaf_mbrs)):
                total += leaf_mbrs[i].intersection_area(leaf_mbrs[j])
        return total

    rows: list[list[object]] = []
    for method in ("str", "hilbert", "insert"):
        tree = build(method)
        pages = len(tree.all_page_ids())
        capacity = max(8, round(buffer_fraction * pages))
        query_set = make_query_set(
            "IND-W-100", dataset, setup.db1.places, setup.n_queries, setup.seed
        )
        lru = replay_misses(tree, query_set, LRU(), capacity)
        a = replay_misses(tree, query_set, SpatialPolicy("A"), capacity)
        rows.append(
            [
                method,
                pages,
                f"{directory_overlap(tree):.2e}",
                lru,
                format_gain(gain(lru, a)),
            ]
        )
    return FigureResult(
        figure="Ablation build-method",
        title="STR vs Hilbert vs R*-insertion builds (db2-like, IND-W-100)",
        headers=["build", "pages", "leaf overlap", "LRU reads", "gain(A)"],
        rows=rows,
        notes=f"{n_objects} objects, paper fanout 51/42, buffer {buffer_fraction:.1%}",
    )


def ablation_join(
    setup: PaperSetup,
    buffer_fraction: float = 0.047,
    n_left: int = 15_000,
    n_right: int = 15_000,
) -> FigureResult:
    """Spatial joins through one shared buffer (future work #2, join side).

    Joins two R*-trees (two map layers over the same region) with the
    synchronized-traversal join; both trees share one disk and one buffer.
    The join's access pattern alternates between the trees and revisits
    inner pages heavily — the workload where buffering decides the cost.
    The nested-loop row shows the algorithmic baseline under plain LRU.
    """
    from repro.sam.join import nested_loop_join, spatial_join
    from repro.storage.pagefile import PageFile

    pagefile = PageFile()
    # Two layers of one map: point features joined with extended features
    # (e.g. places x waterways), so the filter step finds real pairs.
    left = RStarTree(pagefile=pagefile)
    left.bulk_load(us_mainland_like(n_objects=n_left, seed=setup.seed + 8).items())
    right = RStarTree(pagefile=pagefile)
    right.bulk_load(
        us_mainland_like(
            n_objects=n_right,
            seed=setup.seed + 9,
            extended_fraction=1.0,
            mean_extent=0.004,
        ).items()
    )
    total_pages = len(left.all_page_ids()) + len(right.all_page_ids())
    capacity = max(8, round(buffer_fraction * total_pages))
    rows: list[list[object]] = []
    result_size = 0
    for name, factory in FOUR_POLICIES.items():
        buffer = BufferManager(pagefile.disk, capacity, factory())
        with buffer.query_scope():
            pairs = spatial_join(left, right, buffer, buffer)
        result_size = len(pairs)
        rows.append(["sync-traversal", name, buffer.stats.misses])
    nested = BufferManager(pagefile.disk, capacity, LRU())
    with nested.query_scope():
        nested_loop_join(left, right, nested, nested)
    rows.append(["nested-loop", "LRU", nested.stats.misses])
    return FigureResult(
        figure="Ablation join",
        title="R-tree spatial join through a shared buffer",
        headers=["algorithm", "policy", "reads", "gain vs sync/LRU"],
        rows=append_gain(rows),
        notes=(
            f"{n_left} x {n_right} objects, {result_size} result pairs, "
            f"buffer = {capacity} pages"
        ),
    )


def ablation_drifting_hotspot(
    setup: PaperSetup,
    buffer_fraction: float = 0.047,
    n_queries: int | None = None,
) -> FigureResult:
    """A continuously moving hotspot (non-stationary beyond Figure 14).

    Figure 14 switches the distribution abruptly; real interactive loads
    drift.  The hotspot orbits the map, so the working set never stops
    moving — recency-driven policies follow naturally, a static spatial
    preference chases the past, and ASB's knob must keep re-tuning.
    """
    from repro.workloads.patterns import drifting_hotspot

    database = setup.db1
    capacity = buffer_capacity(database, buffer_fraction)
    count = n_queries or 2 * setup.n_queries
    queries = drifting_hotspot(
        database.dataset.space, count, seed=setup.seed, extent=0.03
    )
    (cell,) = run_grid(
        setup, FOUR_POLICIES, {"drifting hotspot": queries}, (buffer_fraction,)
    )
    return FigureResult(
        figure="Ablation drifting-hotspot",
        title="A hotspot orbiting the map (continuously drifting working set)",
        headers=["policy", "reads", "gain vs LRU"],
        rows=append_gain([[name, misses] for name, misses in cell.counts.items()]),
        notes=f"{count} window queries, buffer = {capacity} pages",
    )


def ablation_knn(
    setup: PaperSetup,
    k_values: tuple[int, ...] = (1, 10, 50),
    buffer_fraction: float = 0.047,
) -> FigureResult:
    """Nearest-neighbour workloads (a query type beyond the paper's study).

    Best-first kNN search re-touches high tree levels through its priority
    queue and spirals outward from the query point; its locality profile
    sits between point and window queries.  Query points follow the
    intensified distribution (the spatial policies' hardest case).
    """
    import random as random_module

    from repro.workloads.queries import KnnQuery

    database = setup.db1
    capacity = buffer_capacity(database, buffer_fraction)
    rng = random_module.Random(setup.seed)
    weights = [place.weight_intensified for place in database.places]
    workloads: dict[str, list[KnnQuery]] = {}
    for k in k_values:
        chosen = rng.choices(database.places, weights=weights, k=setup.n_queries)
        workloads[f"k={k}"] = [KnnQuery(point=place.location, k=k) for place in chosen]
    policies = {name: FOUR_POLICIES[name] for name in ("LRU-2", "A", "ASB")}
    return FigureResult(
        figure="Ablation knn",
        title="k-nearest-neighbour workloads (intensified query points)",
        headers=["workload", "LRU reads"] + list(policies),
        rows=lru_gain_rows(
            setup, policies, workloads, (buffer_fraction,), lead=("set", "LRU")
        ),
        notes=f"database 1, buffer = {capacity} pages",
    )


def ablation_io_time(
    setup: PaperSetup,
    buffer_fraction: float = 0.047,
) -> FigureResult:
    """Random vs sequential I/O (paper future work #1, second half).

    The simulated disk charges a full seek for a random access and only
    the transfer time for a physically adjacent one.  Policies that evict
    structurally close pages together preserve more sequentiality, so the
    time ranking can differ from the pure access-count ranking.
    """

    def io_profile(index, query_set, policy, capacity) -> tuple[int, int, float]:
        stats = index.pagefile.disk.stats
        reads_before = stats.reads
        sequential_before = stats.sequential_reads
        elapsed_before = stats.elapsed_ms
        replay(index, query_set, policy, capacity)
        return (
            stats.reads - reads_before,
            stats.sequential_reads - sequential_before,
            stats.elapsed_ms - elapsed_before,
        )

    cells = run_grid(
        setup, FOUR_POLICIES, ABLATION_SETS, (buffer_fraction,), measure=io_profile
    )
    return FigureResult(
        figure="Ablation io-time",
        title="Access counts vs simulated I/O time (random 10 ms, seq. 1 ms)",
        headers=["query set", "policy", "reads", "sequential", "sim. time"],
        rows=[
            [
                cell.set,
                name,
                reads,
                f"{sequential / reads:.1%}" if reads else "n/a",
                f"{elapsed:.0f} ms",
            ]
            for cell in cells
            for name, (reads, sequential, elapsed) in cell.counts.items()
        ],
    )
