"""Micro-benchmark of the buffer hot path (``bench hotpath``).

Three measurements, one report (``BENCH_hotpath.json``):

* **Core fetch loop** — single-thread fetches/sec through
  ``BufferManager.fetch``, split into a *hit* workload (buffer as large
  as the page set, fully warmed — every fetch is a hit, issued in query
  scopes of :data:`HIT_SCOPE` pages like every real driver does) and a
  *miss* workload (capacity far below the page set — mostly
  evict-and-admit).
  Measured for a representative policy set (LRU, MRU, SLRU and the
  paper's ASB) as the best of ``reps`` repetitions.

* **Batched wire sweep** — a live :class:`~repro.server.PageServer`
  fetching the same page list through ``FETCH_MANY`` batches of
  1/8/32/128 pages (batch 1 = pipelined single FETCHes).  One frame,
  one admission decision and one ``writelines`` per batch is the whole
  point; the sweep shows pages/sec against batch size.

* **p99 scenario** — the existing 8-client serve cell
  (:func:`repro.experiments.servebench.measure_serve_point`), so the
  committed report tracks tail latency of the full service under the
  same load ``bench serve`` uses.

The **baseline section** is the pre-refactor core measured *once* with
this very file run as a standalone script against the seed tree
(``PYTHONPATH=<seed>/src python src/repro/experiments/hotpath.py
--measure-core --out baseline.json``) and carried forward verbatim —
regenerating the report re-measures the current core but never touches
the recorded baseline, so the hit-path acceptance guard keeps meaning
"vs. the code before the slot-table rewrite".

Everything from ``repro`` is imported lazily: the measurement functions
must run unmodified against trees that predate this module.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import time
from dataclasses import dataclass, field

__all__ = [
    "DEFAULT_POLICIES",
    "HotpathReport",
    "measure_core",
    "measure_batch_sweep",
    "run_hotpath_bench",
]

#: The policy set the core loop is measured for: the two list-walk
#: baselines, the static spatial combination and the paper's adaptive one.
DEFAULT_POLICIES = ("LRU", "MRU", "SLRU", "ASB")

#: Pages per query scope in the hit loop — the stack benchmark's
#: (``bench/run.py``) 16.3 pages per query, rounded.
HIT_SCOPE = 16

#: Batch sizes of the wire sweep; 1 means pipelined single FETCHes.
DEFAULT_BATCHES = (1, 8, 32, 128)


# ----------------------------------------------------------------------
# Core fetch loop (works against any tree — imports are lazy)
# ----------------------------------------------------------------------


def _make_disk(pages: int, entries_per_page: int = 4, seed: int = 2002):
    from repro.geometry.rect import Rect
    from repro.storage.disk import SimulatedDisk
    from repro.storage.page import Page, PageEntry, PageType

    rng = random.Random(seed)
    disk = SimulatedDisk()
    for page_id in range(pages):
        page = Page(page_id=page_id, page_type=PageType.DATA, level=0)
        for payload in range(entries_per_page):
            x, y = rng.random(), rng.random()
            page.entries.append(
                PageEntry(mbr=Rect(x, y, x + 0.05, y + 0.05), payload=payload)
            )
        disk.store(page)
    return disk


def _bench_hit(policy_name: str, requests: int, pages: int) -> float:
    """Fetches/sec with a fully-warmed buffer — every fetch is a hit.

    The paper issues every page request inside a query (Section 2.2), so
    the loop brackets its fetches in query scopes of :data:`HIT_SCOPE`.
    """
    from repro.buffer.manager import BufferManager
    from repro.buffer.policies import make_policy

    buffer = BufferManager(_make_disk(pages), pages, make_policy(policy_name))
    rng = random.Random(7)
    ids = [rng.randrange(pages) for _ in range(requests)]
    queries = [
        ids[start : start + HIT_SCOPE] for start in range(0, requests, HIT_SCOPE)
    ]
    for page_id in range(pages):
        buffer.fetch(page_id)  # warm: page set == capacity
    fetch = buffer.fetch
    query_scope = buffer.query_scope
    started = time.perf_counter()
    for query in queries:
        with query_scope():
            for page_id in query:
                fetch(page_id)
    seconds = time.perf_counter() - started
    if buffer.stats.hits < requests:
        raise AssertionError("hit workload produced misses — not warmed?")
    return requests / seconds


def _bench_miss(
    policy_name: str, requests: int, pages: int, capacity: int
) -> float:
    """Fetches/sec with capacity far below the page set — mostly misses."""
    from repro.buffer.manager import BufferManager
    from repro.buffer.policies import make_policy

    buffer = BufferManager(
        _make_disk(pages), capacity, make_policy(policy_name)
    )
    rng = random.Random(11)
    ids = [rng.randrange(pages) for _ in range(requests)]
    fetch = buffer.fetch
    started = time.perf_counter()
    for page_id in ids:
        fetch(page_id)
    seconds = time.perf_counter() - started
    return requests / seconds


def measure_core(
    policies=DEFAULT_POLICIES,
    *,
    hit_requests: int = 200_000,
    hit_pages: int = 64,
    miss_requests: int = 50_000,
    miss_pages: int = 512,
    miss_capacity: int = 16,
    reps: int = 5,
) -> dict:
    """Best-of-``reps`` hit/miss fetches per second, per policy."""
    results: dict[str, dict[str, float]] = {}
    for name in policies:
        hit = max(
            _bench_hit(name, hit_requests, hit_pages) for _ in range(reps)
        )
        miss = max(
            _bench_miss(name, miss_requests, miss_pages, miss_capacity)
            for _ in range(reps)
        )
        results[name] = {
            "hit_fps": round(hit, 1),
            "miss_fps": round(miss, 1),
        }
    return results


# ----------------------------------------------------------------------
# Batched wire sweep + p99 scenario (current tree only)
# ----------------------------------------------------------------------


@dataclass(slots=True)
class BatchPoint:
    """One cell of the batched-fetch sweep."""

    batch: int
    pages_fetched: int
    seconds: float

    @property
    def pages_per_second(self) -> float:
        if self.seconds <= 0.0:
            return 0.0
        return self.pages_fetched / self.seconds

    def to_dict(self) -> dict:
        return {
            "batch": self.batch,
            "pages_fetched": self.pages_fetched,
            "seconds": round(self.seconds, 4),
            "pages_per_second": round(self.pages_per_second, 1),
        }


def measure_batch_sweep(
    *,
    policy: str = "LRU",
    capacity: int = 128,
    pages: int = 256,
    page_size: int = 512,
    total_pages: int = 4096,
    batches=DEFAULT_BATCHES,
    seed: int = 7,
) -> list[BatchPoint]:
    """Pages/sec fetching ``total_pages`` per batch size over one server.

    Batch 1 goes through single pipelined ``FETCH`` requests (the
    pre-batching wire behaviour); larger batches use ``FETCH_MANY``.
    One server serves the whole sweep so every cell sees a warm buffer.
    """
    import asyncio

    from repro.api import BufferSystem
    from repro.client import AsyncPageClient
    from repro.experiments.servebench import make_seed_page
    from repro.server import ServerThread

    system = BufferSystem.build(
        policy=policy, capacity=capacity, shards=None,
        durability=False, page_size=page_size,
    )
    for page_id in range(pages):
        system.disk.store(make_seed_page(page_id, page_id, page_size))
    rng = random.Random(seed)
    ids = [rng.randrange(pages) for _ in range(total_pages)]
    points: list[BatchPoint] = []

    async def _sweep(host: str, port: int) -> None:
        client = await AsyncPageClient.connect(host, port, page_size=page_size)
        try:
            await client.fetch_many(ids[:64])  # warm connection + buffer
            for batch in batches:
                started = time.perf_counter()
                if batch == 1:
                    for start in range(0, len(ids), 64):
                        await asyncio.gather(
                            *(client.fetch(pid) for pid in ids[start : start + 64])
                        )
                else:
                    for start in range(0, len(ids), batch):
                        await client.fetch_many(ids[start : start + batch])
                seconds = time.perf_counter() - started
                points.append(
                    BatchPoint(
                        batch=batch, pages_fetched=len(ids), seconds=seconds
                    )
                )
        finally:
            await client.close()

    with ServerThread(
        system, max_inflight=16, max_queued=256, page_size=page_size
    ) as server:
        asyncio.run(_sweep(server.host, server.port))
    return points


def measure_p99_scenario(*, seed: int = 7) -> dict:
    """The existing 8-client serve cell, as ``bench serve`` runs it."""
    from repro.experiments.servebench import measure_serve_point

    point = measure_serve_point(
        policy="LRU", capacity=128, shards=4, pages=512, page_size=512,
        clients=8, requests_per_client=400, seed=seed,
    )
    return point.to_dict()


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------


def _geomean(values) -> float:
    values = list(values)
    if not values or any(value <= 0 for value in values):
        return 0.0
    return math.exp(sum(math.log(value) for value in values) / len(values))


@dataclass(slots=True)
class HotpathReport:
    """The full ``bench hotpath`` report."""

    core: dict
    baseline: dict
    batch_points: list[BatchPoint] = field(default_factory=list)
    p99_8_clients: dict | None = None
    config: dict = field(default_factory=dict)
    seed: int | None = None

    def speedups(self) -> dict:
        """Per-policy current/baseline ratios plus their geometric means."""
        out: dict = {}
        hit_ratios, miss_ratios = [], []
        base_core = self.baseline.get("core", {})
        for name, numbers in self.core.items():
            base = base_core.get(name)
            if not base:
                continue
            hit = numbers["hit_fps"] / base["hit_fps"] if base["hit_fps"] else 0.0
            miss = (
                numbers["miss_fps"] / base["miss_fps"] if base["miss_fps"] else 0.0
            )
            out[name] = {"hit": round(hit, 3), "miss": round(miss, 3)}
            hit_ratios.append(hit)
            miss_ratios.append(miss)
        out["geomean_hit"] = round(_geomean(hit_ratios), 3)
        out["geomean_miss"] = round(_geomean(miss_ratios), 3)
        return out

    def acceptance(self) -> dict:
        speedups = self.speedups()
        batched = [p for p in self.batch_points if p.batch > 1]
        unbatched = [p for p in self.batch_points if p.batch == 1]
        batching_wins = bool(
            batched
            and unbatched
            and max(p.pages_per_second for p in batched)
            > unbatched[0].pages_per_second
        )
        return {
            "hit_speedup_geomean_geq_1x": speedups["geomean_hit"] >= 1.0,
            "miss_speedup_geomean_geq_1x": speedups["geomean_miss"] >= 1.0,
            "batching_improves_throughput": batching_wins,
        }

    def to_dict(self) -> dict:
        from repro.experiments.benchmeta import run_metadata

        return {
            "benchmark": "hotpath",
            "meta": run_metadata(self.seed),
            "config": self.config,
            "baseline": self.baseline,
            "core": self.core,
            "speedups": self.speedups(),
            "batch": {"points": [point.to_dict() for point in self.batch_points]},
            "p99_8_clients": self.p99_8_clients,
            "acceptance": self.acceptance(),
        }

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def to_text(self) -> str:
        speedups = self.speedups()
        lines = [
            "hotpath: single-thread core fetch loop (best of reps)",
            f"{'policy':>8} {'hit f/s':>12} {'miss f/s':>12} "
            f"{'hit x':>7} {'miss x':>7}",
        ]
        for name, numbers in self.core.items():
            ratio = speedups.get(name, {})
            lines.append(
                f"{name:>8} {numbers['hit_fps']:>12.0f} "
                f"{numbers['miss_fps']:>12.0f} "
                f"{ratio.get('hit', 0.0):>7.2f} {ratio.get('miss', 0.0):>7.2f}"
            )
        lines.append(
            f"geomean hit speedup {speedups['geomean_hit']:.2f}x, "
            f"miss {speedups['geomean_miss']:.2f}x "
            f"(baseline rev {self.baseline.get('git_rev', 'unknown')})"
        )
        if self.batch_points:
            lines.append("batched wire sweep (FETCH_MANY vs pipelined singles):")
            lines.append(f"{'batch':>7} {'pages/s':>12}")
            for point in self.batch_points:
                lines.append(
                    f"{point.batch:>7} {point.pages_per_second:>12.0f}"
                )
        if self.p99_8_clients:
            lines.append(
                f"8-client scenario: p99 {self.p99_8_clients['p99_ms']:.2f} ms, "
                f"p50 {self.p99_8_clients['p50_ms']:.2f} ms, "
                f"{self.p99_8_clients['throughput']:.0f} req/s"
            )
        verdict = self.acceptance()
        lines.append(
            "acceptance: "
            + ", ".join(f"{key}={ok}" for key, ok in sorted(verdict.items()))
        )
        return "\n".join(lines)


def load_baseline(path: str) -> dict:
    """A baseline section from a ``--measure-core`` JSON or a full report."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if "baseline" in data and "core" in data.get("baseline", {}):
        return data["baseline"]  # carried forward from an existing report
    if "core" not in data:
        raise ValueError(
            f"{path}: expected a measure-core JSON with a 'core' section"
        )
    return {
        "core": data["core"],
        "git_rev": data.get("git_rev", "unknown"),
        "recorded_utc": data.get("recorded_utc", "unknown"),
    }


def run_hotpath_bench(
    *,
    baseline: dict,
    policies=DEFAULT_POLICIES,
    hit_requests: int = 200_000,
    miss_requests: int = 50_000,
    reps: int = 5,
    include_serve: bool = True,
    seed: int = 7,
) -> HotpathReport:
    """The full ``bench hotpath`` run against a recorded baseline."""
    config = {
        "policies": list(policies),
        "hit_requests": hit_requests,
        "hit_pages": 64,
        "hit_scope": HIT_SCOPE,
        "miss_requests": miss_requests,
        "miss_pages": 512,
        "miss_capacity": 16,
        "reps": reps,
    }
    core = measure_core(
        policies,
        hit_requests=hit_requests,
        miss_requests=miss_requests,
        reps=reps,
    )
    report = HotpathReport(
        core=core, baseline=baseline, config=config, seed=seed
    )
    if include_serve:
        report.batch_points = measure_batch_sweep(seed=seed)
        report.p99_8_clients = measure_p99_scenario(seed=seed)
    return report


# ----------------------------------------------------------------------
# Standalone entry point — used to record the pre-refactor baseline
# ----------------------------------------------------------------------


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Measure the core fetch loop of whatever 'repro' tree is on "
            "PYTHONPATH and write the numbers as JSON (the baseline "
            "recording mode of bench hotpath)."
        )
    )
    parser.add_argument("--measure-core", action="store_true", required=True,
                        help="run the core hit/miss measurement only")
    parser.add_argument("--out", required=True, help="output JSON path")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--hit-requests", type=int, default=200_000)
    parser.add_argument("--miss-requests", type=int, default=50_000)
    args = parser.parse_args(argv)
    core = measure_core(
        hit_requests=args.hit_requests,
        miss_requests=args.miss_requests,
        reps=args.reps,
    )
    try:
        from repro.experiments.benchmeta import git_revision

        rev = git_revision()
    except Exception:  # pragma: no cover - ancient trees
        rev = "unknown"
    from datetime import datetime, timezone

    payload = {
        "core": core,
        "git_rev": rev,
        "recorded_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for name, numbers in core.items():
        print(
            f"{name:6s} hit: {numbers['hit_fps']:12.0f} f/s   "
            f"miss: {numbers['miss_fps']:12.0f} f/s"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(_main())
