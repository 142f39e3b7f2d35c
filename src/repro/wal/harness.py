"""Crash-injection harness: the property that makes the WAL trustworthy.

The harness drives a random *durable update stream* — page writes, fresh
allocations, deallocations and commits — through a buffer manager wired
to a :class:`~repro.wal.manager.DurabilityManager`, with one crash point
armed.  When the simulated process dies, only the byte media survive
(data disk + durable log prefix); the harness then "reboots": it mounts
the media fresh, runs :func:`~repro.wal.recovery.recover`, and checks the
**crash property**:

    after a crash at any injection point, the recovered disk image is
    bit-identical to replaying the durable (= committed) log prefix onto
    the pre-run base image.

Streams are deterministic under their seed, so hypothesis can sweep
(seed × crash point × countdown) and every failure is replayable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.buffer.manager import BufferManager
from repro.buffer.policies.lru import LRU
from repro.geometry.rect import Rect
from repro.storage.page import Page, PageEntry, PageId, PageType
from repro.storage.serialization import max_entries_for
from repro.wal.crash import CRASH_POINTS, CrashError, CrashInjector
from repro.wal.durable import DurableDisk
from repro.wal.log import WriteAheadLog
from repro.wal.manager import DurabilityManager
from repro.wal.recovery import RecoveryReport, recover, replay_durable_prefix

#: One step of a durable update stream.
Step = tuple  # ("write", pid) | ("new", pid) | ("free", pid) | ("commit",)


def random_page(page_id: PageId, rng: random.Random, page_size: int) -> Page:
    """A page with 1-6 random entries (integer payloads, serialisable)."""
    page = Page(page_id=page_id, page_type=PageType.DATA, level=0)
    count = rng.randint(1, min(6, max_entries_for(page_size)))
    for _ in range(count):
        x = rng.random()
        y = rng.random()
        page.entries.append(
            PageEntry(
                mbr=Rect(x, y, x + rng.random() * 0.05, y + rng.random() * 0.05),
                payload=rng.randrange(1 << 30),
            )
        )
    return page


def mutate_page(page: Page, rng: random.Random, page_size: int) -> None:
    """Rewrite a page's entries in place (the content of an update).

    The list keeps its identity and may keep its length, so the caller
    follows with ``mark_dirty`` (as :func:`apply_steps` does): cached
    criteria and a scan block of the page go stale otherwise.
    """
    fresh = random_page(page.page_id, rng, page_size)
    page.entries[:] = fresh.entries


def random_steps(
    seed: int,
    count: int,
    base_pages: int,
    *,
    write_fraction: float = 0.55,
    new_fraction: float = 0.15,
    free_fraction: float = 0.10,
) -> list[Step]:
    """A self-consistent stream: writes and frees always target live pages.

    The remainder of the probability mass (default 20 %) are commits.
    Freed ids are reused LIFO like :class:`~repro.storage.pagefile.PageFile`.
    """
    rng = random.Random(seed)
    live = list(range(base_pages))
    freelist: list[PageId] = []
    next_id = base_pages
    steps: list[Step] = []
    for _ in range(count):
        roll = rng.random()
        if roll < write_fraction and live:
            steps.append(("write", rng.choice(live)))
        elif roll < write_fraction + new_fraction:
            page_id = freelist.pop() if freelist else next_id
            if page_id == next_id:
                next_id += 1
            steps.append(("new", page_id))
            live.append(page_id)
        elif roll < write_fraction + new_fraction + free_fraction and live:
            page_id = live.pop(rng.randrange(len(live)))
            freelist.append(page_id)
            steps.append(("free", page_id))
        else:
            steps.append(("commit",))
    return steps


def make_base_image(
    pages: int = 32, seed: int = 0, page_size: int = 512
) -> bytes:
    """Media with ``pages`` random pages stored — the pre-run state."""
    disk = DurableDisk(page_size=page_size)
    rng = random.Random(seed)
    for page_id in range(pages):
        disk.store(random_page(page_id, rng, page_size))
    return disk.image()


def apply_steps(
    buffer: BufferManager,
    durability: DurabilityManager,
    steps: Sequence[Step],
    rng: random.Random,
    page_size: int,
) -> int:
    """Apply a durable update stream; returns the number of steps applied.

    Shared by the crash harness (which wraps it in a crash handler) and
    the WAL benchmark (which times it).
    """
    applied = 0
    for step in steps:
        kind = step[0]
        if kind == "write":
            page = buffer.fetch(step[1])
            mutate_page(page, rng, page_size)
            buffer.mark_dirty(step[1])
        elif kind == "new":
            buffer.install(random_page(step[1], rng, page_size))
        elif kind == "free":
            durability.free_page(buffer, step[1])
        elif kind == "commit":
            durability.commit()
        else:  # pragma: no cover - stream generator bug
            raise ValueError(f"unknown step {step!r}")
        applied += 1
    return applied


@dataclass(slots=True)
class RunOutcome:
    """What survived one (possibly crashed) run."""

    crashed: bool
    crash_point: str | None
    steps_applied: int
    disk_image: bytes
    wal_image: bytes
    page_size: int


@dataclass(slots=True)
class PropertyResult:
    """One crash-property check: recovery vs durable-prefix replay."""

    outcome: RunOutcome
    report: RecoveryReport
    recovered_image: bytes
    expected_image: bytes

    @property
    def holds(self) -> bool:
        return self.recovered_image == self.expected_image


def run_stream(
    base_image: bytes,
    steps: Sequence[Step],
    *,
    seed: int = 0,
    page_size: int = 512,
    capacity: int = 8,
    group_window: int = 4,
    flush_interval: int = 7,
    flush_batch: int = 2,
    checkpoint_interval: int = 40,
    crash_point: str | None = None,
    crash_after: int = 0,
) -> RunOutcome:
    """Apply a durable update stream, optionally dying at a crash point.

    Returns only what a reboot would find: the two byte images.
    """
    injector = CrashInjector()
    if crash_point is not None:
        injector.arm(crash_point, after=crash_after)
    disk = DurableDisk.from_image(base_image, page_size=page_size, crash=injector)
    durability = DurabilityManager(
        disk,
        group_window=group_window,
        flush_interval=flush_interval,
        flush_batch=flush_batch,
        checkpoint_interval=checkpoint_interval,
    )
    buffer = BufferManager(disk, capacity, LRU(), durability=durability)
    rng = random.Random(seed ^ 0x5EED)
    applied = 0
    crashed = False
    try:
        # One step at a time so `applied` stays exact when a crash fires.
        for step in steps:
            apply_steps(buffer, durability, (step,), rng, page_size)
            applied += 1
    except CrashError:
        crashed = True
    return RunOutcome(
        crashed=crashed,
        crash_point=crash_point,
        steps_applied=applied,
        disk_image=disk.image(),
        wal_image=durability.wal.store.image(),
        page_size=page_size,
    )


def check_crash_property(base_image: bytes, outcome: RunOutcome) -> PropertyResult:
    """Reboot from the outcome's media, recover, and compare images.

    The WAL and disk are *remounted* from their byte images — volatile
    state (pending records, LSN tables, buffer frames) is deliberately
    lost, exactly as a crash loses it.
    """
    from repro.wal.bytestore import MemoryByteStore

    wal = WriteAheadLog(store=MemoryByteStore(outcome.wal_image))
    disk = DurableDisk.from_image(outcome.disk_image, page_size=outcome.page_size)
    report = recover(wal, disk)
    return PropertyResult(
        outcome=outcome,
        report=report,
        recovered_image=disk.image(),
        expected_image=replay_durable_prefix(
            wal, base_image, page_size=outcome.page_size
        ),
    )


@dataclass(slots=True)
class MatrixResult:
    """Crash-property results over a set of injection points."""

    results: dict[str, PropertyResult] = field(default_factory=dict)

    @property
    def all_hold(self) -> bool:
        return all(result.holds for result in self.results.values())

    def failing_points(self) -> list[str]:
        return sorted(
            point for point, result in self.results.items() if not result.holds
        )


def crash_matrix(
    seed: int = 0,
    steps_count: int = 120,
    base_pages: int = 32,
    points: Sequence[str] = CRASH_POINTS,
    crash_after: int = 2,
    **run_kwargs,
) -> MatrixResult:
    """Run one stream against every crash point and check the property.

    ``crash_after`` skips the first arrivals at the point so the crash
    lands mid-stream, where the most state is in flight.  Checkpoint
    points are armed with no countdown — checkpoints are rare events, and
    a countdown would outlive the stream without ever crashing.
    """
    base_image = make_base_image(
        pages=base_pages, seed=seed, page_size=run_kwargs.get("page_size", 512)
    )
    steps = random_steps(seed, steps_count, base_pages)
    matrix = MatrixResult()
    for point in points:
        outcome = run_stream(
            base_image,
            steps,
            seed=seed,
            crash_point=point,
            crash_after=0 if point.startswith("checkpoint") else crash_after,
            **run_kwargs,
        )
        matrix.results[point] = check_crash_property(base_image, outcome)
    return matrix
