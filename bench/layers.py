"""Per-layer measurement from outside the stack: spans, proxies and rungs.

Nothing here reaches into ``src/``.  A traced run places thin wrappers
round public seams (``buffer.fetch``, ``disk.read``/``write``, the WAL's
``append_page_image``/``commit``/``fsync``, ``query.run``, the client
calls) and keeps one span per call in memory: id, parent, name, start,
end and the op the work belongs to.  A layer's *self time* is its span
minus the part its child spans cover.

Rungs answer "what does one more layer cost": the same recorded
reference string (one page-id list per query) is replayed at successive
depths of the stack and the per-fetch times are subtracted.

Spans are linked through a per-thread stack, so causality is only
followed inside one thread.  The page server hands work to a pool, so
its server-side spans are roots without an op id; following a request
across that hop needs spans inside ``src/`` (ROADMAP item 5).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import random
import statistics
import threading
import time
from collections import defaultdict

from repro import BufferSystem
from repro.server import AdmissionController
from repro.server import protocol
from repro.storage.serialization import decode_page, encode_page

now = time.perf_counter_ns

#: How often a rung replay is repeated; the median is reported.
RUNG_REPEATS = 3


class Tracer:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self) -> None:
        #: (span id, parent id or 0, name, start ns, end ns, op id or 0)
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def call(self, name: str, op: int, function, *args):
        """Run ``function(*args)`` inside a span; ``op`` 0 inherits none."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = now()
        try:
            return function(*args)
        finally:
            end = now()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, op))

    async def await_(self, name: str, op: int, awaitable):
        """A root span round an awaitable (coroutines share a thread, so
        the parent stack is not used here)."""
        start = now()
        try:
            return await awaitable
        finally:
            self.spans.append((next(self._ids), 0, name, start, now(), op))

    def wrap(self, target: object, method: str, name: str):
        """Trace ``target.method`` in place; returns the undo callable."""
        inner = getattr(target, method)
        call = self.call

        def traced(*args):
            return call(name, 0, inner, *args)

        setattr(target, method, traced)
        return lambda: delattr(target, method)

    def write(self, path, counts: dict) -> None:
        """Dump the spans and the boundary counts as one JSON document."""
        with open(path, "w", encoding="utf-8") as out:
            json.dump(
                {
                    "columns": ["id", "parent", "name", "start_ns", "end_ns", "op"],
                    "spans": self.spans,
                    "counts": counts,
                },
                out,
            )


class TracedAccessor:
    """``PageAccessor`` proxy: one ``buffer.fetch`` span per fetch."""

    def __init__(self, inner: object, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def fetch(self, page_id: int):
        return self._tracer.call("buffer.fetch", 0, self._inner.fetch, page_id)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


def trace_storage(tracer: Tracer, disk: object, wal: object | None = None):
    """Wrap the disk (and WAL) seams; returns one undo callable."""
    undo = [
        tracer.wrap(disk, "read", "storage.read"),
        tracer.wrap(disk, "write", "storage.write"),
    ]
    if wal is not None:
        undo += [
            tracer.wrap(wal, "append_page_image", "wal.append"),
            tracer.wrap(wal, "commit", "wal.commit"),
            tracer.wrap(wal, "fsync", "wal.fsync"),
        ]

    def restore() -> None:
        for step in undo:
            step()

    return restore


# ----------------------------------------------------------------------
# Machine speed
# ----------------------------------------------------------------------


class SpeedKernel:
    """A fixed pure-Python computation that tells how fast the machine is.

    The sandbox this benchmark runs in slows down and speeds up by 20-30 %
    for minutes at a time (other tenants of the host): two run-sets of one
    commit, 14 minutes apart, differed by 17-33 % in every wall-clock
    median.  The kernel — index a list of lists and probe a dict in a fixed
    random order, no code from ``src/`` — is timed before and after every
    pass and every set-up; what it took, over ``NOMINAL_S``, is the speed
    factor that the pass's times are divided by.  Over 17 minutes of
    alternating kernel and pass, the quartile spread of six-pass medians
    fell from 18 % to 6 % (``embedded-miss``) and from 22 % to 8 %
    (``served-read``).
    """

    #: What one sample takes on the sandbox the bounds were set on, when it
    #: is quiet; the times reported are those of a machine of this speed.
    NOMINAL_S = 0.170
    #: ~40 MB of small objects, visited in random order: the slow stretches
    #: hit memory-bound work hardest, and a kernel that fits the caches
    #: (100k cells) follows a slow stretch a third as well.
    CELLS = 200_000
    STEPS = 400_000

    def __init__(self) -> None:
        rng = random.Random(0)
        self._cells = [[index] for index in range(self.CELLS)]
        self._table = {index: index for index in range(0, self.CELLS, 3)}
        self._order = [rng.randrange(self.CELLS) for _ in range(self.STEPS)]
        self.sample()  # the first sample pays for cold caches

    def sample(self) -> float:
        """Seconds one run of the kernel takes right now."""
        cells, probe = self._cells, self._table.get
        total = 0
        start = now()
        for index in self._order:
            total += cells[index][0] + probe(index, 1)
        return (now() - start) / 1e9

    def factor(self, before: float, after: float) -> float:
        """Speed factor of the stretch between two samples (1.0 = nominal,
        above 1.0 = a slower machine)."""
        return (before + after) / 2.0 / self.NOMINAL_S


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------


def percentile(samples: list[int], quantile: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return float(ordered[min(len(ordered) - 1, math.ceil(quantile * len(ordered)) - 1)])


def tail_quantile(count: int) -> float:
    """The highest of p99/p95/p90/p50 with ten samples beyond it."""
    for quantile in (0.99, 0.95, 0.90):
        if count * (1.0 - quantile) >= 10:
            return quantile
    return 0.50


# ----------------------------------------------------------------------
# Span analysis
# ----------------------------------------------------------------------


class SpanSummary:
    """Totals per span name, with self time and the hit/miss split."""

    def __init__(self, spans: list[tuple[int, int, str, int, int, int]]) -> None:
        child_ns: dict[int, int] = defaultdict(int)
        read_parents: set[int] = set()
        for _, parent, name, start, end, _ in spans:
            if parent:
                child_ns[parent] += end - start
                if name == "storage.read":
                    read_parents.add(parent)
        self.count: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        #: Time of the root spans: what one traced op cost end to end.
        self.root_ns = 0
        for span_id, parent, name, start, end, _ in spans:
            duration = end - start
            if name == "buffer.fetch":
                name = (
                    "buffer.fetch.miss"
                    if span_id in read_parents
                    else "buffer.fetch.hit"
                )
            self.count[name] += 1
            self.total_ns[name] += duration
            self.self_ns[name] += duration - child_ns.get(span_id, 0)
            if not parent:
                self.root_ns += duration

    def mean_us(self, name: str) -> float:
        """Mean self time of the spans called ``name``; 0.0 for none."""
        count = self.count.get(name, 0)
        return self.self_ns[name] / count / 1000.0 if count else 0.0

    def self_sum_share(self) -> float:
        """Sum of all self times over the time of the root spans (1.0
        when every child span lies inside its parent)."""
        if not self.root_ns:
            return 0.0
        return sum(self.self_ns.values()) / self.root_ns


# ----------------------------------------------------------------------
# Rungs: one reference string, successive depths of the stack
# ----------------------------------------------------------------------


def replay(accessor: object, reference: list[list[int]], scoped: bool = True) -> None:
    """Push a recorded reference string through any page accessor.

    ``scoped`` brackets each query's page list in a query scope, as the
    embedded query loop does; the page server fetches without one.
    """
    fetch = accessor.fetch
    if scoped:
        scope = accessor.query_scope
        for page_ids in reference:
            with scope():
                for page_id in page_ids:
                    fetch(page_id)
    else:
        for page_ids in reference:
            for page_id in page_ids:
                fetch(page_id)


def _median_us_per_item(run, items: int) -> float:
    samples = []
    for _ in range(RUNG_REPEATS):
        start = now()
        run()
        samples.append((now() - start) / items / 1000.0)
    return statistics.median(samples)


def fetch_count(reference: list[list[int]]) -> int:
    return sum(len(page_ids) for page_ids in reference)


def rung_buffer_us(
    reference: list[list[int]], *, scoped: bool = True, **build
) -> float:
    """One buffer rung: µs per fetch through a fresh system per repeat."""

    def run() -> None:
        replay(BufferSystem.build(**build).buffer, reference, scoped)

    return _median_us_per_item(run, fetch_count(reference))


def traced_fetch_self_us(
    reference_sets: list[list[list[int]]], *, disk: object, keep_buffer: bool, **build
) -> tuple[float, float]:
    """(hit, miss) ``buffer.fetch`` self time of a traced reference replay.

    ``keep_buffer`` serves every set from one buffer that an untraced
    replay has warmed (the buffer that fits); otherwise each set starts
    from a fresh one, as the query loop of the workload does.
    """
    tracer = Tracer()
    kept = None
    if keep_buffer:
        kept = BufferSystem.build(disk=disk, **build)
        for reference in reference_sets:
            replay(kept.buffer, reference)
    restore = trace_storage(tracer, disk)
    try:
        for reference in reference_sets:
            system = kept if keep_buffer else BufferSystem.build(disk=disk, **build)
            replay(TracedAccessor(system.buffer, tracer), reference)
    finally:
        restore()
    summary = SpanSummary(tracer.spans)
    return summary.mean_us("buffer.fetch.hit"), summary.mean_us("buffer.fetch.miss")


def rung_codec_us(pages: list, page_size: int) -> tuple[float, float]:
    """(encode, decode) µs per page over the pages of the reference."""
    blobs = [encode_page(page, page_size) for page in pages]
    encode = _median_us_per_item(
        lambda: [encode_page(page, page_size) for page in pages], len(pages)
    )
    decode = _median_us_per_item(
        lambda: [decode_page(blob, page.page_id) for blob, page in zip(blobs, pages)],
        len(pages),
    )
    return encode, decode


def rung_protocol_us(reference: list[list[int]]) -> tuple[float, float]:
    """(pack, unpack) µs per FETCH_MANY request frame."""
    frames = [
        protocol.encode_request(
            protocol.Op.FETCH_MANY, index + 1, protocol.pack_page_ids(page_ids)
        )
        for index, page_ids in enumerate(reference)
    ]

    def pack() -> None:
        for index, page_ids in enumerate(reference):
            protocol.encode_request(
                protocol.Op.FETCH_MANY, index + 1, protocol.pack_page_ids(page_ids)
            )

    def unpack() -> None:
        for frame in frames:
            _, _, payload = protocol.decode_head(frame[4:])
            protocol.unpack_page_ids(payload)

    return (
        _median_us_per_item(pack, len(reference)),
        _median_us_per_item(unpack, len(reference)),
    )


def rung_admission_us(rounds: int = 5000) -> float:
    """µs for one uncontended ``acquire`` + ``release`` pair."""
    controller = AdmissionController()

    async def run() -> None:
        for _ in range(rounds):
            await controller.acquire(1)
            controller.release(1)

    return _median_us_per_item(lambda: asyncio.run(run()), rounds)
