"""The four workloads: inputs from a seed, set-up, one pass, output checks.

One system under test serves all of them: a clustered synthetic map,
STR-bulk-loaded into an R*-tree (51/42 entries per page), read through an
``ASB`` buffer built by ``BufferSystem.build``.  The seed drives the
dataset, the places file, the query sets and the clients' write choices;
the stack only ever sees the generated inputs.

Each query family is replayed as ``sets_per_family`` independent query
sets with the buffer cleared before every set (the paper's protocol).
Several short sets instead of one long one, because ASB's adaptation is
order-sensitive: over ten seeds one 300-query INT-W-33 set reads between
1.00x and 1.38x LRU's pages, the sum over ten 80-query sets between
1.04x and 1.11x over twenty.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import random
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro import (
    BufferSystem,
    ClusterSystem,
    DirectAccessor,
    Page,
    PageEntry,
    us_mainland_like,
)
from repro.client import AsyncPageClient, ConnectionLost, RetryAfter, ServerError
from repro.cluster import RoutingClient
from repro.experiments.harness import build_database
from repro.server import ServerThread
from repro.storage.serialization import encode_page
from repro.tuning import TuningSpec
from repro.wal import (
    PAGE_IMAGE,
    DurabilityManager,
    DurableDisk,
    FileByteStore,
    MemoryByteStore,
    WriteAheadLog,
    recover,
)

import layers
from layers import TracedAccessor, Tracer, now, percentile, tail_quantile

PAGE_SIZE = 4096
POLICY = "ASB"
#: Counts ASB's adaptations; one list append per adaptation.
POLICY_KWARGS = {"record_trace": True}
FAMILIES = ("U-W-100", "ID-W", "S-W-100", "INT-W-33", "IND-W-100")
#: The paper's largest relative buffer: 4.7 % of the tree's pages.
BUFFER_FRACTION = 0.047
SHARDS = 4
CONNECTIONS = 2
#: Flush policy of the served systems: an fsync on every 4th commit, a
#: background write-back of cold dirty frames every 64 buffer requests.
GROUP_WINDOW = 4
FLUSH_INTERVAL = 64
#: ``served-mixed``: share of requests followed by a write, pages per write.
WRITE_SHARE = 0.25
WRITE_PAGES = 4
#: Payloads written by the clients start here, above every object id.
FIRST_TOKEN = 10**9
#: Requests re-fetched with a byte-for-byte check after the timed passes.
VERIFY_REQUESTS = 100
#: Requests of the rungs that cross the loopback socket.
LOOPBACK_RUNG_REQUESTS = 200

#: The database (dataset, places, tree) is the same in every run; the
#: run's seed draws the query sets and the write choices.  With the map
#: itself redrawn per seed, disk reads per query spread by 14 % of the median
#: over ten seeds and queries per second by 28 %, far beyond any bound.
DATABASE_SEED = 7

BENCH_DIR = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Scale:
    n_objects: int
    n_places: int
    sets_per_family: int
    queries_per_set: int
    #: Requests of one served pass (and of the rung replays): a slice of
    #: the request list, which alternates between the families.
    pass_requests: int


#: ~5.7k tree pages, 267 frames at 4.7 %.  The issue sized the system at
#: 400k objects; 92 driver runs in 3420 s with set-up measured three times
#: per run leave room for 160k.  Buffer sizes are relative, as in the paper.
FULL = Scale(160_000, 1_200, 10, 80, 500)
SMOKE = Scale(20_000, 300, 2, 40, 200)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


@dataclass
class ReplaySet:
    """One query set and what an unbuffered replay of it returned."""

    family: int
    queries: tuple
    #: Page ids each query requests, in order (the reference string).
    pages: list[list[int]] = field(default_factory=list)
    #: Hash of each query's result list.
    results: list[int] = field(default_factory=list)


@dataclass
class Inputs:
    seed: int
    scale: Scale
    database: object
    sets: list[ReplaySet]
    #: Seconds of the set-up parts, by layer.
    parts: dict[str, float]

    @property
    def tree(self):
        return self.database.tree

    @property
    def disk(self):
        return self.database.tree.pagefile.disk

    @property
    def page_count(self) -> int:
        return self.database.page_count

    @property
    def frames(self) -> int:
        return max(8, round(BUFFER_FRACTION * self.page_count))

    def requests(self) -> list[list[int]]:
        """The recorded page lists, one family after the other in turn, so
        that every slice holds the five families in equal shares."""
        per_family = [
            [page_ids for rs in self.sets if rs.family == family for page_ids in rs.pages]
            for family in range(len(FAMILIES))
        ]
        return [page_ids for turn in zip(*per_family) for page_ids in turn]

    def rung(self) -> list[list[int]]:
        """The reference string the rung replays share: one served pass."""
        return self.requests()[: self.scale.pass_requests]

    def shape(self) -> dict:
        stats = self.tree.stats()
        return {
            "objects": self.scale.n_objects,
            "tree_pages": stats.page_count,
            "directory_pages": stats.directory_pages,
            "tree_height": stats.height,
            "frames": self.frames,
            "queries": sum(len(rs.queries) for rs in self.sets),
        }


def build_inputs(seed: int, scale: Scale) -> Inputs:
    start = time.perf_counter()
    dataset = us_mainland_like(n_objects=scale.n_objects, seed=DATABASE_SEED)
    generated = time.perf_counter()
    database = build_database(
        dataset, n_places=scale.n_places, places_seed=DATABASE_SEED
    )
    loaded = time.perf_counter()
    sets = [
        ReplaySet(
            family,
            database.query_set(name, scale.queries_per_set, seed * 1000 + k).queries,
        )
        for family, name in enumerate(FAMILIES)
        for k in range(scale.sets_per_family)
    ]
    return Inputs(
        seed,
        scale,
        database,
        sets,
        {"datasets.generate_s": generated - start, "sam.bulk_load_s": loaded - generated},
    )


class _Recorder(DirectAccessor):
    """Unbuffered accessor that also writes down the ids it is asked for."""

    def __init__(self, pagefile) -> None:
        super().__init__(pagefile)
        self.ids: list[int] = []

    def fetch(self, page_id: int):
        self.ids.append(page_id)
        return super().fetch(page_id)


def record_reference(inputs: Inputs, sets: list[ReplaySet]) -> None:
    """Replay ``sets`` unbuffered: the reference string and result hashes."""
    tree = inputs.tree
    recorder = _Recorder(tree.pagefile)
    for rs in sets:
        for query in rs.queries:
            recorder.ids = []
            rs.results.append(hash(tuple(query.run(tree, recorder))))
            rs.pages.append(recorder.ids)


def reference_digest(sets: list[ReplaySet]) -> str:
    digest = hashlib.blake2b(digest_size=8)
    for rs in sets:
        for page_ids, result in zip(rs.pages, rs.results):
            digest.update(repr((page_ids, result)).encode())
    return digest.hexdigest()


def family_misses(
    inputs: Inputs,
    sets: list[ReplaySet],
    policy: str,
    capacity: int,
    *,
    fresh_per_set: bool = True,
    scoped: bool = True,
    **build,
) -> list[int]:
    """Disk reads per family when ``policy`` replays the reference string,
    from a fresh buffer per set or from one buffer for all of them."""
    totals = [0] * len(FAMILIES)
    system = None
    for rs in sets:
        if system is None or fresh_per_set:
            system = BufferSystem.build(
                policy=policy, capacity=capacity, disk=inputs.disk, **build
            )
        before = system.stats_snapshot()["misses"]
        layers.replay(system.buffer, rs.pages, scoped)
        totals[rs.family] += system.stats_snapshot()["misses"] - before
    return totals


def relative_reads(ours: list[int], lru: list[int]) -> dict[str, float]:
    """The paper's metric per family, folded to its worst and its mean."""
    ratios = [a / b if b else 1.0 for a, b in zip(ours, lru)]
    return {
        "reads_rel_lru": max(ratios),
        "reads_rel_lru_mean": math.exp(sum(map(math.log, ratios)) / len(ratios)),
    }


# ----------------------------------------------------------------------
# One pass and the checks that ride on it
# ----------------------------------------------------------------------


@dataclass
class Pass:
    seconds: float = 0.0
    #: Machine speed factor while the pass ran; run.py sets it.
    speed: float = 1.0
    ops: int = 0
    failed: int = 0
    read_ns: list[int] = field(default_factory=list)
    write_ns: list[int] = field(default_factory=list)
    #: Buffer counters this pass added (requests, hits, misses, ...).
    counts: Counter = field(default_factory=Counter)
    misses_by_family: list[int] = field(default_factory=lambda: [0] * len(FAMILIES))


class Checks:
    """Output checks: every one counts as attempted, failures are named."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def buffer_layer(timed: list[Pass], summary) -> dict[str, float]:
    """The per-layer metrics every workload yields for the buffer."""
    counts = sum((one.counts for one in timed), Counter())
    ops = sum(one.ops for one in timed)
    return {
        "buffer.fetch_self_us_hit": summary.mean_us("buffer.fetch.hit"),
        "buffer.fetch_self_us_miss": summary.mean_us("buffer.fetch.miss"),
        "buffer.hit_ratio": counts["hits"] / counts["requests"],
        "buffer.evictions_per_op": counts["evictions"] / ops,
        "buffer.writebacks_per_op": counts["writebacks"] / ops,
        "storage.read_us": summary.mean_us("storage.read"),
    }


_COUNT_KEYS = ("requests", "hits", "misses", "evictions", "writebacks", "coalesced")


def _counts(snapshot: dict) -> Counter:
    return Counter({key: snapshot.get(key, 0) for key in _COUNT_KEYS})


# ----------------------------------------------------------------------
# embedded-miss / embedded-fit
# ----------------------------------------------------------------------


class Embedded:
    """Queries run in-process through the buffer, one thread."""

    def __init__(self, name: str, fits: bool, why: str) -> None:
        self.name = name
        self.fits = fits
        self.why = why

    def setup(self, seed: int, scale: Scale) -> dict:
        return {"inputs": build_inputs(seed, scale)}

    def teardown(self, state: dict) -> None:
        pass

    def _capacity(self, inputs: Inputs) -> int:
        return inputs.page_count if self.fits else inputs.frames

    def _build(self, state: dict) -> BufferSystem:
        inputs = state["inputs"]
        return BufferSystem.build(
            policy=POLICY,
            capacity=self._capacity(inputs),
            disk=inputs.disk,
            policy_kwargs=POLICY_KWARGS,
        )

    def prepare(self, state: dict) -> None:
        """Untimed: reference replay, the LRU replay, and the cold pass."""
        inputs = state["inputs"]
        record_reference(inputs, inputs.sets)
        state["digest"] = reference_digest(inputs.sets)
        state["lru_misses"] = family_misses(
            inputs,
            inputs.sets,
            "LRU",
            self._capacity(inputs),
            fresh_per_set=not self.fits,
        )
        if self.fits:
            # One system for the whole run; the cold pass warms it.
            state["system"] = self._build(state)
        state["cold"] = self.run_pass(state)

    def run_pass(self, state: dict, tracer: Tracer | None = None) -> Pass:
        inputs = state["inputs"]
        tree = inputs.tree
        result = Pass()
        op = 0
        begin = now()
        for rs in inputs.sets:
            system = state.get("system")
            if system is None:
                system = self._build(state)
            buffer = system.buffer
            accessor = TracedAccessor(buffer, tracer) if tracer else buffer
            scope = buffer.query_scope
            before = _counts(system.stats_snapshot())
            adaptations = len(buffer.policy.trace)
            record = result.read_ns.append
            for query, want in zip(rs.queries, rs.results):
                op += 1
                start = now()
                with scope():
                    if tracer:
                        got = tracer.call("sam.query", op, query.run, tree, accessor)
                    else:
                        got = query.run(tree, accessor)
                record(now() - start)
                if hash(tuple(got)) != want:
                    result.failed += 1
            added = _counts(system.stats_snapshot())
            added.subtract(before)
            result.counts.update(added)
            result.counts["adaptations"] += len(buffer.policy.trace) - adaptations
            result.misses_by_family[rs.family] += added["misses"]
        result.seconds = (now() - begin) / 1e9
        result.ops = op
        return result

    def traced_pass(self, state: dict, tracer: Tracer) -> Pass:
        restore = layers.trace_storage(tracer, state["inputs"].disk)
        try:
            return self.run_pass(state, tracer)
        finally:
            restore()

    def end_to_end(self, state: dict, passes: list[Pass]) -> dict[str, float]:
        cold = state["cold"]
        return {
            "disk_reads_per_op": cold.counts["misses"] / cold.ops,
            **relative_reads(cold.misses_by_family, state["lru_misses"]),
        }

    def finish(self, state: dict, passes: list[Pass], checks: Checks) -> dict:
        cold = state["cold"]
        expected_requests = sum(
            len(page_ids) for rs in state["inputs"].sets for page_ids in rs.pages
        )
        checks.expect(cold.failed == 0, "cold pass: a query returned a wrong result")
        for index, one in enumerate([cold, *passes]):
            counts = one.counts
            checks.expect(
                counts["hits"] + counts["misses"] == counts["requests"],
                f"pass {index}: hits + misses != requests",
            )
            checks.expect(
                counts["requests"] == expected_requests,
                f"pass {index}: requests differ from the reference string",
            )
            if self.fits and index:
                checks.expect(
                    counts["misses"] == 0 and counts["evictions"] == 0,
                    f"pass {index}: the buffer that fits missed or evicted",
                )
            elif not self.fits:
                checks.expect(
                    one.misses_by_family == cold.misses_by_family,
                    f"pass {index}: disk reads differ from the first pass",
                )
        return {}

    def layers(self, state: dict, timed: list[Pass], summary) -> dict[str, float]:
        inputs = state["inputs"]
        counts = sum((one.counts for one in timed), Counter())
        ops = sum(one.ops for one in timed)
        pages = summary.count["buffer.fetch.hit"] + summary.count["buffer.fetch.miss"]
        rung = inputs.rung()
        build = {"capacity": self._capacity(inputs), "disk": inputs.disk}
        # LRU through the same proxy, on the string the traced passes fetched.
        lru_hit, lru_miss = layers.traced_fetch_self_us(
            [rs.pages for rs in inputs.sets],
            keep_buffer=self.fits,
            policy="LRU",
            **build,
        )
        buffer = buffer_layer(timed, summary)
        plain = layers.rung_buffer_us(rung, policy=POLICY, **build)
        return {
            **buffer,
            "sam.pages_per_query": counts["requests"] / ops,
            "sam.query_self_us_per_page": (
                summary.self_ns["sam.query"] / pages / 1000.0 if pages else 0.0
            ),
            "policies.asb_extra_us_hit": buffer["buffer.fetch_self_us_hit"] - lru_hit,
            "policies.asb_extra_us_miss": buffer["buffer.fetch_self_us_miss"] - lru_miss,
            "policies.asb_adaptations": counts["adaptations"],
            "storage.reads": counts["misses"],
            "tuning.ghost_extra_us_per_fetch": layers.rung_buffer_us(
                rung, policy=POLICY, tuning=TuningSpec(), **build
            )
            - plain,
            "obs.recorder_extra_us_per_fetch": layers.rung_buffer_us(
                rung, policy=POLICY, trace=True, **build
            )
            - plain,
        }


# ----------------------------------------------------------------------
# served-read / served-mixed
# ----------------------------------------------------------------------


class CrashableStore:
    """A file-backed medium that loses unsynced writes in a crash.

    Writes land in an in-memory view (what the operating system's cache
    would hold) and reach the file only on ``sync``, which also fsyncs.
    ``durable_image`` is what a machine that lost power would find.
    """

    def __init__(self, path: Path) -> None:
        self._file = FileByteStore(path)
        self._view = MemoryByteStore()
        self._pending: list[tuple[int, bytes]] = []
        self.bytes_written = 0
        self.syncs = 0

    def read_at(self, offset: int, length: int) -> bytes:
        return self._view.read_at(offset, length)

    def write_at(self, offset: int, data: bytes) -> None:
        self._view.write_at(offset, data)
        self._pending.append((offset, bytes(data)))
        self.bytes_written += len(data)

    def size(self) -> int:
        return self._view.size()

    def sync(self) -> None:
        for offset, data in self._pending:
            self._file.write_at(offset, data)
        self._pending.clear()
        self._file.sync()
        self.syncs += 1

    def image(self) -> bytes:
        return self._view.image()

    def durable_image(self) -> bytes:
        return self._file.image()

    def close(self) -> None:
        self._file.close()


class Served:
    """The recorded page lists, one FETCH_MANY per query, over loopback.

    Closed loop: ``CONNECTIONS`` connections, each sending its next request
    when the previous reply has arrived, because the callers are query
    processors that block on every fetch.  The server runs on its own
    loop thread in this process; the clients share the main thread.
    """

    def __init__(self, name: str, mixed: bool, why: str) -> None:
        self.name = name
        self.mixed = mixed
        self.why = why

    # -- set-up ----------------------------------------------------------

    def setup(self, seed: int, scale: Scale) -> dict:
        inputs = build_inputs(seed, scale)
        state: dict = {"inputs": inputs}
        if self.mixed:
            BENCH_DIR.joinpath("out").mkdir(exist_ok=True)
            folder = Path(tempfile.mkdtemp(prefix="media-", dir=BENCH_DIR / "out"))
            state["folder"] = folder
            page_store = CrashableStore(folder / "pages.bin")
            log_store = CrashableStore(folder / "wal.bin")
            state["stores"] = (page_store, log_store)
        else:
            page_store, log_store = MemoryByteStore(), MemoryByteStore()
        start = time.perf_counter()
        disk = DurableDisk(page_store, page_size=PAGE_SIZE)
        source = inputs.disk
        for page_id in inputs.tree.all_page_ids():
            disk.store(source.peek(page_id))
        page_store.sync()
        inputs.parts["storage.page_copy_s"] = time.perf_counter() - start
        if self.mixed:
            state["setup_bytes"] = page_store.bytes_written
        wal = WriteAheadLog(log_store, group_window=GROUP_WINDOW)
        system = BufferSystem.build(
            policy=POLICY,
            capacity=inputs.frames,
            shards=SHARDS,
            disk=disk,
            durability=DurabilityManager(disk, wal, flush_interval=FLUSH_INTERVAL),
            policy_kwargs=POLICY_KWARGS,
        )
        state["system"] = system
        state["server"] = ServerThread(system, page_size=PAGE_SIZE).start()
        state["loop"] = asyncio.new_event_loop()
        state["clients"] = state["loop"].run_until_complete(
            self._connect(state["server"])
        )
        return state

    @staticmethod
    async def _connect(server: ServerThread) -> list[AsyncPageClient]:
        return [
            await AsyncPageClient.connect(server.host, server.port, page_size=PAGE_SIZE)
            for _ in range(CONNECTIONS)
        ]

    def teardown(self, state: dict) -> None:
        loop = state["loop"]
        for client in state["clients"]:
            loop.run_until_complete(client.close())
        loop.close()
        state["server"].stop()
        if self.mixed:
            for store in state["stores"]:
                store.close()
            shutil.rmtree(state["folder"])

    # -- untimed preparation ---------------------------------------------

    def prepare(self, state: dict) -> None:
        inputs = state["inputs"]
        record_reference(inputs, inputs.sets)
        state["digest"] = reference_digest(inputs.sets)
        state["requests"] = inputs.requests()
        #: Where the next pass starts; passes walk through the request list.
        state["cursor"] = 0
        #: (commit LSN, connection, [(page id, token written)]) of every
        #: acknowledged write; the bytes sent follow from page and token.
        state["acked"] = []
        state["token"] = FIRST_TOKEN
        #: What each connection last wrote to a page: the served bytes are
        #: checked against it.  Filled when the timed passes are over.
        state["last_sent"] = {}
        state["source_blobs"] = {}
        rng = random.Random(inputs.seed)
        leaves = {
            page_id
            for page_id in inputs.tree.all_page_ids()
            if inputs.disk.peek(page_id).is_leaf
        }
        plan = []
        for page_ids in state["requests"]:
            targets = sorted({pid for pid in page_ids if pid in leaves})
            if self.mixed and targets and rng.random() < WRITE_SHARE:
                plan.append(
                    frozenset(rng.sample(targets, min(WRITE_PAGES, len(targets))))
                )
            else:
                plan.append(frozenset())
        state["plan"] = plan
        # The buffer of the served configuration against LRU in the same
        # configuration, replayed in-process so that the count repeats.
        build = {"capacity": inputs.frames, "shards": SHARDS, "scoped": False}
        state["lru_misses"] = family_misses(inputs, inputs.sets, "LRU", **build)
        state["asb_misses"] = family_misses(inputs, inputs.sets, POLICY, **build)
        # Fill the buffer, so that every timed pass runs at steady state.
        warm = len(state["requests"]) - inputs.scale.pass_requests // 10
        state["warm"] = self._run(state, warm, len(state["requests"]), writes=False)
        state["before"] = self._boundary_counts(state)

    # -- one pass --------------------------------------------------------

    def run_pass(self, state: dict, tracer: Tracer | None = None) -> Pass:
        start = state["cursor"]
        stop = start + state["inputs"].scale.pass_requests
        state["cursor"] = stop % len(state["requests"])
        return self._run(state, start, stop, writes=self.mixed, tracer=tracer)

    def traced_pass(self, state: dict, tracer: Tracer) -> Pass:
        system = state["system"]
        restore = layers.trace_storage(tracer, system.disk, system.durability.wal)
        buffer = system.buffer
        system.buffer = TracedAccessor(buffer, tracer)
        try:
            return self.run_pass(state, tracer)
        finally:
            system.buffer = buffer
            restore()

    def _run(
        self,
        state: dict,
        start: int,
        stop: int,
        step: int = 1,
        *,
        writes: bool,
        verify: Checks | None = None,
        tracer: Tracer | None = None,
    ) -> Pass:
        """Send ``requests[start:stop:step]`` through the connections."""
        requests = [
            (op, state["requests"][op]) for op in range(start, stop, step)
        ]
        result = Pass()
        before = _counts(state["system"].stats_snapshot())
        begin = now()
        state["loop"].run_until_complete(
            self._drive(state, requests, result, writes, verify, tracer)
        )
        result.seconds = (now() - begin) / 1e9
        result.ops = len(requests)
        result.counts = _counts(state["system"].stats_snapshot())
        result.counts.subtract(before)
        return result

    async def _drive(self, state, requests, result, writes, verify, tracer) -> None:
        todo = iter(requests)
        plan = state["plan"]

        async def connection(index: int, client: AsyncPageClient) -> None:
            # Whichever connection is free takes the next request.
            for op, page_ids in todo:
                start = now()
                try:
                    call = client.fetch_many(page_ids)
                    if tracer:
                        call = tracer.await_("client.fetch_many", op + 1, call)
                    pages = await call
                except (ServerError, RetryAfter, ConnectionLost):
                    result.failed += 1
                    continue
                result.read_ns.append(now() - start)
                if [page.page_id for page in pages] != page_ids:
                    result.failed += 1
                    continue
                if verify is not None:
                    self._verify_bytes(state, pages, verify)
                if writes and plan[op]:
                    chosen = [page for page in pages if page.page_id in plan[op]]
                    written = []
                    for page in chosen:
                        state["token"] += 1
                        page.entries[0].payload = state["token"]
                        written.append((page.page_id, state["token"]))
                    start = now()
                    try:
                        lsn = await self._write(client, op + 1, chosen, tracer)
                    except (ServerError, RetryAfter, ConnectionLost):
                        result.failed += 1
                        continue
                    result.write_ns.append(now() - start)
                    state["acked"].append((lsn, index, written))

        await asyncio.gather(
            *(connection(i, client) for i, client in enumerate(state["clients"]))
        )

    @staticmethod
    async def _write(client, op, chosen, tracer) -> int:
        """UPDATE_MANY then COMMIT; returns the commit's LSN."""
        if tracer is None:
            await client.update_many(chosen)
            return await client.commit()
        await tracer.await_("client.update_many", op, client.update_many(chosen))
        return await tracer.await_("client.commit", op, client.commit())

    # -- checks ----------------------------------------------------------

    def _source_blob(self, state: dict, page_id: int) -> bytes:
        blobs = state["source_blobs"]
        if page_id not in blobs:
            blobs[page_id] = encode_page(state["inputs"].disk.peek(page_id), PAGE_SIZE)
        return blobs[page_id]

    def _sent_blob(self, state: dict, page_id: int, token: int) -> bytes:
        """The bytes a client sent: a write changes nothing but the payload
        of the page's first entry, which it sets to a fresh token."""
        source = state["inputs"].disk.peek(page_id)
        first = source.entries[0]
        entries = [PageEntry(first.mbr, first.child, token), *source.entries[1:]]
        return encode_page(
            Page(page_id, source.page_type, source.level, entries), PAGE_SIZE
        )

    def _verify_bytes(self, state: dict, pages: list, checks: Checks) -> None:
        """Served bytes equal the source page's, or the last image one of
        the connections wrote to that page."""
        last_sent = state["last_sent"]
        for page in pages:
            allowed = [
                last_sent[index, page.page_id]
                for index in range(CONNECTIONS)
                if (index, page.page_id) in last_sent
            ] or [self._source_blob(state, page.page_id)]
            checks.expect(
                encode_page(page, PAGE_SIZE) in allowed,
                f"page {page.page_id}: served bytes differ from the source",
            )

    def _crash_check(self, state: dict, acked: list, checks: Checks) -> dict:
        """Drop every unsynced byte, reopen, recover, and compare.

        Every acknowledged commit at or below the recovered log's last LSN
        must be in the log with the bytes the client sent; every page must
        read back as its last logged image — nothing older, nothing newer,
        nothing no client sent; and fewer than ``GROUP_WINDOW`` acknowledged
        commits may sit in the group-commit window that was still open.
        """
        page_store, log_store = state["stores"]
        wal = WriteAheadLog(MemoryByteStore(log_store.durable_image()))
        disk = DurableDisk.from_image(page_store.durable_image(), PAGE_SIZE)
        start = time.perf_counter()
        report = recover(wal, disk)
        seconds = time.perf_counter() - start
        first_lsn: dict[tuple[int, bytes], int] = {}
        last_image: dict[int, bytes] = {}
        for record in wal.records():
            if record.kind == PAGE_IMAGE:
                first_lsn.setdefault((record.page_id, record.payload), record.lsn)
                last_image[record.page_id] = record.payload
        sent = {blob for _, images in acked for _, blob in images}
        in_window = 0
        for lsn, images in acked:
            if lsn > wal.flushed_lsn:
                in_window += 1
                continue
            for page_id, blob in images:
                checks.expect(
                    first_lsn.get((page_id, blob), lsn) < lsn,
                    f"commit {lsn}: page {page_id} is not in the durable log",
                )
        checks.expect(
            in_window < GROUP_WINDOW,
            f"{in_window} acknowledged commits were outside the durable log",
        )
        for page_id, blob in last_image.items():
            checks.expect(
                blob in sent, f"page {page_id}: the log holds bytes no client sent"
            )
            checks.expect(
                encode_page(disk.peek(page_id), PAGE_SIZE) == blob,
                f"page {page_id}: recovered bytes differ from the last logged image",
            )
        untouched = [
            pid for pid in state["inputs"].tree.all_page_ids() if pid not in last_image
        ]
        for page_id in untouched[:: max(1, len(untouched) // VERIFY_REQUESTS)]:
            checks.expect(
                encode_page(disk.peek(page_id), PAGE_SIZE)
                == self._source_blob(state, page_id),
                f"page {page_id}: never logged, yet differs after recovery",
            )
        return {
            "wal.recover_s": seconds,
            "wal.records_redone": report.records_redone,
            "wal.acked_in_open_window": in_window,
        }

    def _boundary_counts(self, state: dict) -> dict:
        """The counters kept at the layer boundaries, as they stand now."""
        system = state["system"]
        stats = state["loop"].run_until_complete(state["clients"][0].stats())
        wal = system.durability.wal.stats
        admission = stats["admission"]
        counts = {
            "storage.reads": system.disk.stats.reads,
            "storage.writes": system.disk.stats.writes,
            "wal.commits": wal.commits,
            "wal.fsyncs": wal.fsyncs,
            "wal.bytes_flushed": wal.bytes_flushed,
            "admission.queued": admission["queued_total"],
            "admission.rejected": admission["rejected_queue_full"]
            + admission["rejected_quota"],
            "server.refused": stats["server"]["responses_error"]
            + stats["server"]["responses_retry"],
        }
        if self.mixed:
            counts["media.bytes_written"] = sum(
                store.bytes_written for store in state["stores"]
            )
        return counts

    def finish(self, state: dict, passes: list[Pass], checks: Checks) -> dict:
        after = self._boundary_counts(state)
        state["delta"] = {key: after[key] - state["before"][key] for key in after}
        acked = []
        for lsn, index, written in state["acked"]:
            images = [(pid, self._sent_blob(state, pid, token)) for pid, token in written]
            acked.append((lsn, images))
            state["last_sent"].update(((index, pid), blob) for pid, blob in images)
        extra = self._crash_check(state, acked, checks) if self.mixed else {}
        count = len(state["requests"])
        verified = self._run(
            state, 0, count, max(1, count // VERIFY_REQUESTS), writes=False, verify=checks
        )
        checks.expect(
            verified.failed == 0 and state["warm"].failed == 0,
            "a request of the warm-up or the verify pass failed",
        )
        for index, one in enumerate([state["warm"], *passes, verified]):
            counts = one.counts
            checks.expect(
                counts["hits"] + counts["misses"] == counts["requests"],
                f"pass {index}: hits + misses != requests",
            )
        checks.expect(
            state["delta"]["server.refused"] == 0,
            "the server answered ERROR or RETRY_AFTER",
        )
        return extra

    # -- metrics ---------------------------------------------------------

    def end_to_end(self, state: dict, passes: list[Pass]) -> dict[str, float]:
        misses = sum(one.counts["misses"] for one in passes)
        ops = sum(one.ops for one in passes)
        return {
            "disk_reads_per_op": misses / ops,
            **relative_reads(state["asb_misses"], state["lru_misses"]),
        }

    def layers(self, state: dict, timed: list[Pass], summary) -> dict[str, float]:
        inputs = state["inputs"]
        rung = inputs.rung()
        pages_per_request = layers.fetch_count(state["requests"]) / len(state["requests"])
        distinct = sorted({pid for page_ids in rung for pid in page_ids})
        encode, decode = layers.rung_codec_us(
            [inputs.disk.peek(pid) for pid in distinct], PAGE_SIZE
        )
        pack, unpack = layers.rung_protocol_us(rung)
        admission = layers.rung_admission_us()
        build = {"policy": POLICY, "capacity": inputs.frames, "disk": inputs.disk}
        sharded = layers.rung_buffer_us(rung, scoped=False, shards=SHARDS, **build)
        sequential = layers.rung_buffer_us(rung, scoped=False, **build)
        hot = [rung[0][:1]] * LOOPBACK_RUNG_REQUESTS
        floor = state["loop"].run_until_complete(_request_us(state["clients"][0], hot))
        # What the client saw per request, less every part measured above:
        # event loop, executor hop, socket, and waiting for the other
        # connection's work are what is left.
        server_side_ns = (
            summary.total_ns["buffer.fetch.hit"] + summary.total_ns["buffer.fetch.miss"]
        )
        residual = (
            (summary.total_ns["client.fetch_many"] - server_side_ns)
            / summary.count["client.fetch_many"]
            / 1000.0
            - pages_per_request * (encode + decode)
            - pack
            - unpack
            - admission
        )
        stride = max(1, len(rung) // LOOPBACK_RUNG_REQUESTS)
        delta = state["delta"]
        metrics = {
            **buffer_layer(timed, summary),
            "sam.pages_per_query": pages_per_request,
            "policies.asb_adaptations": sum(
                len(manager.policy.trace)
                for manager in state["system"].buffer.shard_managers()
            ),
            "concurrent.fetch_extra_us": sharded - sequential,
            "concurrent.coalesced": sum(one.counts["coalesced"] for one in timed),
            "storage.reads": delta["storage.reads"],
            "storage.writes": delta["storage.writes"],
            "storage.encode_us_per_page": encode,
            "storage.decode_us_per_page": decode,
            "protocol.pack_us_per_req": pack,
            "protocol.unpack_us_per_req": unpack,
            "admission.acquire_release_us": admission,
            "admission.queued": delta["admission.queued"],
            "admission.rejected": delta["admission.rejected"],
            "client.rtt_floor_us": floor,
            "server.residual_us_per_req": residual,
            "cluster.route_extra_us_per_req": _cluster_route_extra_us(
                inputs, rung[::stride]
            ),
        }
        if self.mixed:
            writes = [ns / one.speed for one in timed for ns in one.write_ns]
            user_bytes = PAGE_SIZE * sum(len(sent) for _, _, sent in state["acked"])
            commits = delta["wal.commits"]
            metrics.update(
                {
                    "write_p50_ms": percentile(writes, 0.50) / 1e6,
                    "write_p99_ms": percentile(writes, tail_quantile(len(writes))) / 1e6,
                    "wal_bytes_per_user_byte": (
                        delta["media.bytes_written"] / user_bytes if user_bytes else 0.0
                    ),
                    "wal.append_us": summary.mean_us("wal.append"),
                    "wal.commit_us": summary.mean_us("wal.commit"),
                    "wal.fsync_us": summary.mean_us("wal.fsync"),
                    "wal.fsyncs_per_commit": delta["wal.fsyncs"] / commits if commits else 0.0,
                    "wal.bytes_flushed": delta["wal.bytes_flushed"],
                }
            )
        return metrics


async def _request_us(client, requests: list[list[int]]) -> float:
    """Median µs of one closed-loop ``fetch_many`` per request."""
    samples = []
    for page_ids in requests:
        start = now()
        await client.fetch_many(page_ids)
        samples.append(now() - start)
    return percentile(samples, 0.50) / 1000.0


def _cluster_route_extra_us(inputs: Inputs, rung: list[list[int]]) -> float:
    """A one-node cluster's routing client against a plain client on the
    same node, same requests, one connection each."""

    async def measure(fleet: ClusterSystem) -> float:
        host, port = fleet.address()
        plain = await AsyncPageClient.connect(host, port, page_size=PAGE_SIZE)
        routed = await RoutingClient.connect(host, port, page_size=PAGE_SIZE)
        try:
            await _request_us(plain, rung[:20])
            direct = await _request_us(plain, rung)
            through = await _request_us(routed, rung)
        finally:
            await plain.close()
            await routed.close()
        return through - direct

    with ClusterSystem.build(
        nodes=1,
        policy=POLICY,
        capacity=inputs.frames,
        shards=SHARDS,
        page_size=PAGE_SIZE,
        disk=inputs.disk,
    ) as fleet:
        return asyncio.run(measure(fleet))


WORKLOADS = {
    workload.name: workload
    for workload in (
        Embedded(
            "embedded-miss",
            False,
            "paper protocol, buffer 4.7% of the tree: miss path, victim "
            "selection and disk.read do the work, server and WAL none",
        ),
        Embedded(
            "embedded-fit",
            True,
            "buffer holds the whole tree, all hits: traversal and the policy "
            "hit path do the work, eviction and disk none",
        ),
        Served(
            "served-read",
            False,
            "recorded page lists as FETCH_MANY over loopback: wire, admission, "
            "dispatch and the sharded buffer dominate, the policy does not",
        ),
        Served(
            "served-mixed",
            True,
            "served-read plus UPDATE_MANY+COMMIT on file-backed media: dirty "
            "eviction, write-back and WAL fsync beside the reads",
        ),
    )
}
