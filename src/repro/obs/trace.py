"""Reference strings and recorded event traces: one format, one replay loop.

An :class:`AccessTrace` is a query set's page-reference string plus a
catalogue of the referenced pages' policy-visible metadata (type, level,
entry MBRs).  A :class:`RecordedTrace` adds the policy, capacity, event
stream and final statistics of one run.  :func:`replay_requests` is the
one replay loop.  Every buffer timestamp is logical, so re-running a
recorded request stream under the same policy reproduces its events and
statistics exactly: a recorded trace is a golden regression fixture.

File format (JSON lines, the only one): the first line is a header
object carrying ``format``/``version``, policy, capacity, stats and the
catalogue; each following line is one event (``None`` fields omitted).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.buffer.manager import BufferManager
from repro.buffer.policies.base import ReplacementPolicy
from repro.geometry.rect import Rect
from repro.obs.events import BufferEvent, EventSink, TraceRecorder, _json_type_ok
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page, PageEntry, PageId, PageType

if TYPE_CHECKING:
    from repro.sam.base import SpatialIndex
    from repro.workloads.queries import Query

FORMAT_NAME = "repro-obs-trace"
FORMAT_VERSION = 1

#: page_id -> (page_type value, level, [entry mbr tuples]).
Catalogue = dict[PageId, tuple[str, int, list[tuple[float, float, float, float]]]]


def catalogue_page(catalogue: Catalogue, page: Page) -> None:
    """Add a page's policy-visible metadata to a catalogue (idempotent)."""
    if page.page_id not in catalogue:
        catalogue[page.page_id] = (
            page.page_type.value,
            page.level,
            [entry.mbr.as_tuple() for entry in page.entries],
        )


def disk_from_catalogue(catalogue: Catalogue) -> SimulatedDisk:
    """A fresh simulated disk holding reconstructions of catalogued pages.

    Entry payloads are synthetic (the entry index); the policies only read
    MBRs, types and levels, which are reproduced faithfully.
    """
    disk = SimulatedDisk()
    for page_id, (type_value, level, mbrs) in catalogue.items():
        page = Page(page_id=page_id, page_type=PageType(type_value), level=level)
        for index, mbr in enumerate(mbrs):
            page.entries.append(PageEntry(mbr=Rect(*mbr), payload=index))
        disk.store(page)
    return disk


def replay_requests(
    disk: SimulatedDisk,
    requests: Iterable[tuple[PageId, int]],
    policy: ReplacementPolicy,
    capacity: int,
    observer: EventSink | None = None,
) -> BufferManager:
    """Fetch a ``(page_id, query)`` stream through a fresh buffer over
    ``disk``; returns the buffer.

    ``disk`` is the index's own disk for a string recorded from a live
    tree, or :func:`disk_from_catalogue` for a trace read from a file.
    Consecutive references sharing a query index run inside one query
    scope, so correlation semantics match the live run.
    """
    buffer = BufferManager(disk, capacity, policy, observer=observer)
    for _, references in groupby(requests, key=itemgetter(1)):
        with buffer.query_scope():
            for page_id, _ in references:
                buffer.fetch(page_id)
    return buffer


@dataclass(slots=True)
class AccessTrace:
    """A recorded page-reference string plus the referenced pages' metadata."""

    #: (page_id, query_index) per reference, in order.
    references: list[tuple[PageId, int]] = field(default_factory=list)
    catalogue: Catalogue = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.references)

    @property
    def distinct_pages(self) -> int:
        return len(self.catalogue)


class _RecordingAccessor:
    """Appends every fetch to a trace; ``peek`` leaves disk stats alone."""

    def __init__(self, disk: SimulatedDisk, trace: AccessTrace) -> None:
        self._disk = disk
        self._trace = trace
        self.current_query = 0

    def fetch(self, page_id: PageId) -> Page:
        page = self._disk.peek(page_id)
        self._trace.references.append((page_id, self.current_query))
        catalogue_page(self._trace.catalogue, page)
        return page


def record_trace(index: "SpatialIndex", queries: Iterable["Query"]) -> AccessTrace:
    """Run the queries against the index, recording every page reference.

    Pages are read through ``peek``, so neither the disk's counters nor
    its sequential-read marker move.
    """
    trace = AccessTrace()
    accessor = _RecordingAccessor(index.pagefile.disk, trace)
    for position, query in enumerate(queries):
        accessor.current_query = position
        query.run(index, accessor)
    return trace


@dataclass(slots=True)
class RecordedTrace:
    """An event stream plus everything needed to replay it."""

    policy: str
    capacity: int
    catalogue: Catalogue = field(default_factory=dict)
    events: list[BufferEvent] = field(default_factory=list)
    stats: dict[str, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.events)

    def requests(self) -> list[tuple[PageId, int]]:
        """The request stream: ``(page_id, query)`` per ``fetch`` event."""
        return [
            (event.page_id, event.query)
            for event in self.events
            if event.kind == "fetch"
        ]

    def events_of(self, *kinds: str) -> list[BufferEvent]:
        wanted = frozenset(kinds)
        return [event for event in self.events if event.kind in wanted]

    # ------------------------------------------------------------------
    # Persistence (JSON lines)
    # ------------------------------------------------------------------

    def header(self) -> dict:
        return {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "policy": self.policy,
            "capacity": self.capacity,
            "stats": self.stats,
            "catalogue": {
                str(page_id): [type_value, level, [list(mbr) for mbr in mbrs]]
                for page_id, (type_value, level, mbrs) in self.catalogue.items()
            },
        }

    def to_jsonl(self) -> str:
        lines = [json.dumps(self.header())]
        lines.extend(json.dumps(event.to_dict()) for event in self.events)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "RecordedTrace":
        """Parse a trace file; raises ``ValueError`` naming the line of
        the first malformed header field or event."""
        lines = [
            (number, line)
            for number, line in enumerate(text.splitlines(), start=1)
            if line.strip()
        ]
        if not lines:
            raise ValueError("empty trace file")
        number, line = lines[0]
        try:
            trace = _parse_header(json.loads(line))
            for number, line in lines[1:]:
                trace.events.append(_parse_event(json.loads(line), trace.catalogue))
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
        return trace

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_jsonl(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "RecordedTrace":
        return cls.from_jsonl(Path(path).read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------

_PAGE_TYPES = frozenset(page_type.value for page_type in PageType)


def _is_mbr(value: object) -> bool:
    return (
        isinstance(value, list)
        and len(value) == 4
        and all(_json_type_ok(coordinate, float) for coordinate in value)
    )


def _require(holds: bool, message: str) -> None:
    if not holds:
        raise ValueError(message)


def _parse_header(header: object) -> RecordedTrace:
    _require(isinstance(header, dict), "the header is not a JSON object")
    _require(header.get("format") == FORMAT_NAME, f"not a {FORMAT_NAME} file")
    version = header.get("version")
    _require(version == FORMAT_VERSION, f"unsupported trace version {version!r}")
    policy, capacity = header.get("policy"), header.get("capacity")
    stats, entries = header.get("stats", {}), header.get("catalogue")
    _require(
        isinstance(policy, str) and policy != "",
        f"header field 'policy' must be a policy name, got {policy!r}",
    )
    _require(
        _json_type_ok(capacity, int) and capacity >= 1,
        f"header field 'capacity' must be a positive integer, got {capacity!r}",
    )
    _require(
        isinstance(stats, dict)
        and all(_json_type_ok(value, float) for value in stats.values()),
        "header field 'stats' must map names to numbers",
    )
    _require(isinstance(entries, dict), "header field 'catalogue' must be a JSON object")
    for key, entry in entries.items():
        _require(
            key.isdecimal()
            and isinstance(entry, list)
            and len(entry) == 3
            and entry[0] in _PAGE_TYPES
            and _json_type_ok(entry[1], int)
            and isinstance(entry[2], list)
            and all(map(_is_mbr, entry[2])),
            f"catalogue entry {key!r} must be [page type, level, [mbr, ...]]",
        )
    catalogue: Catalogue = {
        int(key): (type_value, level, [tuple(mbr) for mbr in mbrs])
        for key, (type_value, level, mbrs) in entries.items()
    }
    return RecordedTrace(
        policy=policy, capacity=capacity, catalogue=catalogue, stats=stats
    )


def _parse_event(data: object, catalogue: Catalogue) -> BufferEvent:
    _require(isinstance(data, dict), "the event is not a JSON object")
    event = BufferEvent.from_dict(data)
    _require(
        event.kind != "fetch" or (event.page_id in catalogue and event.query is not None),
        "a fetch event needs a catalogued 'page_id' and a 'query'",
    )
    return event


# ----------------------------------------------------------------------
# Recording and replay
# ----------------------------------------------------------------------


def record_run(
    requests: Sequence[tuple[PageId, int]],
    disk: SimulatedDisk,
    policy: ReplacementPolicy,
    capacity: int,
) -> RecordedTrace:
    """Run a request stream with tracing on; return the recorded trace.

    The referenced pages are catalogued from ``disk`` (via ``peek``, so the
    source disk's access statistics are untouched) and the run executes on
    a reconstruction — recording a trace never perturbs the system under
    observation.
    """
    requests = list(requests)
    catalogue: Catalogue = {}
    for page_id, _ in requests:
        if page_id not in catalogue:
            catalogue_page(catalogue, disk.peek(page_id))
    recorder = TraceRecorder()
    buffer = replay_requests(
        disk_from_catalogue(catalogue), requests, policy, capacity, recorder
    )
    return RecordedTrace(
        policy=policy.name,
        capacity=capacity,
        catalogue=catalogue,
        events=recorder.events,
        stats=buffer.stats.snapshot(),
    )


def replay_recorded(
    trace: RecordedTrace,
    policy: ReplacementPolicy,
    capacity: int | None = None,
) -> RecordedTrace:
    """Re-run a recorded trace's request stream against ``policy``.

    Returns a fresh :class:`RecordedTrace` over the same catalogue.  With
    the same policy class and capacity as the recording, the returned
    events and stats are identical to the original — the determinism
    contract the golden-trace tests assert.  With a different policy or
    capacity this is a counterfactual replay: same requests, different
    decisions.
    """
    if capacity is None:
        capacity = trace.capacity
    recorder = TraceRecorder()
    buffer = replay_requests(
        disk_from_catalogue(trace.catalogue),
        trace.requests(),
        policy,
        capacity,
        recorder,
    )
    return RecordedTrace(
        policy=policy.name,
        capacity=capacity,
        catalogue=dict(trace.catalogue),
        events=recorder.events,
        stats=buffer.stats.snapshot(),
    )
