"""Buffer events and the observer protocol.

An event is one decision point in the buffer's life, stamped with the
buffer's logical clock.  The seven kinds and their field usage:

==========  ==========================================================
fetch       a page was requested (``page_id``, ``query``)
hit         the request was served from a frame (``correlated``,
            ``level`` of the resident page)
miss        the request went to disk (``level`` of the loaded page)
evict       a frame left the buffer (``dirty`` at drop time, ``age`` =
            clock - loaded_at)
writeback   a dirty page was written to disk (eviction or flush)
promote     ASB moved an overflow page back to the main part
adapt       ASB re-tuned its candidate set (``size`` = new size,
            ``delta`` = signed step, 0 when the criteria tied)
wal_append  a record entered the write-ahead log (``lsn``, ``page_id``)
wal_fsync   the durable log tail advanced (``lsn`` = flushed LSN,
            ``size`` = records made durable by this fsync)
bg_flush    the background flusher cleaned dirty frames without
            evicting them (``size`` = frames written back)
checkpoint  a checkpoint record became durable (``lsn``)
recover     crash recovery finished (``lsn`` = last replayed LSN,
            ``size`` = records redone)
req_queued  the page service queued a request behind the in-flight
            limit (``size`` = queue depth after enqueueing)
req_admitted  the page service admitted a request (``size`` = requests
            in flight after admission)
req_rejected  the admission controller rejected a request with
            RETRY_AFTER (``size`` = in-flight + queued at rejection)
req_timeout a request timed out in the queue or mid-execution
tune_epoch  the tuning controller closed an observation epoch
            (``size`` = epoch length in accesses, ``value`` = live
            epoch hit-rate, ``label`` = leading configuration)
tune_retune the controller retuned the live policy's parameters in
            place (``label`` = ``"param=value"`` summary, ``value`` =
            the ghost hit-rate that motivated it)
tune_switch the controller handed the buffer to a different policy
            (``label`` = new policy name, ``value`` = ghost hit-rate,
            ``size`` = resident frames migrated)
cluster_route  a cluster node forwarded a request for a page it does
            not own to the owner (``page_id``, ``label`` =
            ``"forward:<node>"``)
==========  ==========================================================

The durability events (``wal_*``, ``bg_flush``, ``checkpoint``,
``recover``) are emitted by :mod:`repro.wal`; their ``clock`` field
carries the log's LSN scale rather than a buffer's logical clock, since
one write-ahead log may serve several buffer shards.  The service events
(``req_*``) are emitted by :mod:`repro.server`; their ``clock`` is the
server's admission sequence number and their ``query`` field carries the
client connection id.  The tuning events (``tune_*``) are emitted by
:mod:`repro.tuning`; their ``clock`` is the controller's global access
count (summed over shards).

Emission order within one request is fixed: ``fetch`` first, then either
``hit`` (followed by any policy events such as ``adapt``/``promote``) or
``miss`` followed by the eviction it forced (``writeback`` before
``evict``).  ``clear()`` emits nothing — it resets the world rather than
evolving it.

Unused fields stay ``None`` and are dropped from the JSON form, so trace
files stay compact.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, Protocol, get_args, get_type_hints

#: The closed set of event kinds, in canonical order.
EVENT_KINDS = (
    "fetch",
    "hit",
    "miss",
    "evict",
    "writeback",
    "promote",
    "adapt",
    "wal_append",
    "wal_fsync",
    "bg_flush",
    "checkpoint",
    "recover",
    "req_queued",
    "req_admitted",
    "req_rejected",
    "req_timeout",
    "tune_epoch",
    "tune_retune",
    "tune_switch",
    "cluster_route",
)


@dataclass(slots=True, frozen=True)
class BufferEvent:
    """One buffer decision, stamped with the logical clock."""

    kind: str
    clock: int
    page_id: int | None = None
    query: int | None = None
    correlated: bool | None = None
    level: int | None = None
    dirty: bool | None = None
    age: int | None = None
    size: int | None = None
    delta: int | None = None
    lsn: int | None = None
    value: float | None = None
    label: str | None = None

    def to_dict(self) -> dict:
        """A compact dict: ``None`` fields are omitted."""
        return {
            key: value for key, value in asdict(self).items() if value is not None
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BufferEvent":
        """Rebuild an event from :meth:`to_dict`'s form; raises
        ``ValueError`` for an unknown, ill-typed or missing field."""
        for name, value in data.items():
            if name not in _FIELD_TYPES:
                raise ValueError(f"unknown event field {name!r}")
            expected = _FIELD_TYPES[name]
            if value is not None and not _json_type_ok(value, expected):
                raise ValueError(
                    f"event field {name!r} must be {expected.__name__}, got {value!r}"
                )
        kind = data.get("kind")
        if kind not in EVENT_KINDS:
            raise ValueError(f"event field 'kind' must be an event kind, got {kind!r}")
        if data.get("clock") is None:
            raise ValueError("event field 'clock' is missing")
        return cls(**data)


#: Each event field's JSON type (the optional fields' ``X | None`` hint
#: unwrapped to ``X``).
_FIELD_TYPES = {
    name: (get_args(hint) or (hint,))[0]
    for name, hint in get_type_hints(BufferEvent).items()
}


def _json_type_ok(value: object, expected: type) -> bool:
    """A JSON type check: a ``bool`` is no ``int``, a ``float`` may be one."""
    return type(value) is expected or (expected is float and type(value) is int)


class EventSink(Protocol):
    """Anything that can consume buffer events (duck-typed)."""

    def emit(self, event: BufferEvent) -> None: ...


class TraceRecorder:
    """Collects events into a list, optionally filtered by kind."""

    def __init__(self, kinds: Iterable[str] | None = None) -> None:
        self.events: list[BufferEvent] = []
        self._kinds = frozenset(kinds) if kinds is not None else None

    def emit(self, event: BufferEvent) -> None:
        if self._kinds is None or event.kind in self._kinds:
            self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def clear(self) -> None:
        self.events.clear()


class Fanout:
    """Tees one event stream into several sinks, in order."""

    def __init__(self, *sinks: EventSink) -> None:
        self.sinks = list(sinks)

    def emit(self, event: BufferEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)


class LockingSink:
    """Serialises emissions into a sink that is not itself thread-safe.

    The concurrent buffer service emits events from many threads; wrapping
    the observer in a :class:`LockingSink` makes any single-threaded sink
    (recorder, windowed metrics, fanout) safe to share.  Events arrive in
    lock-acquisition order — a total order, though not necessarily the
    per-shard clock order, since shards keep independent logical clocks.

    Idempotent by construction: wrapping a :class:`LockingSink` returns the
    inner lock's discipline twice, which is wasteful but correct; use
    :meth:`wrapping` to avoid double-wrapping.
    """

    def __init__(self, inner: EventSink) -> None:
        import threading

        self.inner = inner
        self._lock = threading.Lock()

    @classmethod
    def wrapping(cls, sink: "EventSink | None") -> "LockingSink | None":
        """Wrap ``sink`` unless it is ``None`` or already a LockingSink."""
        if sink is None or isinstance(sink, LockingSink):
            return sink
        return cls(sink)

    def emit(self, event: BufferEvent) -> None:
        with self._lock:
            self.inner.emit(event)
