"""Observability: a typed event stream over the buffer subsystem.

The buffer managers and the policies emit
:class:`~repro.obs.events.BufferEvent` records through a pluggable
*observer* (any object with an ``emit(event)`` method).  When no observer
is attached the hooks cost a single attribute check per event site, so
production replays pay nothing for the machinery.

Three layers build on the stream:

* sinks (:mod:`repro.obs.events`) — :class:`TraceRecorder` collects events,
  :class:`Fanout` tees one stream into several consumers;
* windowed metrics (:mod:`repro.obs.windows`) — rolling hit ratio,
  eviction-age histogram and per-level hit counters, all incremental;
* traces (:mod:`repro.obs.trace`) — :class:`AccessTrace` (a reference
  string) and :class:`RecordedTrace` (plus events and statistics, saved
  as JSON lines), both replayed by :func:`replay_requests`.

Because every timestamp in the buffer is logical (one tick per request),
recording a workload and replaying its request stream through
:func:`replay_recorded` reproduces the original event stream and
statistics bit for bit — the contract the golden-trace regression tests
pin down.
"""

from repro.obs.events import (
    EVENT_KINDS,
    BufferEvent,
    EventSink,
    Fanout,
    LockingSink,
    TraceRecorder,
)
from repro.obs.trace import (
    AccessTrace,
    RecordedTrace,
    disk_from_catalogue,
    record_run,
    record_trace,
    replay_recorded,
    replay_requests,
)
from repro.obs.windows import (
    EvictionAgeHistogram,
    LevelHitCounters,
    RollingHitRatio,
    WindowedMetrics,
)

__all__ = [
    "EVENT_KINDS",
    "BufferEvent",
    "EventSink",
    "Fanout",
    "LockingSink",
    "TraceRecorder",
    "RollingHitRatio",
    "EvictionAgeHistogram",
    "LevelHitCounters",
    "WindowedMetrics",
    "AccessTrace",
    "RecordedTrace",
    "disk_from_catalogue",
    "record_run",
    "record_trace",
    "replay_recorded",
    "replay_requests",
]
