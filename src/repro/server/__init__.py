"""``repro.server`` — the asyncio page-service front-end.

The service layer exposes a :class:`~repro.api.BufferSystem` over TCP
with a framed binary protocol, per-connection request pipelining and
explicit admission control (bounded queues, per-client quotas,
``RETRY_AFTER`` backpressure instead of unbounded queueing).

* :class:`PageServer` — the asyncio server itself.
* :class:`ServerThread` — run a server on a background event loop, for
  tests, benchmarks and embedding in synchronous programs.
* :class:`AdmissionController` — the admission policy, usable on its own.
* :mod:`repro.server.protocol` — the wire format.

The matching clients live in :mod:`repro.client`.
"""

from repro.server.admission import (
    AdmissionController,
    AdmissionRejected,
    AdmissionTimeout,
)
from repro.server.core import PageServer
from repro.server.protocol import (
    ErrorCode,
    Op,
    ProtocolError,
    RetryReason,
    Status,
)
from repro.server.runner import ServerThread

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "AdmissionTimeout",
    "ErrorCode",
    "Op",
    "PageServer",
    "ProtocolError",
    "RetryReason",
    "ServerThread",
    "Status",
]
