"""Buffer management: the system under study.

The buffer manager caches disk pages in a bounded set of frames and asks a
pluggable :class:`~repro.buffer.policies.base.ReplacementPolicy` which page
to drop when a new page must be loaded (Section 1 of the paper).  Everything
the paper measures — hits, misses, disk accesses per query set — is recorded
by :class:`~repro.buffer.stats.BufferStats`.

Two services implement the page accessor protocol (:mod:`repro.access`):
the sequential :class:`BufferManager` and the thread-safe sharded
:class:`~repro.buffer.concurrent.ConcurrentBufferManager`.
"""

from repro.buffer.concurrent import ConcurrentBufferManager
from repro.buffer.frames import Frame
from repro.buffer.manager import BufferFullError, BufferManager
from repro.buffer.stats import BufferStats

__all__ = [
    "BufferFullError",
    "BufferManager",
    "BufferStats",
    "ConcurrentBufferManager",
    "Frame",
]
