"""Run a :class:`PageServer` on a background event loop.

Synchronous programs (the CLI, pytest, the serve benchmark) need a live
server without owning an event loop.  :class:`ServerThread` starts one
on a daemon thread, waits until the socket is bound, and tears the whole
thing down — graceful drain included — on :meth:`stop` or context exit::

    with ServerThread(system, max_inflight=8) as server:
        client = PageClient("127.0.0.1", server.port)
        ...

Every public attribute read (``port``, ``server``) is safe from any
thread; mutation of server state stays on the loop thread.
"""

from __future__ import annotations

import asyncio
import threading
from typing import TYPE_CHECKING

from repro.server.core import PageServer

if TYPE_CHECKING:
    from repro.api import BufferSystem

#: Seconds to wait for the socket to bind, and for the loop thread to end.
_START_TIMEOUT_S = 10.0
#: Seconds the graceful drain waits for in-flight requests.
_DRAIN_TIMEOUT_S = 10.0


class ServerThread:
    """A :class:`PageServer` running on its own event-loop thread."""

    def __init__(
        self,
        system: "BufferSystem | None" = None,
        *,
        server: "PageServer | None" = None,
        **server_kwargs,
    ) -> None:
        # Either a system (a PageServer is built around it) or a prebuilt
        # server (e.g. a ClusterPageServer) — never both.
        if server is not None:
            if system is not None or server_kwargs:
                raise ValueError(
                    "pass either a prebuilt server= or a system (with "
                    "server kwargs), not both"
                )
            self.server = server
        elif system is not None:
            self.server = PageServer(system, **server_kwargs)
        else:
            raise ValueError("a system or a prebuilt server= is required")
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            raise RuntimeError("server thread is not running")
        return self._loop

    # ------------------------------------------------------------------

    def start(self) -> "ServerThread":
        if self._thread is not None:
            raise RuntimeError("server thread is already running")
        self._thread = threading.Thread(
            target=self._run, name="page-server-loop", daemon=True
        )
        self._thread.start()
        if not self._started.wait(_START_TIMEOUT_S):
            raise RuntimeError("page server failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError("page server failed to start") from self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            try:
                loop.run_until_complete(self.server.start())
            except BaseException as exc:  # noqa: BLE001 - reported to start()
                self._startup_error = exc
                return
            finally:
                self._started.set()
            loop.run_forever()
        finally:
            loop.close()
            asyncio.set_event_loop(None)

    def stop(self) -> None:
        """Gracefully drain the server and join the loop thread."""
        loop = self._loop
        thread = self._thread
        if loop is None or thread is None:
            return
        if self._startup_error is None:
            future = asyncio.run_coroutine_threadsafe(
                self.server.stop(_DRAIN_TIMEOUT_S), loop
            )
            future.result(_DRAIN_TIMEOUT_S + _START_TIMEOUT_S)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(_START_TIMEOUT_S)
        self._loop = None
        self._thread = None

    # ------------------------------------------------------------------

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
