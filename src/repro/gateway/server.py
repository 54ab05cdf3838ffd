"""The asyncio HTTP server: connection lifecycle over one GatewayApp.

Each connection runs two tasks. The **reader** parses requests in
order and calls :meth:`~repro.gateway.app.GatewayApp.handle`
synchronously — so on a pipelined connection every mutation and every
``runtime.submit`` happens in exact arrival order — then enqueues the
outcome. The **writer** drains the queue, awaiting each pending serve
future as it reaches the front, and writes responses in the same order
the requests arrived (HTTP/1.1 pipelining demands ordered responses;
the runtime still batches freely *behind* the queue).

The server runs on the serving runtime's event loop
(:meth:`~repro.serve.runtime.ServingRuntime.io_loop`, one background
thread), so it embeds in tests and the CLI alike and an ad request is
parsed, admitted, framed to its shard worker, resolved and answered
without crossing a thread. ``start()`` blocks until the socket is bound
(resolving an ephemeral port); ``stop()`` closes the socket and every
connection and leaves the loop to the runtime, whose ``stop()`` ends it
— start the runtime first, stop the server first.
"""

from __future__ import annotations

import asyncio
import logging
import time
from typing import Optional, Set

from repro.gateway.app import (
    Done,
    GatewayApp,
    Outcome,
    PendingServe,
    serve_result_response,
)
from repro.gateway.http import (
    MAX_HEADER_BYTES,
    HttpError,
    error_body,
    read_request,
    render_response,
)
from repro.obs.metrics import registry as obs_registry
from repro.obs.tracing import tracer

_log = logging.getLogger(__name__)

#: Sentinel telling the writer the reader is done with this connection.
_CLOSE = object()


class GatewayServer:
    """Serve ``app`` on ``host:port`` from its runtime's event loop."""

    def __init__(self, app: GatewayApp, host: str = "127.0.0.1",
                 port: int = 0):
        self.app = app
        self.host = host
        self.port = port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.Task] = set()
        reg = obs_registry()
        self._m_connections = reg.counter("gateway.connections")
        self._m_http_errors = reg.counter("gateway.http_errors")
        self._m_request_s = reg.histogram("gateway.request_s")

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "GatewayServer":
        """Bind and serve; returns once the socket is accepting."""
        if self._loop is not None:
            raise RuntimeError("gateway server already started")
        loop = self.app.runtime.io_loop()
        try:
            asyncio.run_coroutine_threadsafe(self._startup(), loop).result()
        except Exception as exc:
            raise RuntimeError(
                f"gateway failed to bind {self.host}:{self.port}"
            ) from exc
        self._loop = loop
        return self

    def stop(self) -> None:
        """Stop accepting and cancel live connections."""
        loop, self._loop = self._loop, None
        if loop is None:
            return
        if not loop.is_closed():
            asyncio.run_coroutine_threadsafe(
                self._shutdown(), loop).result(timeout=10.0)
        elif self._server is not None:
            # The runtime stopped first and took the loop with it.
            self._server.close()
            self._server = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def _startup(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=MAX_HEADER_BYTES)
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        _log.info("gateway listening on %s", self.url)

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections,
                                 return_exceptions=True)

    # -- per-connection ----------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._m_connections.inc()
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        queue: "asyncio.Queue" = asyncio.Queue()
        writer_task = asyncio.ensure_future(
            self._write_responses(queue, writer))
        try:
            await self._read_requests(reader, queue)
            await queue.put((_CLOSE, None))
            await writer_task
        finally:
            if not writer_task.done():
                writer_task.cancel()
                try:
                    await writer_task
                except asyncio.CancelledError:
                    pass
            writer.close()

    async def _read_requests(self, reader: asyncio.StreamReader,
                             queue: "asyncio.Queue") -> None:
        while True:
            started = time.perf_counter()
            try:
                request = await read_request(reader)
            except HttpError as exc:
                await queue.put((Done(
                    exc.status, error_body(exc.code, exc.message)),
                    started))
                if exc.close:
                    return
                continue
            except (ConnectionError, OSError):
                return
            if request is None:
                return
            with tracer().span("gateway.request",
                               method=request.method,
                               path=request.path):
                outcome = self.app.handle(request)
            await queue.put((outcome, started))
            if request.headers.get("connection", "").lower() == "close":
                if isinstance(outcome, Done):
                    outcome.extra_headers["Connection"] = "close"
                return

    async def _write_responses(self, queue: "asyncio.Queue",
                               writer: asyncio.StreamWriter) -> None:
        while True:
            outcome, started = await queue.get()
            if outcome is _CLOSE:
                return
            done = await self._resolve(outcome)
            close = done.extra_headers.pop("Connection", "") == "close"
            try:
                writer.write(render_response(
                    done.status, done.body,
                    content_type=done.content_type, close=close,
                    extra_headers=done.extra_headers))
                await writer.drain()
            except (ConnectionError, OSError):
                return
            if done.status >= 400:
                self._m_http_errors.inc()
            if started is not None:
                self._m_request_s.observe(time.perf_counter() - started)
            if close:
                return

    @staticmethod
    async def _resolve(outcome: Outcome) -> Done:
        if isinstance(outcome, Done):
            return outcome
        assert isinstance(outcome, PendingServe)
        try:
            # An asyncio future: submitted on the runtime's loop, which
            # this server runs on.
            result = await outcome.future
        except Exception as exc:  # noqa: BLE001 - runtime died mid-flight
            _log.exception("serve future failed")
            return Done(500, error_body(
                "serve_error", f"serving failed: {type(exc).__name__}"))
        return serve_result_response(result)
