"""A single-threaded HTTP/1.1 load driver timed from each request's due time.

One thread multiplexes every connection through a selector: it writes
each open-loop request when its scheduled time comes (late requests go
out as soon as the loop gets to them), keeps a closed-loop window full
when asked to, and parses ``Content-Length``-framed responses, matching
them FIFO to the requests in flight on that connection (HTTP/1.1
pipelining keeps responses in request order).

Every request keeps its raw timestamps: ``due`` (when the schedule
wanted it sent), ``sent`` and ``recv``. Latency is ``recv - due``, so a
stall anywhere (including in this driver) is charged to every request
it delayed; ``sent - due`` is the driver's own lateness, reported on
its own. Nothing is bucketed or interpolated.
"""

from __future__ import annotations

import json
import selectors
import socket
from collections import deque
from time import perf_counter
from typing import Callable, Deque, List, Optional, Sequence, Tuple


class Op:
    """One request on the wire and what came back."""

    __slots__ = ("kind", "method", "path", "body", "due", "sent", "recv",
                 "status", "payload", "ok", "check", "phase", "meta")

    def __init__(self, kind: str, method: str, path: str,
                 body: Optional[dict] = None,
                 check: Optional[Callable[["Op"], bool]] = None,
                 meta: Optional[dict] = None):
        self.kind = kind
        self.method = method
        self.path = path
        self.body = body
        self.check = check
        self.meta = meta
        self.due = 0.0
        self.sent = 0.0
        self.recv = 0.0
        self.status = 0
        self.payload: Optional[dict] = None
        self.ok = False
        self.phase = ""

    @property
    def latency_s(self) -> float:
        return self.recv - self.due

    def frame(self, host: str) -> bytes:
        if self.body is None:
            return (f"{self.method} {self.path} HTTP/1.1\r\n"
                    f"Host: {host}\r\n\r\n").encode("latin-1")
        data = json.dumps(self.body).encode("utf-8")
        head = (f"{self.method} {self.path} HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\n\r\n")
        return head.encode("latin-1") + data


def parse_response(buf: bytearray) -> Optional[Tuple[int, bytes, int]]:
    """``(status, body, consumed)`` for one complete response, or None."""
    end_head = buf.find(b"\r\n\r\n")
    if end_head < 0:
        return None
    head = bytes(buf[:end_head]).decode("latin-1").split("\r\n")
    parts = head[0].split(" ", 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise ConnectionError(f"malformed status line {head[0]!r}")
    length = 0
    for line in head[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    end = end_head + 4 + length
    if len(buf) < end:
        return None
    return int(parts[1]), bytes(buf[end_head + 4:end]), end


class _Conn:
    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.outbuf = bytearray()
        self.inbuf = bytearray()
        self.inflight: Deque[Op] = deque()
        self.dead = False
        self.want_write = False


#: One open-loop arrival: (due perf_counter time, connection, factory).
#: The factory runs at send time, so a request may depend on responses
#: that arrived before it was due (ids of created orgs, say).
Arrival = Tuple[float, int, Callable[[], Op]]

#: How long a phase waits for its last answers before failing them.
DRAIN_TIMEOUT_S = 60.0


class Driver:
    """Pipelined keep-alive connections to one gateway."""

    def __init__(self, host: str, port: int, connections: int):
        self.host = host
        self.conns = [_Conn(host, port) for _ in range(connections)]
        self.sel = selectors.DefaultSelector()
        for index, conn in enumerate(self.conns):
            self.sel.register(conn.sock, selectors.EVENT_READ, index)
        self.on_response: Optional[Callable[[Op], None]] = None

    def close(self) -> None:
        for conn in self.conns:
            try:
                self.sel.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
            conn.sock.close()
        self.sel.close()

    # -- wire ----------------------------------------------------------

    def _send(self, index: int, op: Op) -> None:
        conn = self.conns[index]
        if conn.dead:
            op.sent = op.recv = perf_counter()
            self._finish(op, 0, b"")
            return
        conn.outbuf += op.frame(self.host)
        conn.inflight.append(op)
        op.sent = perf_counter()
        self._flush(index)

    def _flush(self, index: int) -> None:
        conn = self.conns[index]
        try:
            while conn.outbuf:
                sent = conn.sock.send(conn.outbuf)
                del conn.outbuf[:sent]
        except BlockingIOError:
            pass
        except OSError:
            self._kill(index)
            return
        if conn.want_write != bool(conn.outbuf):
            conn.want_write = bool(conn.outbuf)
            events = selectors.EVENT_READ
            if conn.want_write:
                events |= selectors.EVENT_WRITE
            self.sel.modify(conn.sock, events, index)

    def _read(self, index: int) -> None:
        conn = self.conns[index]
        try:
            chunk = conn.sock.recv(1 << 18)
        except BlockingIOError:
            return
        except OSError:
            self._kill(index)
            return
        if not chunk:
            self._kill(index)
            return
        now = perf_counter()
        conn.inbuf += chunk
        while True:
            parsed = parse_response(conn.inbuf)
            if parsed is None:
                return
            status, body, consumed = parsed
            del conn.inbuf[:consumed]
            if not conn.inflight:
                raise ConnectionError("response without a request")
            op = conn.inflight.popleft()
            op.recv = now
            self._finish(op, status, body)

    def _kill(self, index: int) -> None:
        """A lost connection fails everything still in flight on it."""
        conn = self.conns[index]
        conn.dead = True
        now = perf_counter()
        while conn.inflight:
            op = conn.inflight.popleft()
            op.recv = now
            self._finish(op, 0, b"")
        try:
            self.sel.unregister(conn.sock)
        except (KeyError, ValueError):
            pass

    def _finish(self, op: Op, status: int, body: bytes) -> None:
        op.status = status
        if body:
            try:
                data = json.loads(body.decode("utf-8"))
                op.payload = data if isinstance(data, dict) else None
            except (ValueError, UnicodeDecodeError):
                op.payload = None
        op.ok = 200 <= status < 300 and op.payload is not None
        if op.ok and op.check is not None:
            op.ok = bool(op.check(op))
        if self.on_response is not None:
            self.on_response(op)

    # -- phases ----------------------------------------------------------

    def run(self, plan: Sequence[Arrival], phase: str,
            closed: Optional[Tuple[int, int, Callable[[], Op]]] = None,
            closed_until: float = 0.0) -> List[Op]:
        """Send ``plan`` on schedule (and keep ``closed`` = ``(conn,
        window, factory)`` full until ``closed_until``); return every
        op once all have answered or :data:`DRAIN_TIMEOUT_S` expired."""
        done: List[Op] = []
        position = 0
        last_due = plan[-1][0] if plan else perf_counter()
        hard_stop = max(last_due, closed_until) + DRAIN_TIMEOUT_S
        while True:
            now = perf_counter()
            while position < len(plan) and plan[position][0] <= now:
                due, index, factory = plan[position]
                position += 1
                op = factory()
                op.due = due
                op.phase = phase
                done.append(op)
                self._send(index, op)
            if closed is not None and now < closed_until:
                index, window, factory = closed
                conn = self.conns[index]
                while not conn.dead and len(conn.inflight) < window:
                    op = factory()
                    op.due = perf_counter()
                    op.phase = phase
                    done.append(op)
                    self._send(index, op)
            busy = any(conn.inflight for conn in self.conns)
            if position >= len(plan) and now >= closed_until and not busy:
                return done
            if now > hard_stop:
                for index in range(len(self.conns)):
                    self._kill(index)
                return done
            timeout = 0.05
            if position < len(plan):
                timeout = min(timeout, max(0.0, plan[position][0] - now))
            for key, mask in self.sel.select(timeout):
                index = key.data
                if mask & selectors.EVENT_WRITE:
                    self._flush(index)
                if mask & selectors.EVENT_READ:
                    self._read(index)
