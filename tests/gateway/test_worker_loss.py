"""A shard worker dies under HTTP load: fail fast, never hang.

On the process backend the runtime's event loop drives each shard
worker through one channel. Killing a worker with a batch in flight and
more requests queued behind it, all pipelined on one keep-alive
connection, must turn every one of that shard's requests into a 500
within seconds — the channel sees EOF and fails its outstanding frame,
the queued ones fail fast — while the other shard keeps answering 200
on the very same connection.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import time
from typing import List, Tuple

from tests.gateway.conftest import _host_port

#: Requests pipelined before the kill (half to each shard).
PIPELINED = 200


def _frame(user_id: str) -> bytes:
    body = json.dumps({"user_id": user_id}).encode("utf-8")
    return (b"POST /v1/serve HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1")
            + body)


def _read_responses(sock: socket.socket, count: int,
                    buf: bytearray) -> List[Tuple[int, dict]]:
    """Read ``count`` pipelined responses (raises on a stall)."""
    out: List[Tuple[int, dict]] = []
    while len(out) < count:
        head_end = buf.find(b"\r\n\r\n")
        if head_end >= 0:
            head = bytes(buf[:head_end])
            length = 0
            for line in head.split(b"\r\n"):
                if line.lower().startswith(b"content-length"):
                    length = int(line.split(b":")[1])
            end = head_end + 4 + length
            if len(buf) >= end:
                status = int(head.split(b" ", 2)[1])
                out.append((status, json.loads(
                    bytes(buf[head_end + 4:end]).decode("utf-8"))))
                del buf[:end]
                continue
        # The socket timeout turns a hang into an error.
        chunk = sock.recv(65536)
        assert chunk, "gateway closed the connection"
        buf += chunk
    return out


class TestWorkerLossOverHttp:
    def test_killed_worker_fails_its_requests_with_500(self,
                                                       gateway_stack):
        stack = gateway_stack(backend="process", users=40)
        runtime = stack.runtime
        uids = sorted(stack.platform.users.user_ids())
        victim = 0
        victim_uid = next(u for u in uids
                          if runtime.router.shard_for(u).index == victim)
        other_uid = next(u for u in uids
                         if runtime.router.shard_for(u).index != victim)
        host, port = _host_port(stack.url)
        buf = bytearray()
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(_frame(victim_uid) + _frame(other_uid))
            assert [s for s, _ in _read_responses(sock, 2, buf)] \
                == [200, 200]

            # Freeze the victim so its first batch stays in flight and
            # the rest of its requests wait behind it; the other shard
            # serves its half meanwhile.
            process = runtime._clients[victim].process
            os.kill(process.pid, signal.SIGSTOP)
            users = [victim_uid if i % 2 == 0 else other_uid
                     for i in range(PIPELINED)]
            sock.sendall(b"".join(_frame(u) for u in users))
            deadline = time.monotonic() + 10.0
            while runtime._clients[victim].outstanding == 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            os.kill(process.pid, signal.SIGKILL)
            started = time.monotonic()
            responses = _read_responses(sock, PIPELINED, buf)
            assert time.monotonic() - started < 10.0
            process.join(timeout=10)

            for user, (status, body) in zip(users, responses):
                if user == victim_uid:
                    assert status == 500
                    assert body["error"]["code"] == "serve_error"
                    assert "lost" in body["error"]["message"]
                else:
                    assert status == 200

            # After the loss: the dead shard fails fast, the live one
            # keeps serving, on the same keep-alive connection.
            sock.sendall(b"".join(_frame(u) for u in
                                  [victim_uid, other_uid] * 5))
            after = _read_responses(sock, 10, buf)
            assert [status for status, _ in after] == [500, 200] * 5
