"""Fixtures for the gateway suite.

``make_world`` mirrors the serving suite's factory (reduced catalog,
zero ambient competition) so gateway tests stay fast; ``gateway_stack``
assembles the full vertical — world, runtime, tenancy store, app — and
optionally binds a live server on an ephemeral port. Plain-socket
helpers rather than an HTTP client library: several tests need to send
deliberately malformed bytes no client would emit.
"""

from __future__ import annotations

import json
import socket
from typing import Dict, List, Optional, Tuple

import pytest

from repro.core.provider import TransparencyProvider
from repro.gateway import (
    GatewayApp,
    GatewayServer,
    TenantRegistry,
    WorldManifest,
    build_runtime,
    open_tenancy_store,
)
from repro.platform.catalog import build_us_catalog
from repro.platform.platform import AdPlatform, PlatformConfig
from repro.platform.web import WebDirectory
from repro.workloads.competition import zero_competition
from repro.workloads.personas import (
    AVERAGE_CONSUMER,
    ESTABLISHED_PROFESSIONAL,
    RECENT_ARRIVAL_GRAD_STUDENT,
)
from repro.workloads.population import PopulationBuilder


@pytest.fixture
def make_world():
    """Factory: identically-seeded platforms with a launched sweep."""

    def build(seed: int = 11, users: int = 24) -> AdPlatform:
        platform = AdPlatform(
            config=PlatformConfig(name="gateway"),
            catalog=build_us_catalog(platform_count=40,
                                     partner_count=25),
            competing_draw=zero_competition(),
        )
        web = WebDirectory()
        builder = PopulationBuilder(platform, seed=seed)
        builder.spawn_mix(
            [ESTABLISHED_PROFESSIONAL, AVERAGE_CONSUMER,
             RECENT_ARRIVAL_GRAD_STUDENT],
            users,
        )
        builder.finalize()
        provider = TransparencyProvider(platform, web, budget=5000.0,
                                        bid_cap_cpm=10.0)
        for user_id in platform.users.user_ids():
            provider.optin.via_page_like(user_id)
        provider.launch_partner_sweep()
        return platform

    return build


class GatewayStack:
    """One assembled gateway vertical, with teardown bookkeeping."""

    def __init__(self, platform, runtime, store, tenants, app,
                 server: Optional[GatewayServer]):
        self.platform = platform
        self.runtime = runtime
        self.store = store
        self.tenants = tenants
        self.app = app
        self.server = server

    @property
    def url(self) -> str:
        assert self.server is not None
        return self.server.url

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
        if self.runtime.running:
            self.runtime.stop()
        if self.runtime.config.backend != "process":
            for shard in self.runtime.router.shards:
                shard.store.close()
        if self.store is not None:
            self.store.close()


@pytest.fixture
def gateway_stack(make_world, tmp_path):
    """Factory: a started gateway (live server unless ``serve=False``)."""
    stacks: List[GatewayStack] = []

    def build(seed: int = 11, users: int = 24, shards: int = 2,
              journal: bool = True, serve: bool = True,
              slo_spec=None, backend: str = "thread") -> GatewayStack:
        manifest = WorldManifest(seed=seed, users=users, shards=shards,
                                 backend=backend)
        platform = make_world(seed=seed, users=users)
        journal_dir = str(tmp_path / f"journal-{len(stacks)}")
        runtime = build_runtime(
            platform, manifest,
            journal_dir=journal_dir if journal else None)
        store = tenants = None
        if journal:
            store = open_tenancy_store(journal_dir)
            tenants = TenantRegistry(platform, store)
        app = GatewayApp(platform, runtime, tenants, manifest,
                         slo_spec=slo_spec)
        runtime.start()
        server = GatewayServer(app).start() if serve else None
        stack = GatewayStack(platform, runtime, store, tenants, app,
                             server)
        stacks.append(stack)
        return stack

    yield build
    for stack in stacks:
        stack.close()


def raw_exchange(url: str, payload: bytes,
                 timeout: float = 10.0) -> bytes:
    """Send raw bytes, read until the server closes or times out."""
    host, port = _host_port(url)
    with socket.create_connection((host, port), timeout=timeout) as s:
        s.sendall(payload)
        s.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def http_request(url: str, method: str, path: str,
                 payload: Optional[dict] = None,
                 timeout: float = 10.0) -> Tuple[int, dict]:
    """One request over a fresh connection; JSON-decoded body."""
    host, port = _host_port(url)
    body = b""
    headers = [f"{method} {path} HTTP/1.1", f"Host: {host}",
               "Connection: close"]
    if payload is not None:
        body = json.dumps(payload).encode("utf-8")
        headers.append("Content-Type: application/json")
        headers.append(f"Content-Length: {len(body)}")
    frame = ("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body
    raw = raw_exchange(url, frame, timeout=timeout)
    return parse_response(raw)


def parse_response(raw: bytes) -> Tuple[int, dict]:
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    if b"Content-Length" in head:
        length = int(
            [line for line in head.split(b"\r\n")
             if line.lower().startswith(b"content-length")][0]
            .split(b":")[1])
        body = body[:length]
    try:
        data = json.loads(body.decode("utf-8"))
    except ValueError:
        data = {"raw": body.decode("utf-8", "replace")}
    return status, data


def split_pipelined(raw: bytes) -> List[Tuple[int, bytes]]:
    """Split a byte stream of back-to-back responses into
    ``(status, body)`` pairs using each frame's ``Content-Length``."""
    out: List[Tuple[int, bytes]] = []
    rest = raw
    while rest:
        head, sep, tail = rest.partition(b"\r\n\r\n")
        if not sep:
            break
        status = int(head.split(b" ", 2)[1])
        length = 0
        for line in head.split(b"\r\n"):
            if line.lower().startswith(b"content-length"):
                length = int(line.split(b":")[1])
        out.append((status, tail[:length]))
        rest = tail[length:]
    return out


def _host_port(url: str) -> Tuple[str, int]:
    hostport = url.split("//", 1)[1]
    host, _, port = hostport.partition(":")
    return host, int(port)


def error_code(data: Dict[str, object]) -> str:
    error = data.get("error")
    assert isinstance(error, dict), f"no structured error in {data!r}"
    return str(error["code"])
