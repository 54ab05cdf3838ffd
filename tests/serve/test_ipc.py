"""The IPC layer on its own: framing codec, bridging claims, workers.

The equivalence and recovery suites prove the process backend
end-to-end; these tests pin the pieces — the length-prefixed codec's
edge cases, the incremental decoder against the blocking reader, the
event-loop channel (reply order, loss), the journal-consistent
``claim_through`` bridge, worker lifecycle (spawn, serve, checkpoint,
clean shutdown), the seed snapshot written on a seeded spawn, the
record-free shadow shards, and the metrics merge-back.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import socket
import struct
import threading

import numpy as np
import pytest

from repro.obs import metrics as _metrics
from repro.serve import (
    AdRequest,
    FrameDecoder,
    Framer,
    KeyedCompetition,
    RuntimeConfig,
    ServingRuntime,
    ShardChannel,
    WorkerLost,
)
from repro.serve import ipc
from repro.serve.sharding import shard_snapshot_path
from repro.store.audit import canonical_json, state_report
from repro.store.records import SlotClaimed
from repro.store.snapshot import Snapshot
from repro.store.store import NullStore


@pytest.fixture
def framer_pair():
    left_sock, right_sock = socket.socketpair()
    left, right = Framer(left_sock), Framer(right_sock)
    yield left, right
    left.close()
    right.close()


class TestFramer:
    def test_round_trip(self, framer_pair):
        left, right = framer_pair
        message = ("serve", [("u1", 0, 2), ("u2", 4, 1)])
        left.send(message)
        assert right.recv() == message

    def test_many_messages_in_order(self, framer_pair):
        left, right = framer_pair
        for i in range(200):
            left.send({"seq": i})
        for i in range(200):
            assert right.recv() == {"seq": i}

    def test_large_payload(self, framer_pair):
        left, right = framer_pair
        payload = ["x" * 1024] * 4096  # ~4 MiB, spans many recv chunks
        done = threading.Event()
        received = []

        def reader():
            received.append(right.recv())
            done.set()

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        left.send(payload)
        assert done.wait(timeout=30)
        assert received[0] == payload

    def test_byte_accounting_includes_headers(self, framer_pair):
        left, right = framer_pair
        left.send("ping")
        right.recv()
        assert left.bytes_sent > 4
        assert right.bytes_received == left.bytes_sent

    def test_closed_peer_raises_worker_lost(self, framer_pair):
        left, right = framer_pair
        right.close()
        with pytest.raises(WorkerLost):
            left.recv()

    def test_oversize_frame_rejected_at_send(self, framer_pair):
        left, _ = framer_pair
        from repro.serve import ipc

        huge = b"x" * (ipc.MAX_FRAME_BYTES + 1)
        with pytest.raises(ValueError, match="frame"):
            left.send(huge)

    def test_corrupt_length_prefix_rejected(self):
        left_sock, right_sock = socket.socketpair()
        try:
            left_sock.sendall(b"\xff\xff\xff\xff")
            with pytest.raises(WorkerLost, match="corrupt"):
                Framer(right_sock).recv()
        finally:
            left_sock.close()
            right_sock.close()


def _wire(*messages):
    """The exact bytes :class:`Framer` writes for ``messages``."""
    chunks = []
    for message in messages:
        parts, _, _ = ipc.encode_frame(message)
        chunks.append(b"".join(bytes(memoryview(p).cast("B"))
                               for p in parts))
    return chunks


def _framer_recv(data, count):
    """What the blocking reader returns for ``data``."""
    left_sock, right_sock = socket.socketpair()
    try:
        done = threading.Event()
        received = []

        def reader():
            framer = Framer(right_sock)
            for _ in range(count):
                received.append(framer.recv())
            done.set()

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        left_sock.sendall(data)
        assert done.wait(timeout=30)
        return received
    finally:
        left_sock.close()
        right_sock.close()


def _same(left, right):
    """Deep equality that also compares numpy arrays (and their
    writability) and the exact container types."""
    assert type(left) is type(right)
    if isinstance(left, np.ndarray):
        assert left.dtype == right.dtype and left.shape == right.shape
        assert np.array_equal(left, right)
        assert left.flags.writeable == right.flags.writeable
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right)
        for a, b in zip(left, right):
            _same(a, b)
    elif isinstance(left, memoryview):
        assert left.tobytes() == right.tobytes()
        assert left.readonly == right.readonly
    elif isinstance(left, dict):
        assert list(left) == list(right)
        for key in left:
            _same(left[key], right[key])
    else:
        assert left == right


MESSAGES = [
    ("serve", [("u1", 0, 2, None), ("u2", 4, 1, ("t", 7))]),
    ("ok", {"journal_seq": 3, "state": {"a": [1, 2.5, None]}}),
    {"bits": np.arange(300, dtype=np.uint64),
     "raw": pickle.PickleBuffer(bytearray(b"\x00\x01" * 500)),
     "inline": bytearray(b"abc"), "label": "delta"},
    "",
]


class TestFrameDecoder:
    def test_split_at_every_byte_boundary(self):
        for message in MESSAGES:
            (data,) = _wire(message)
            expected = _framer_recv(data, 1)[0]
            for cut in range(len(data) + 1):
                decoder = FrameDecoder()
                got = decoder.feed(data[:cut]) + decoder.feed(data[cut:])
                assert len(got) == 1, cut
                _same(got[0], expected)
                assert decoder.buffered == 0

    def test_byte_by_byte(self):
        data = b"".join(_wire(*MESSAGES))
        decoder = FrameDecoder()
        got = []
        for i in range(len(data)):
            got.extend(decoder.feed(data[i:i + 1]))
        expected = _framer_recv(data, len(MESSAGES))
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            _same(a, b)

    def test_several_frames_in_one_chunk(self):
        data = b"".join(_wire(*MESSAGES))
        decoder = FrameDecoder()
        got = decoder.feed(data)
        expected = _framer_recv(data, len(MESSAGES))
        assert len(got) == len(MESSAGES)
        for a, b in zip(got, expected):
            _same(a, b)
        assert decoder.bytes_received == len(data)
        assert decoder.buffers_received == 2

    def test_out_of_band_buffers(self):
        # A bytearray travels out-of-band when wrapped in a
        # PickleBuffer (bare, protocol 5 pickles it in-band).
        message = {"array": np.arange(64, dtype=np.uint64).reshape(8, 8),
                   "bytes": pickle.PickleBuffer(bytearray(range(256)))}
        _, _, buffer_count = ipc.encode_frame(message)
        assert buffer_count == 2
        (data,) = _wire(message)
        expected = _framer_recv(data, 1)[0]
        (got,) = FrameDecoder().feed(data)
        _same(got, expected)
        assert np.array_equal(got["array"], message["array"])
        assert got["array"].flags.writeable
        assert bytes(got["bytes"]) == bytes(range(256))

    def test_corrupt_length_prefix_raises_worker_lost(self):
        with pytest.raises(WorkerLost, match="corrupt"):
            FrameDecoder().feed(b"\xff\xff\xff\xff")

    def test_oversize_frame_raises_worker_lost(self):
        header = struct.pack("!I", ipc.MAX_FRAME_BYTES + 1)
        decoder = FrameDecoder()
        assert decoder.feed(header[:3]) == []
        with pytest.raises(WorkerLost, match="exceeds"):
            decoder.feed(header[3:])

    def test_sections_disagreeing_with_body_raise(self):
        (data,) = _wire("payload")
        corrupt = bytearray(data)
        # Claim one more payload byte than the body holds.
        (payload_length,) = struct.unpack_from("!I", corrupt, 4)
        struct.pack_into("!I", corrupt, 4, payload_length + 1)
        with pytest.raises(WorkerLost, match="corrupt"):
            FrameDecoder().feed(bytes(corrupt))
        with pytest.raises(WorkerLost, match="corrupt"):
            _framer_recv_raising(bytes(corrupt))

    def test_buffer_table_larger_than_body_raises_early(self):
        body = struct.pack("!II", 0, 1000)
        data = struct.pack("!I", len(body)) + body
        with pytest.raises(WorkerLost, match="corrupt"):
            FrameDecoder().feed(data)


def _framer_recv_raising(data):
    left_sock, right_sock = socket.socketpair()
    try:
        left_sock.sendall(data)
        left_sock.shutdown(socket.SHUT_WR)
        return Framer(right_sock).recv()
    finally:
        left_sock.close()
        right_sock.close()


class _Peer:
    """The worker end of a channel, played by a thread: echoes each
    frame's payload back as ``("ok", payload)``."""

    def __init__(self, sock):
        self.framer = Framer(sock)
        self.thread = threading.Thread(target=self.run, daemon=True)
        self.hold = threading.Event()

    def run(self):
        try:
            while True:
                op, payload = self.framer.recv()
                self.hold.wait(timeout=30)
                if op == "fail":
                    self.framer.send(("error", "boom"))
                else:
                    self.framer.send(("ok", payload))
        except WorkerLost:
            return


def _run_until(loop, predicate, timeout=10.0):
    async def wait():
        deadline = loop.time() + timeout
        while not predicate():
            assert loop.time() < deadline, "timed out"
            await asyncio.sleep(0.001)
    loop.run_until_complete(wait())


class TestShardChannel:
    def _channel(self, registry):
        parent_sock, child_sock = socket.socketpair()
        with _metrics.use_registry(registry):
            channel = ShardChannel(None, parent_sock, 0)
        return channel, child_sock

    def test_replies_resolve_in_send_order(self):
        registry = _metrics.MetricsRegistry("channel")
        channel, child_sock = self._channel(registry)
        peer = _Peer(child_sock)
        peer.thread.start()
        loop = asyncio.new_event_loop()
        try:
            channel.attach(loop)
            got = []
            for i in range(50):
                channel.send("serve" if i % 2 else "telemetry", i,
                             lambda reply, error: got.append(
                                 (reply, error)))
            assert channel.outstanding == 50
            peer.hold.set()
            _run_until(loop, lambda: len(got) == 50)
            assert got == [(i, None) for i in range(50)]
            assert channel.outstanding == 0
            failed = []
            channel.send("fail", None,
                         lambda reply, error: failed.append(error))
            _run_until(loop, lambda: failed)
            assert isinstance(failed[0], RuntimeError)
            assert "boom" in str(failed[0])
        finally:
            channel.detach()
            child_sock.close()
            channel._sock.close()
            loop.close()
        assert registry.counter("serve.ipc_batches").value == 25
        assert registry.counter("serve.ipc_bytes").value > 0
        assert registry.counter("serve.workers_lost").value == 0

    def test_eof_fails_every_outstanding_frame(self):
        registry = _metrics.MetricsRegistry("channel-eof")
        channel, child_sock = self._channel(registry)
        loop = asyncio.new_event_loop()
        try:
            channel.attach(loop)
            errors = []
            for op in ("serve", "checkpoint", "telemetry", "stop"):
                channel.send(op, None,
                             lambda reply, error: errors.append(error))
            child_sock.close()
            _run_until(loop, lambda: len(errors) == 4)
            assert all(isinstance(e, WorkerLost) for e in errors)
            assert channel.lost and channel.outstanding == 0
            with pytest.raises(WorkerLost, match="already lost"):
                channel.send("serve", [], lambda reply, error: None)
        finally:
            channel._sock.close()
            loop.close()
        assert registry.counter("serve.workers_lost").value == 1


class TestClaimThrough:
    def test_bridges_gap_and_journals_delta(self, make_world):
        from repro.serve import ShardRouter

        router = ShardRouter(make_world(users=5), num_shards=1)
        shard = router.shards[0]
        user_id = router.platform.users.user_ids()[0]
        shard.claim_slots(user_id, 2)  # seq now 2
        # parent shed a 3-slot request: the worker sees the next request
        # at base_seq 5 and must bridge 2 -> 7
        shard.claim_through(user_id, 7)
        assert shard.slot_seq[user_id] == 7
        claimed = [record for record in shard.store.records()
                   if isinstance(record, SlotClaimed)
                   and record.user_id == user_id]
        assert sum(record.slots for record in claimed) == 7

    def test_noop_when_target_not_ahead(self, make_world):
        from repro.serve import ShardRouter

        router = ShardRouter(make_world(users=5), num_shards=1)
        shard = router.shards[0]
        user_id = router.platform.users.user_ids()[0]
        shard.claim_slots(user_id, 4)
        before = len(shard.store.records())
        shard.claim_through(user_id, 3)
        assert shard.slot_seq[user_id] == 4
        assert len(shard.store.records()) == before


class TestWorkerLifecycle:
    def _runtime(self, platform, tmp_path=None, shards=2):
        return ServingRuntime(
            platform,
            RuntimeConfig(
                num_shards=shards, backend="process",
                journal_dir=None if tmp_path is None else str(tmp_path),
            ),
            competition=KeyedCompetition(seed=13),
        )

    def test_ipc_metrics_metered(self, make_world):
        registry = _metrics.MetricsRegistry("ipc-meter")
        with _metrics.use_registry(registry):
            platform = make_world(users=10)
            runtime = self._runtime(platform)
            with runtime:
                results = runtime.serve_and_wait([
                    AdRequest(uid, slots=1)
                    for uid in platform.users.user_ids()
                ])
            assert all(result.ok for result in results)
        assert registry.counter("serve.ipc_batches").value > 0
        assert registry.counter("serve.ipc_bytes").value > 0
        assert registry.counter("serve.workers_lost").value == 0

    def test_worker_metrics_merge_back(self, make_world):
        """Delivery happened only in the workers, yet after stop the
        parent registry carries the fleet-wide delivery counters."""
        registry = _metrics.MetricsRegistry("merge-back")
        with _metrics.use_registry(registry):
            platform = make_world(users=10)
            runtime = self._runtime(platform)
            with runtime:
                results = runtime.serve_and_wait([
                    AdRequest(uid, slots=2)
                    for uid in platform.users.user_ids()
                ])
            assert all(result.ok for result in results)
            served = sum(1 for result in results if result.ok)
        slots = registry.counter("delivery.slots_served").value
        assert slots == 2 * served
        service = registry.get("serve.service_time_s")
        assert service is not None and service.count == served

    def test_seeded_respawn_writes_seed_snapshot(self, make_world,
                                                 tmp_path):
        platform = make_world(users=10)
        runtime = self._runtime(platform, tmp_path, shards=1)
        with runtime:
            assert runtime.serve_and_wait(
                [AdRequest(uid, slots=1)
                 for uid in platform.users.user_ids()])
        snapshot_file = shard_snapshot_path(str(tmp_path), 0, 1)
        assert not os.path.exists(snapshot_file)
        # second start: shadows are dirty, workers get seeded and must
        # pin the seed on disk so recovery starts past it
        with runtime:
            assert runtime.serve_and_wait(
                [AdRequest(uid, slots=1)
                 for uid in platform.users.user_ids()])
        seed_snapshot = Snapshot.load(snapshot_file)
        assert seed_snapshot.label == "seed"
        assert seed_snapshot.journal_seq > 0

    def test_process_backend_rejects_prebuilt_router(self, make_world):
        from repro.serve import ShardRouter

        platform = make_world(users=5)
        router = ShardRouter(platform, num_shards=2)
        with pytest.raises(ValueError, match="shadow router"):
            ServingRuntime(
                platform,
                RuntimeConfig(num_shards=2, backend="process"),
                router=router,
            )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            RuntimeConfig(backend="greenlet")

    def test_shadow_shards_hold_no_per_request_records(self, make_world,
                                                       tmp_path):
        """The parent-side shadows claim a slot key per admitted
        request, but only owner dumps ever leave them: they keep no
        records, and the merged-back state matches the thread
        backend's byte for byte."""
        requests_per_user = 5
        reports = {}
        for backend in ("thread", "process"):
            platform = make_world(users=12)
            runtime = ServingRuntime(
                platform,
                RuntimeConfig(num_shards=2, backend=backend,
                              queue_capacity=4096),
                competition=KeyedCompetition(seed=13))
            requests = [AdRequest(uid, slots=1)
                        for _ in range(requests_per_user)
                        for uid in platform.users.user_ids()]
            with runtime:
                assert all(r.ok for r in runtime.serve_and_wait(requests))
                if backend == "process":
                    for shard in runtime.router.shards:
                        assert isinstance(shard.store, NullStore)
                        with pytest.raises(Exception, match="discards"):
                            shard.store.records()
                    claims = sum(shard.store.record_count
                                 for shard in runtime.router.shards)
                    assert claims == len(requests)
            reports[backend] = canonical_json(state_report(runtime.router))
        assert reports["process"] == reports["thread"]

    def test_recovered_shadow_holds_no_records(self, make_world,
                                               tmp_path):
        platform = make_world(users=6)
        runtime = self._runtime(platform, tmp_path, shards=1)
        with runtime:
            assert runtime.serve_and_wait(
                [AdRequest(uid, slots=1)
                 for uid in platform.users.user_ids()])
        shard = runtime.recover_shard(0)
        assert isinstance(shard.store, NullStore)

    def test_stopped_journaled_checkpoint_refuses(self, make_world,
                                                  tmp_path):
        runtime = self._runtime(make_world(users=5), tmp_path, shards=1)
        with pytest.raises(RuntimeError, match="start the runtime"):
            runtime.checkpoint("too-early")
