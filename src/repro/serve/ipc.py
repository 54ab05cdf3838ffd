"""Process-per-shard IPC: the framing codec, the parent-side channel,
and the shard worker loop.

The thread transport serves every shard inside the runtime's process,
where all shards contend for one GIL. This module is the other
transport: each shard's delivery engine, billing ledger, and journal
move into a forked worker process, and the parent speaks to it over a
socketpair using a length-prefixed, batched request/response framing.
Everything above the transport — admission, batching, the batch
function :meth:`~repro.serve.sharding.Shard.serve_batch` itself — is
the same code on both.

Division of labour (the whole point of the design):

* **Parent** — admission control. Bounded queues, shedding, deadline
  checks, and slot-index claims all happen before a single byte crosses
  the socket, so an overloaded runtime refuses work at in-process cost:
  shed and timed-out requests cost the worker process *nothing*. The
  parent end of each socketpair is a non-blocking :class:`ShardChannel`
  driven by an asyncio event loop (``loop.add_reader``): frames go out
  as they are written, replies are decoded incrementally as bytes
  arrive and resolved in the order their frames were sent. No parent
  thread ever blocks on a worker.
* **Worker** — delivery. One single-threaded loop: receive a batch
  frame, hand it to ``Shard.serve_batch`` (the batch's slots, then a
  group commit of the journal), answer with per-request
  outcomes. The worker owns the shard's ``shard-i-of-n``
  journal/snapshot files; flushing before every acknowledgement means
  a ``kill -9`` can never lose acknowledged work.

Wire format: every message is one frame — a 4-byte big-endian body
length, then a body of ``(payload length, buffer count)``, one 8-byte
length per out-of-band buffer, the protocol-5 pickle payload, and the
raw buffer bytes. Buffer-exporting objects (numpy arrays, bytearrays —
the batch sweep's bitset deltas) travel out-of-band: their bytes go
straight from the object to the socket via scatter-gather ``sendmsg``
and are handed to the unpickler as buffers, never transiting a
pickle-internal copy. :class:`Framer` reads frames with blocking exact
reads (the worker side, and the sweep's forked row-range workers);
:class:`FrameDecoder` parses the same format incrementally from
whatever chunks a non-blocking socket yields (the channel side).
Batching happens at the message level (one ``serve`` frame carries a
whole micro-batch), so the per-request framing overhead amortizes
exactly like the engine's serving-session costs do.

Four ops travel on a channel: ``serve`` (a micro-batch of requests),
``checkpoint`` (snapshot the worker's store, optionally to disk),
``telemetry`` (cumulative metrics plus finished spans) and ``stop``
(final snapshot, metrics and spans, then exit). The worker answers
every frame with exactly one ``(status, reply)`` frame, in order.

Spawning uses the ``fork`` start method: the child inherits the built
platform world (catalog, users, audiences, compiled matchers) by
copy-on-write instead of pickling it, and is forked before the parent
starts any thread (the event loop's included). The child installs a
**fresh** metrics registry first thing — the parent's pre-fork counts
arrived via fork too, and folding them back at shutdown would
double-count — so the state it ships home at ``stop`` is exactly this
worker's own work.
"""

from __future__ import annotations

import logging
import pickle
import socket
import struct
from collections import deque
from multiprocessing import get_context
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Tuple,
)

from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.store.snapshot import SNAPSHOT_VERSION, Snapshot
from repro.store.store import JournalStore, MemoryStore, StateStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    import asyncio

    from repro.serve.sharding import ShardRouter

_log = logging.getLogger("repro.serve.ipc")

_HEADER = struct.Struct("!I")
#: Frame body prefix: (pickle payload length, out-of-band buffer count).
_BODY_HEADER = struct.Struct("!II")
#: One out-of-band buffer's byte length.
_BUF_LEN = struct.Struct("!Q")

#: Hard ceiling on one frame's body (payload + buffers); anything larger
#: is a protocol error (a corrupt length prefix reads as garbage
#: gigabytes).
MAX_FRAME_BYTES = 1 << 29
#: Bytes asked of the socket per readiness event on a channel.
_RECV_CHUNK = 1 << 18

OP_SERVE = "serve"
OP_CHECKPOINT = "checkpoint"
OP_TELEMETRY = "telemetry"
OP_STOP = "stop"

#: Trace propagation on the wire: ``(trace_id, parent_span_id)`` of the
#: submitting process's request span, or ``None`` when tracing is off.
TraceContextItem = Optional[Tuple[Optional[str], int]]
#: One request on the wire: ``(user_id, base_seq, slots, trace_ctx)``.
ServeFrameItem = Tuple[str, int, int, TraceContextItem]
#: One outcome on the wire:
#: ``(served, ad_ids, lost, unfilled, error, service_s)``.
ServeReplyItem = Tuple[bool, Tuple[str, ...], int, int,
                       Optional[str], float]


#: Most iovecs handed to one ``sendmsg`` call (POSIX ``IOV_MAX`` >= 16;
#: Linux allows 1024 and refuses more with EMSGSIZE).
_MAX_IOV = 512


class WorkerLost(ConnectionError):
    """The peer process went away mid-conversation (EOF, broken pipe)."""


def _send_some(sock: socket.socket, views: List[memoryview]) -> None:
    """One ``sendmsg`` of at most :data:`_MAX_IOV` of ``views``, a frame
    backlog: what it took is dropped from the front of ``views``.
    Socket errors (a full non-blocking socket too) propagate."""
    sent = sock.sendmsg(views[:_MAX_IOV])
    done = 0
    while done < len(views) and sent >= views[done].nbytes:
        sent -= views[done].nbytes
        done += 1
    del views[:done]
    if sent:
        views[0] = views[0][sent:]


def encode_frame(message: Any) -> Tuple[List[Any], int, int]:
    """Pickle ``message`` into one frame's sections.

    Returns ``(parts, frame_bytes, buffer_count)``: the header (length
    prefix, body prefix, buffer lengths), the protocol-5 payload and
    the raw out-of-band buffers, ready for a scatter-gather send, plus
    the frame's total size and how many buffers travel out-of-band.
    """
    raws: List[memoryview] = []

    def export(buffer: pickle.PickleBuffer) -> bool:
        try:
            raws.append(buffer.raw())
        except BufferError:
            # Non-contiguous exporter: let pickle serialize it
            # in-band rather than flattening it ourselves.
            return False
        return True

    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL,
                           buffer_callback=export)
    lengths = [raw.nbytes for raw in raws]
    body_length = (_BODY_HEADER.size + _BUF_LEN.size * len(raws)
                   + len(payload) + sum(lengths))
    if body_length > MAX_FRAME_BYTES:
        raise ValueError(
            f"frame payload of {body_length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit")
    header = b"".join([
        _HEADER.pack(body_length),
        _BODY_HEADER.pack(len(payload), len(raws)),
        *(_BUF_LEN.pack(length) for length in lengths),
    ])
    return [header, payload, *raws], _HEADER.size + body_length, len(raws)


def _check_body_length(body_length: int) -> None:
    if body_length > MAX_FRAME_BYTES:
        raise WorkerLost(
            f"frame length {body_length} exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit (corrupt stream)")


def _check_table(body_length: int, buffer_count: int) -> None:
    if _BODY_HEADER.size + _BUF_LEN.size * buffer_count > body_length:
        raise WorkerLost(
            "frame sections disagree with the body length "
            "(corrupt stream)")


def _check_sections(body_length: int, payload_length: int,
                    lengths: List[int]) -> None:
    if (_BODY_HEADER.size + _BUF_LEN.size * len(lengths)
            + payload_length + sum(lengths)) != body_length:
        raise WorkerLost(
            "frame sections disagree with the body length "
            "(corrupt stream)")


class Framer:
    """Length-prefixed message framing over a stream socket.

    ``send`` writes one frame (see :func:`encode_frame`), all sections
    gathered into the socket with ``sendmsg`` so exported buffers
    (numpy arrays, bytearrays) never pass through a pickle-internal
    copy. ``recv`` blocks for exactly one frame, reads each buffer into
    its own preallocated ``bytearray`` via ``recv_into``, and hands the
    unpickler zero-copy ``memoryview``\\ s of them; it raises
    :class:`WorkerLost` on EOF or a reset — the only two shapes a dead
    peer can take on a socketpair. Byte totals (headers included)
    accumulate on ``bytes_sent`` / ``bytes_received``, buffer counts on
    ``buffers_sent`` / ``buffers_received``, so callers can meter IPC
    volume without the codec knowing about metrics.

    Not thread-safe: one conversation, one owner.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self.bytes_sent = 0
        self.bytes_received = 0
        self.buffers_sent = 0
        self.buffers_received = 0

    def send(self, message: Any) -> None:
        parts, frame_bytes, buffer_count = encode_frame(message)
        self._send_parts(parts)
        self.bytes_sent += frame_bytes
        self.buffers_sent += buffer_count

    def _send_parts(self, parts: List[Any]) -> None:
        """Scatter-gather the frame sections; no concatenation copy."""
        views = [memoryview(part).cast("B") for part in parts]
        views = [view for view in views if view.nbytes]
        while views:
            try:
                _send_some(self._sock, views)
            except OSError as exc:
                raise WorkerLost(
                    f"peer gone while sending: {exc}") from None

    def recv(self) -> Any:
        (body_length,) = _HEADER.unpack(self._recv_exact(_HEADER.size))
        _check_body_length(body_length)
        payload_length, buffer_count = _BODY_HEADER.unpack(
            self._recv_exact(_BODY_HEADER.size))
        _check_table(body_length, buffer_count)
        lengths_raw = self._recv_exact(_BUF_LEN.size * buffer_count)
        lengths = [
            _BUF_LEN.unpack_from(lengths_raw, i * _BUF_LEN.size)[0]
            for i in range(buffer_count)
        ]
        _check_sections(body_length, payload_length, lengths)
        payload = self._recv_exact(payload_length)
        buffers = []
        for length in lengths:
            buffer = bytearray(length)
            self._recv_into_exact(buffer)
            buffers.append(buffer)
        self.bytes_received += _HEADER.size + body_length
        self.buffers_received += buffer_count
        return pickle.loads(payload,
                            buffers=[memoryview(b) for b in buffers])

    def _recv_exact(self, size: int) -> bytes:
        buffer = bytearray(size)
        self._recv_into_exact(buffer)
        return bytes(buffer)

    def _recv_into_exact(self, buffer: bytearray) -> None:
        view = memoryview(buffer)
        received = 0
        while received < len(buffer):
            try:
                count = self._sock.recv_into(view[received:])
            except OSError as exc:
                raise WorkerLost(
                    f"peer gone while receiving: {exc}") from None
            if count == 0:
                raise WorkerLost("peer closed the stream")
            received += count

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close never matters
            pass


class FrameDecoder:
    """Incremental parser for the :class:`Framer` wire format.

    :meth:`feed` takes whatever bytes a non-blocking socket produced —
    a split header, several frames at once, a frame's tail — and
    returns every message those bytes complete, each equal to what
    :meth:`Framer.recv` would have returned for the same frame
    (out-of-band buffers arrive as ``memoryview``\\ s of their own
    ``bytearray``). The length checks are :class:`Framer`'s too, applied
    as soon as the section headers are in: an oversize length prefix or
    sections that disagree with the body length raise
    :class:`WorkerLost` without waiting for the (garbage) body.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        #: ``(body_length, payload_length, buffer lengths)`` of the frame
        #: at the head of the buffer once its headers are validated.
        self._head: Optional[Tuple[int, int, List[int]]] = None
        self.bytes_received = 0
        self.buffers_received = 0

    @property
    def buffered(self) -> int:
        """Bytes held that do not yet complete a frame."""
        return len(self._buf)

    def feed(self, data: Any) -> List[Any]:
        buf = self._buf
        buf += data
        messages: List[Any] = []
        while True:
            head = self._head
            if head is None:
                head = self._parse_head()
                if head is None:
                    return messages
            body_length, payload_length, lengths = head
            if len(buf) < _HEADER.size + body_length:
                return messages
            offset = (_HEADER.size + _BODY_HEADER.size
                      + _BUF_LEN.size * len(lengths))
            view = memoryview(buf)
            try:
                payload = bytes(view[offset:offset + payload_length])
                offset += payload_length
                buffers = []
                for length in lengths:
                    buffers.append(bytearray(view[offset:offset + length]))
                    offset += length
            finally:
                view.release()
            del buf[:_HEADER.size + body_length]
            self._head = None
            self.bytes_received += _HEADER.size + body_length
            self.buffers_received += len(lengths)
            messages.append(pickle.loads(
                payload, buffers=[memoryview(b) for b in buffers]))

    def _parse_head(self) -> Optional[Tuple[int, int, List[int]]]:
        buf = self._buf
        if len(buf) < _HEADER.size:
            return None
        (body_length,) = _HEADER.unpack_from(buf, 0)
        _check_body_length(body_length)
        if len(buf) < _HEADER.size + _BODY_HEADER.size:
            return None
        payload_length, buffer_count = _BODY_HEADER.unpack_from(
            buf, _HEADER.size)
        _check_table(body_length, buffer_count)
        table_end = (_HEADER.size + _BODY_HEADER.size
                     + _BUF_LEN.size * buffer_count)
        if len(buf) < table_end:
            return None
        lengths = [
            _BUF_LEN.unpack_from(
                buf, _HEADER.size + _BODY_HEADER.size + i * _BUF_LEN.size)[0]
            for i in range(buffer_count)
        ]
        _check_sections(body_length, payload_length, lengths)
        self._head = (body_length, payload_length, lengths)
        return self._head


#: ``on_reply(reply, error)``: exactly one of the two is ``None``.
ReplyCallback = Callable[[Any, Optional[BaseException]], None]


class ShardChannel:
    """Parent-side handle on one shard's worker process.

    Owns the non-blocking parent end of the socketpair. Once
    :meth:`attach`\\ ed to an event loop, the socket is watched with
    ``loop.add_reader``: every :meth:`send` frames one op and appends
    its reply callback to a FIFO, and replies — decoded incrementally —
    pop that FIFO in order, because the worker answers frames one by
    one in the order they arrived. All of it runs on the loop's thread;
    nothing here blocks or locks.

    EOF, a reset, or a corrupt stream marks the worker lost: every
    outstanding callback gets :class:`WorkerLost`, and later sends fail
    fast without touching the socket. Frames and bytes are metered into
    ``serve.ipc_batches`` (serve frames), ``serve.ipc_bytes`` (both
    directions, headers included) and ``serve.workers_lost``.
    """

    def __init__(self, process: Any, sock: socket.socket, index: int):
        self.process = process
        self.index = index
        self.lost = False
        self._sock = sock
        sock.setblocking(False)
        self._fd = sock.fileno()
        self._decoder = FrameDecoder()
        self._pending: Deque[Tuple[str, ReplyCallback]] = deque()
        self._out: List[memoryview] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._writing = False
        reg = _metrics.registry()
        self._m_batches = reg.counter("serve.ipc_batches")
        self._m_bytes = reg.counter("serve.ipc_bytes")
        self._m_lost = reg.counter("serve.workers_lost")

    @property
    def outstanding(self) -> int:
        """Frames sent whose reply has not arrived yet."""
        return len(self._pending)

    # -- loop registration -------------------------------------------------

    def attach(self, loop: asyncio.AbstractEventLoop) -> None:
        """Start watching the socket from ``loop`` (call on its thread,
        or before it runs)."""
        if self.lost:
            return
        self._loop = loop
        loop.add_reader(self._fd, self._on_readable)
        self._watch_writable(bool(self._out))

    def detach(self) -> None:
        """Stop watching the socket (on the loop's thread)."""
        loop, self._loop = self._loop, None
        writing, self._writing = self._writing, False
        if loop is not None:
            loop.remove_reader(self._fd)
            if writing:
                loop.remove_writer(self._fd)

    # -- sending -----------------------------------------------------------

    def send(self, op: str, payload: Any, on_reply: ReplyCallback) -> None:
        """Frame one op; ``on_reply`` runs when its reply (or the loss
        of the worker) arrives. Raises :class:`WorkerLost` when the
        worker is already gone."""
        if self.lost:
            raise WorkerLost(f"shard {self.index} worker already lost")
        parts, frame_bytes, _ = encode_frame((op, payload))
        self._pending.append((op, on_reply))
        if op == OP_SERVE:
            self._m_batches.inc()
        self._m_bytes.inc(frame_bytes)
        idle = not self._out
        for part in parts:
            view = memoryview(part).cast("B")
            if view.nbytes:
                self._out.append(view)
        if idle:
            # Otherwise the writer callback (or the next attach) is
            # already due to push the backlog, this frame behind it.
            self._flush_out()

    def request(self, op: str, payload: Any) -> "asyncio.Future[Any]":
        """:meth:`send` with an awaitable reply (on the loop's thread)."""
        import asyncio  # see repro.serve.runtime: loaded where used

        future = asyncio.get_running_loop().create_future()

        def on_reply(reply: Any, error: Optional[BaseException]) -> None:
            if future.done():
                return
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(reply)

        self.send(op, payload, on_reply)
        return future

    def _flush_out(self) -> None:
        out = self._out
        while out:
            try:
                _send_some(self._sock, out)
            except (BlockingIOError, InterruptedError):
                break
            except OSError as exc:
                self._lose(f"peer gone while sending: {exc}")
                return
        self._watch_writable(bool(out))

    def _watch_writable(self, backlog: bool) -> None:
        """Keep a writer callback registered exactly while a backlog
        waits (each change is an ``epoll_ctl``, so no change, no call)."""
        if self._loop is None or backlog == self._writing:
            return
        self._writing = backlog
        if backlog:
            self._loop.add_writer(self._fd, self._on_writable)
        else:
            self._loop.remove_writer(self._fd)

    def _on_writable(self) -> None:
        self._flush_out()

    # -- receiving ---------------------------------------------------------

    def _on_readable(self) -> None:
        try:
            data = self._sock.recv(_RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            self._lose(f"peer gone while receiving: {exc}")
            return
        if not data:
            self._lose("peer closed the stream")
            return
        before = self._decoder.bytes_received
        try:
            messages = self._decoder.feed(data)
        except WorkerLost as exc:
            self._lose(str(exc))
            return
        self._m_bytes.inc(self._decoder.bytes_received - before)
        for message in messages:
            if not self._pending:
                self._lose("reply without an outstanding frame "
                           "(corrupt stream)")
                return
            op, on_reply = self._pending.popleft()
            status, reply = message
            if op == OP_STOP:
                # The worker exits after this reply; its EOF is the
                # end of the conversation, not a loss.
                self.detach()
            if status == "ok":
                _call_reply(on_reply, reply, None)
            else:
                _call_reply(on_reply, None, RuntimeError(
                    f"shard {self.index} worker failed {op!r}: {reply}"))

    def _lose(self, reason: str) -> None:
        if self.lost:
            return
        self.lost = True
        self._m_lost.inc()
        self.detach()
        self._out = []
        _log.warning("shard %d worker lost: %s", self.index, reason)
        pending, self._pending = self._pending, deque()
        for _, on_reply in pending:
            _call_reply(on_reply, None, WorkerLost(
                f"shard {self.index} worker lost: {reason}"))

    # -- teardown ----------------------------------------------------------

    def reap(self, timeout: float = 10.0) -> None:
        """Close the channel and collect the process (terminate if it
        ignores the closed socket)."""
        self.detach()
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close never matters
            pass
        self.process.join(timeout=timeout)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.terminate()
            self.process.join(timeout=timeout)


def _call_reply(on_reply: ReplyCallback, reply: Any,
                error: Optional[BaseException]) -> None:
    try:
        on_reply(reply, error)
    except Exception:  # noqa: BLE001 - one bad callback must not stall
        _log.exception("IPC reply callback failed")


def snapshot_from_reply(reply: Dict[str, Any], label: str) -> Snapshot:
    """The :class:`Snapshot` a ``checkpoint`` or ``stop`` reply carries."""
    return Snapshot(
        version=SNAPSHOT_VERSION,
        journal_seq=int(reply["journal_seq"]),
        state=reply["state"],
        label=label,
    )


def spawn_shard_worker(router: "ShardRouter", index: int,
                       journal_dir: Optional[str],
                       seed_state: Optional[Dict[str, Dict[str, Any]]],
                       ) -> ShardChannel:
    """Fork one shard worker and return the parent-side channel.

    Must be called before the parent starts any thread, the event
    loop's included (fork with live threads inherits their locks
    mid-flight). ``seed_state``
    is the parent shadow shard's checkpoint state — ``None`` on a
    first, empty spawn; otherwise the worker restores it and (when
    journaling) writes a seed snapshot at its current journal position
    so recovery never replays records the seed already contains.
    """
    ctx = get_context("fork")
    parent_sock, child_sock = socket.socketpair()
    process = ctx.Process(
        target=_worker_main,
        args=(child_sock, parent_sock, router, index, journal_dir,
              seed_state),
        name=f"serve-shard{index}-proc",
        daemon=True,
    )
    process.start()
    child_sock.close()
    return ShardChannel(process, parent_sock, index)


# -- the worker process ----------------------------------------------------


def _worker_main(child_sock: socket.socket, parent_sock: socket.socket,
                 router: "ShardRouter", index: int,
                 journal_dir: Optional[str],
                 seed_state: Optional[Dict[str, Dict[str, Any]]]) -> None:
    """Entry point of a forked shard worker (runs in the child only)."""
    from repro.serve.sharding import (
        shard_journal_path,
        shard_snapshot_path,
    )

    parent_sock.close()
    # Fresh registry before any instrumented object is built: the
    # parent's pre-fork counts were inherited and must not be shipped
    # back (they would double-count at merge time).
    _metrics.set_registry(_metrics.MetricsRegistry(
        f"shard-{index}-worker"))
    # Same for tracing, with two twists: the fresh tracer shares the
    # parent tracer's epoch (CLOCK_MONOTONIC is system-wide, so both
    # sides emit offsets on one timeline) and takes a per-worker origin
    # so its span ids cannot collide with any other process's after the
    # merge-back.
    inherited_tracer = _tracing.tracer()
    if inherited_tracer.enabled:
        _tracing.set_tracer(_tracing.Tracer(
            epoch=inherited_tracer.epoch_raw, origin=index + 1))
    else:
        _tracing.set_tracer(_tracing.NULL_TRACER)
    num_shards = router.num_shards
    store: StateStore
    if journal_dir is not None:
        store = JournalStore(
            shard_journal_path(journal_dir, index, num_shards))
    else:
        store = MemoryStore()
    shard = router._build_shard(index, num_shards, store=store)
    if seed_state is not None:
        store.restore(Snapshot(
            version=SNAPSHOT_VERSION,
            journal_seq=store.record_count,
            state=seed_state,
            label="seed",
        ))
        if journal_dir is not None:
            # Pin the seed on disk: seeded state may include claims the
            # journal never saw (e.g. shed requests), so recovery must
            # start from this snapshot, not from a journal-only fold.
            store.checkpoint(label="seed").save(shard_snapshot_path(
                journal_dir, index, num_shards))
    framer = Framer(child_sock)
    users = router.platform.users
    try:
        while True:
            try:
                op, payload = framer.recv()
            except WorkerLost:
                # Parent gone (crash or GC'd client): flush what is
                # acknowledged and exit quietly.
                store.close()
                return
            if op == OP_SERVE:
                # serve_batch group-commits before it returns: an acked
                # outcome is always journal-backed, so SIGKILL between
                # batches loses nothing the parent was told about.
                framer.send(("ok", shard.serve_batch(users, payload)))
            elif op == OP_CHECKPOINT:
                snapshot = store.checkpoint(
                    label=payload["label"] or f"shard-{index}")
                directory = payload.get("directory")
                if directory is not None:
                    snapshot.save(shard_snapshot_path(
                        directory, index, num_shards))
                framer.send(("ok", {
                    "journal_seq": snapshot.journal_seq,
                    "state": snapshot.state,
                    "label": snapshot.label,
                }))
            elif op == OP_TELEMETRY:
                framer.send(("ok", {
                    "metrics": _metrics.registry().to_state(),
                    "spans": [span.record()
                              for span in _tracing.tracer().drain()],
                }))
            elif op == OP_STOP:
                snapshot = store.checkpoint(label="final")
                store.close()
                framer.send(("ok", {
                    "journal_seq": snapshot.journal_seq,
                    "state": snapshot.state,
                    "metrics": _metrics.registry().to_state(),
                    "spans": [span.record()
                              for span in _tracing.tracer().drain()],
                }))
                return
            else:
                framer.send(("error", f"unknown op {op!r}"))
    except WorkerLost:  # pragma: no cover - parent died mid-reply
        store.close()
    finally:
        framer.close()
