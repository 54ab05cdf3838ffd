"""The serving runtime: shard backlogs, micro-batching, admission.

Request lifecycle::

    submit() ──hash──> shard backlog ──flush──> micro-batch ──> SERVED
        │ backlog full                  │ deadline expired
        └──> SHED (no work done)        └──> TIMEOUT (no work done)

Admission control happens at the two points where refusing is still
cheap: a full shard backlog sheds at submit time (backpressure — the
bounded backlog *is* the overload signal), and an expired deadline
sheds when its batch is cut (serving an answer the page stopped
waiting for is pure waste). Both paths skip the delivery engine
entirely; only requests that survive admission cost real work, which
is what keeps latency bounded under overload instead of collapsing.

One serving path, two transports. Every shard has a bounded backlog
deque and at most one batch in flight. ``submit`` appends to the deque
and, when no batch is in flight for that shard, schedules one flush on
the runtime's event loop; the flush deadline-checks what has
accumulated (up to ``max_batch``) and hands the survivors to
:meth:`~repro.serve.sharding.Shard.serve_batch`; the reply resolves
that batch and cuts the next one from whatever arrived meanwhile. The
transport — picked in one place, ``_send_batch`` — is all that differs
between backends: ``backend="thread"`` runs the batch on the shard's
own worker thread in this process (GIL-bound — fine for determinism
tests, flat for throughput) and posts the outcomes back to the loop;
``backend="process"`` frames it to one forked worker process per shard
over a :class:`~repro.serve.ipc.ShardChannel`. Admission, shedding,
deadlines and slot-claim sequencing stay in this process either way,
so overload never costs a worker anything.

Determinism contract: each user's requests are served in submission
order (user→shard affinity + FIFO backlog + one batch in flight per
shard), and competing bids are keyed per ``(user, slot)`` — so a fixed
request sequence yields byte-identical delivery reports for any shard
count and either backend (``tests/serve/``).

Durability: ``serve_batch`` group-commits the shard's store before it
returns, so on both transports an acknowledged (SERVED) request's
journal records are pushed to the OS before its result resolves — a
crash of the serving process loses no acknowledged work. Surviving
power loss additionally needs a store opened with ``fsync=True``.

The loop runs on one runtime-owned IO thread
(:meth:`ServingRuntime.io_loop`), started on first use — after any
worker processes forked — and stopped with the runtime. Callers differ
only in where their own code runs: ``repro loadgen``, ``repro serve``
and :meth:`ServingRuntime.serve_and_wait` submit from their own thread
and hop onto the loop once per idle shard; the gateway runs its HTTP
server on the same loop, so an ad request is parsed, admitted,
batched, resolved and answered without crossing a thread on the
process backend (and with one hop to the shard thread and back on the
thread backend).
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Coroutine,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.errors import StoreError
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.obs.names import LATENCY_BUCKETS
from repro.obs.timeseries import (
    MetricSample,
    TimeSeriesBuffer,
    sample_registry,
)
from repro.platform.platform import AdPlatform
from repro.serve import ipc as _ipc
from repro.serve.requests import (
    AdRequest,
    AdResponse,
    ServeResult,
    ServeStatus,
)
from repro.serve.sharding import (
    KeyedCompetition,
    Shard,
    ShardRouter,
    journal_store_factory,
)
from repro.store.snapshot import Snapshot
from repro.store.store import NullStore, StateStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Imported where used at run time: asyncio loads the ssl stack
    # (~3 MB RSS per process), which paths that never open the event
    # loop — the sweep, a runtime that never serves — skip.
    import asyncio

#: Valid values for :attr:`RuntimeConfig.backend`.
BACKENDS = ("thread", "process")

_log = logging.getLogger("repro.serve.runtime")


@dataclass(frozen=True)
class RuntimeConfig:
    """Tuning knobs for :class:`ServingRuntime` (see ``docs/serving.md``)."""

    #: Number of user shards (engines, backlogs, workers).
    num_shards: int = 4
    #: Bounded shard backlog size; submissions beyond it are SHED.
    queue_capacity: int = 256
    #: Max requests coalesced into one delivery pass.
    max_batch: int = 32
    #: Deadline applied to requests that do not carry their own.
    default_deadline_s: Optional[float] = None
    #: Directory for per-shard write-ahead journals and snapshots. When
    #: set (and no prebuilt router is passed), every shard's state store
    #: is an on-disk :class:`repro.store.JournalStore` and the runtime
    #: supports :meth:`ServingRuntime.checkpoint` /
    #: :meth:`ServingRuntime.recover_shard`. ``None`` keeps shard state
    #: in memory.
    journal_dir: Optional[str] = None
    #: The transport that carries each admitted batch to its shard:
    #: ``"thread"`` (default) runs it on one in-process worker thread
    #: per shard (GIL-bound); ``"process"`` frames it to one forked
    #: worker process per shard — true multi-core scale-out. Admission,
    #: batching and the commit-before-reply rule are the same code on
    #: both (``docs/serving.md``).
    backend: str = "thread"
    #: When set, a telemetry thread samples the live registry (and, on
    #: the process backend, polls every worker's registry + finished
    #: spans over IPC) every this-many seconds into
    #: :attr:`ServingRuntime.telemetry`. ``None`` (default) streams
    #: nothing — the merge still happens once at :meth:`stop`.
    telemetry_interval_s: Optional[float] = None
    #: Sliding retention window of the telemetry time series, seconds.
    telemetry_retention_s: float = 60.0

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("need at least one shard")
        if self.queue_capacity < 1:
            raise ValueError("queue capacity must be positive")
        if self.max_batch < 1:
            raise ValueError("batch size must be positive")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got "
                f"{self.backend!r}")
        if self.telemetry_interval_s is not None \
                and self.telemetry_interval_s <= 0:
            raise ValueError("telemetry interval must be positive")
        if self.telemetry_retention_s <= 0:
            raise ValueError("telemetry retention must be positive")


#: What :meth:`ServingRuntime.submit` hands out: an asyncio future on
#: the runtime's IO thread, a concurrent one anywhere else.
_ResultFuture = Union["Future[ServeResult]", "asyncio.Future[ServeResult]"]


class _QueuedRequest:
    """A request in flight: payload, its future, and admission facts."""

    __slots__ = ("request", "future", "base_seq", "deadline_s",
                 "enqueued_at", "span")

    def __init__(self, request: AdRequest, future: "_ResultFuture",
                 base_seq: int, deadline_s: Optional[float],
                 enqueued_at: float,
                 span: Optional[_tracing.Span] = None):
        self.request = request
        self.future = future
        self.base_seq = base_seq
        self.deadline_s = deadline_s
        self.enqueued_at = enqueued_at
        #: The request's ``serve.request`` span (None with tracing off):
        #: begun at admission, finished wherever the result resolves.
        self.span = span


class _ShardStats:
    """Runtime-side live outcome counts for one shard.

    Every result resolves in the runtime's process, so these run during
    the run even while a worker process's own registry is remote;
    updates are single GIL-coalesced adds on the resolve path (same
    guarantee as the registry's instruments).
    """

    __slots__ = ("served", "shed", "timeout", "errored", "latency")

    def __init__(self, index: int):
        self.served = 0
        self.shed = 0
        self.timeout = 0
        self.errored = 0
        self.latency = _metrics.Histogram(
            f"serve.shard{index}.latency_s", buckets=LATENCY_BUCKETS)

    def add(self, status: ServeStatus, latency_s: float) -> None:
        if status is ServeStatus.SERVED:
            self.served += 1
        elif status is ServeStatus.SHED:
            self.shed += 1
        elif status is ServeStatus.TIMEOUT:
            self.timeout += 1
        else:
            self.errored += 1
        self.latency.observe(latency_s)


class ServingRuntime:
    """Concurrent ad serving over a :class:`ShardRouter`.

    Use as a context manager (starts workers on enter, stops on exit)
    or call :meth:`start` / :meth:`stop` explicitly. :meth:`submit`
    never blocks and always resolves its future with a
    :class:`ServeResult`; :meth:`serve_and_wait` is the synchronous
    convenience the equivalence tests and CLI use.
    """

    def __init__(
        self,
        platform: AdPlatform,
        config: Optional[RuntimeConfig] = None,
        competition: Optional[KeyedCompetition] = None,
        router: Optional[ShardRouter] = None,
    ):
        self.config = config or RuntimeConfig()
        process = self.config.backend == "process"
        if router is not None and process:
            # The process backend's router shards are in-memory shadows
            # seeded into (and merged back from) worker processes; a
            # prebuilt router would smuggle in stores the workers also
            # own.
            raise ValueError(
                "the process backend builds its own shadow router; "
                "do not pass one in")
        if process:
            # Process workers own the journal files themselves. The
            # parent-side shards are shadows: seeded at spawn, refreshed
            # at stop from owner dumps, never replayed — so their stores
            # keep no records (admission claims would otherwise pile up
            # one per request for the life of the runtime).
            store_factory: Optional[Callable[[int, int], StateStore]] = (
                lambda index, total: NullStore())
        elif self.config.journal_dir is not None:
            # Thread workers journal in-process.
            store_factory = journal_store_factory(self.config.journal_dir)
        else:
            store_factory = None
        self.router = router or ShardRouter(
            platform,
            num_shards=self.config.num_shards,
            competition=competition,
            store_factory=store_factory,
        )
        if router is not None and config is not None \
                and router.num_shards != config.num_shards:
            raise ValueError("router shard count disagrees with config")
        self.platform = platform
        self._process = process
        self._reset_queues(self.router.num_shards)
        #: The shard workers once spawned: one single-thread executor
        #: per shard (thread backend), or one worker process's channel
        #: per shard (process backend).
        self._workers: List[ThreadPoolExecutor] = []
        self._clients: List[_ipc.ShardChannel] = []
        #: True from spawn_workers() to stop(): flushes may run.
        self._spawned = False
        #: True once the shadow shards hold state worker processes must
        #: inherit (after a merge-back, recovery, or rebalance) — the
        #: signal to seed freshly spawned workers.
        self._shadow_dirty = False
        self._stop = threading.Event()
        self._running = False
        #: Set while the runtime winds down: flushes stop cutting new
        #: batches.
        self._closing = False
        self._pending = 0
        self._pending_cond = threading.Condition()
        #: The runtime's event loop and its IO thread (see io_loop).
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._io_thread: Optional[threading.Thread] = None
        self._io_lock = threading.Lock()
        #: Live time series the telemetry thread appends to (readable
        #: any time; populated only with ``telemetry_interval_s`` set —
        #: or by explicit :meth:`sample_telemetry` calls).
        self.telemetry = TimeSeriesBuffer(
            capacity=4096, max_age_s=self.config.telemetry_retention_s)
        self._telemetry_thread: Optional[threading.Thread] = None
        self._telemetry_listeners: List[
            Callable[["ServingRuntime", MetricSample], None]] = []
        self._telemetry_lock = threading.Lock()
        #: Latest ``to_state`` dump per shard worker (process backend),
        #: replaced wholesale on every poll, cleared at merge-back.
        self._worker_states: Dict[int, List[Dict[str, object]]] = {}
        reg = _metrics.registry()
        self._m_submitted = reg.counter("serve.requests_submitted")
        self._m_served = reg.counter("serve.requests_served")
        self._m_shed = reg.counter("serve.requests_shed")
        self._m_timeout = reg.counter("serve.requests_timeout")
        self._m_errored = reg.counter("serve.requests_errored")
        self._m_errors = reg.counter("serve.errors")
        self._m_depth = reg.gauge("serve.queue_depth")
        self._m_batch = reg.histogram("serve.batch_size")
        self._m_latency = reg.histogram("serve.request_latency_s")
        self._m_polls = reg.counter("serve.telemetry_polls")
        self._m_spans_merged = reg.counter("serve.trace_spans_merged")

    def _reset_queues(self, num_shards: int) -> None:
        """Fresh per-shard admission state: the bounded backlog deques
        with their flush-scheduled / batch-in-flight flags."""
        self._backlogs: List[Deque[_QueuedRequest]] = [
            deque() for _ in range(num_shards)]
        self._flush_due = [False] * num_shards
        self._in_flight = [False] * num_shards
        self._submit_locks = [threading.Lock() for _ in range(num_shards)]
        self._shard_stats = [_ShardStats(i) for i in range(num_shards)]

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._running

    def start(self, spawn_workers: bool = True) -> "ServingRuntime":
        """Open for admission; spawn the shard workers.

        ``spawn_workers=False`` opens admission without consumers —
        backlogs fill and shed deterministically, which is how the
        overload tests exercise backpressure without racing real
        workers; call :meth:`spawn_workers` afterwards to serve
        whatever was admitted.
        """
        if self._running:
            raise RuntimeError("runtime already started")
        self._stop.clear()
        self._closing = False
        self._running = True
        if spawn_workers:
            self.spawn_workers()
        if self.config.telemetry_interval_s is not None:
            self._telemetry_thread = threading.Thread(
                target=self._telemetry_loop,
                name="serve-telemetry",
                daemon=True,
            )
            self._telemetry_thread.start()
        return self

    def spawn_workers(self) -> None:
        """Start one worker per shard: a thread, or a forked process.

        Requests admitted before the spawn are batched as soon as the
        loop sees the new workers.
        """
        if self._spawned:
            raise RuntimeError("workers already spawned")
        if self._process:
            self._spawn_process_workers()
        else:
            self._workers = [
                ThreadPoolExecutor(
                    max_workers=1,
                    thread_name_prefix=f"serve-shard{shard.index}")
                for shard in self.router.shards]
        _log.info("serving runtime started: %d %s shard workers",
                  self.router.num_shards, self.config.backend)
        self._spawned = True
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._attach_channels,
                                            self._loop)
        elif any(self._backlogs):
            self.io_loop()

    def _spawn_process_workers(self) -> None:
        """Fork one worker process per shard and open its channel.

        Every fork happens before the runtime starts any thread — its
        IO loop is created on first use, after this — and workers are
        seeded from the shadow shards' checkpoints only once those
        shadows actually hold state: a first spawn starts empty and
        cheap.
        """
        for shard in self.router.shards:
            seed_state = (shard.store.checkpoint(label="spawn-seed").state
                          if self._shadow_dirty else None)
            self._clients.append(_ipc.spawn_shard_worker(
                self.router, shard.index, self.config.journal_dir,
                seed_state))

    def stop(self, drain: bool = True,
             timeout: Optional[float] = 30.0) -> None:
        """Stop workers; by default finishes queued work first.

        Requests still queued when the workers exit — ``drain=False``, a
        drain that timed out, or admission without workers — are
        resolved as TIMEOUT on the way down: an admitted request's
        future always gets a terminal result, never a silent drop, so
        ``served + shed + timeout + errored == submitted`` holds across
        shutdown too.
        """
        if not self._running:
            return
        if drain and self._spawned:
            self.drain(timeout=timeout)
        self._stop.set()
        if self._telemetry_thread is not None:
            self._telemetry_thread.join(timeout=timeout)
            self._telemetry_thread = None
        self._closing = True
        self._flush_unserved()
        if self._clients:
            # Each stop frame queues behind that worker's batch in
            # flight, if any.
            self._merge_back_workers(
                self._run_on_loop(self._stop_channels(timeout)))
        for worker in self._workers:
            # A batch still in flight finishes and posts its reply to
            # the loop, ahead of the loop's own stop below.
            worker.shutdown()
        self._workers = []
        self._spawned = False
        self._close_loop(timeout)
        for shard in self.router.shards:
            shard.store.flush()
        self._running = False
        if self.config.telemetry_interval_s is not None:
            # One last sample after the merge-back, so the series'
            # final row carries the complete (merged) totals.
            self.sample_telemetry()

    def _merge_back_workers(self, replies: List[object]) -> None:
        """Fold every stopped worker's world back in.

        Each worker answered the stop frame with a final checkpoint of
        its store (restored into the parent's shadow shard, so every
        aggregation API keeps working unchanged after the run) and its
        metrics registry dump (merged into the parent registry). The
        shadow keeps the parent's admission-time slot counters where
        they ran ahead of the worker's — shed and timed-out requests
        claimed slot keys the worker never saw, and the thread backend
        counts those claims too. A worker that died mid-run is skipped:
        its shadow stays stale until :meth:`recover_shard` rebuilds it
        from the journal the worker flushed batch by batch.
        """
        reg = _metrics.registry()
        trc = _tracing.tracer()
        for shard, channel, reply in zip(self.router.shards,
                                         self._clients, replies):
            channel.reap()
            if isinstance(reply, BaseException):
                _log.warning(
                    "shard %d worker lost before merge-back (%s); "
                    "shadow state is stale until recover_shard",
                    shard.index, reply)
                continue
            assert isinstance(reply, dict)
            admission_seq = dict(shard.slot_seq)
            shard.store.restore(_ipc.snapshot_from_reply(reply, "final"))
            for user_id, seq in admission_seq.items():
                if seq > shard.slot_seq.get(user_id, 0):
                    shard.slot_seq[user_id] = seq
            reg.merge_state(reply["metrics"])
            spans = reply.get("spans")
            if spans:
                self._m_spans_merged.inc(trc.adopt(spans))
        self._clients = []
        # The workers' counts now live in the parent registry; keeping
        # the streamed per-shard snapshots around would double-count
        # them in every later live_metrics() read.
        self._worker_states = {}
        self._shadow_dirty = True

    def _flush_unserved(self) -> None:
        """Resolve every still-queued request as TIMEOUT (no delivery
        work was or will be done for it)."""
        flushed = 0
        for shard in self.router.shards:
            unserved: List[_QueuedRequest] = []
            with self._submit_locks[shard.index]:
                backlog = self._backlogs[shard.index]
                unserved.extend(backlog)
                backlog.clear()
            for item in unserved:
                self._m_depth.dec()
                self._m_timeout.inc()
                self._resolve(item, ServeResult(
                    request=item.request,
                    status=ServeStatus.TIMEOUT,
                    shard_index=shard.index,
                    queued_s=perf_counter() - item.enqueued_at,
                ))
            flushed += len(unserved)
        if flushed:
            _log.info("shutdown drained %d unserved requests as TIMEOUT",
                      flushed)

    def __enter__(self) -> "ServingRuntime":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def drain(self, timeout: Optional[float] = 30.0) -> bool:
        """Block until every submitted request has a result.

        Returns False if ``timeout`` elapsed first.
        """
        deadline = None if timeout is None else perf_counter() + timeout
        with self._pending_cond:
            while self._pending > 0:
                remaining = (None if deadline is None
                             else deadline - perf_counter())
                if remaining is not None and remaining <= 0:
                    return False
                self._pending_cond.wait(timeout=remaining)
        return True

    # -- the event loop ----------------------------------------------------

    def io_loop(self) -> asyncio.AbstractEventLoop:
        """The runtime's event loop, running on its own IO thread.

        Started on first use — after :meth:`start` forked any worker
        processes — and stopped by :meth:`stop`. It cuts every batch and
        resolves every reply (on the process backend it also watches
        every worker channel); a caller that runs its own asyncio code
        on it (the gateway's HTTP server) submits without crossing a
        thread, and :meth:`submit` made on this loop returns an
        ``asyncio.Future`` of it.
        """
        loop = self._loop
        if loop is not None:
            return loop
        with self._io_lock:
            if self._loop is None:
                import asyncio

                loop = asyncio.new_event_loop()
                # Not running yet: channels attach from this thread.
                self._attach_channels(loop)
                self._io_thread = threading.Thread(
                    target=loop.run_forever, name="serve-io", daemon=True)
                # Published before it runs: batches it cuts read it.
                self._loop = loop
                self._io_thread.start()
            return self._loop

    def _attach_channels(self, loop: asyncio.AbstractEventLoop) -> None:
        """Watch every worker channel from ``loop`` and flush every shard
        that admitted work before its worker existed."""
        for channel in self._clients:
            channel.attach(loop)
        if not self._spawned:
            return
        for index, backlog in enumerate(self._backlogs):
            with self._submit_locks[index]:
                due = bool(backlog) and not self._flush_due[index] \
                    and not self._in_flight[index]
                self._flush_due[index] |= due
            if due:
                loop.call_soon(self._flush, index)

    def _on_io_thread(self) -> bool:
        thread = self._io_thread
        return thread is not None and thread.ident == threading.get_ident()

    def _close_loop(self, timeout: Optional[float]) -> None:
        loop, thread = self._loop, self._io_thread
        if loop is None or thread is None:
            return
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=timeout)
        if not thread.is_alive():
            loop.close()
        self._loop = None
        self._io_thread = None

    def _run_on_loop(self, coro: Coroutine[Any, Any, Any]) -> Any:
        """Run ``coro`` on the runtime's loop from another thread and
        return its result — the path of every control op (checkpoint,
        telemetry poll, stop)."""
        import asyncio

        loop = self.io_loop()
        if self._on_io_thread():
            coro.close()
            raise RuntimeError(
                "cannot wait on the runtime's event loop from its own "
                "thread")
        return asyncio.run_coroutine_threadsafe(coro, loop).result()

    async def _control_all(self, op: str, payload: object,
                           channels: Sequence[_ipc.ShardChannel],
                           timeout: Optional[float] = None
                           ) -> List[object]:
        """Send one control op to each channel; their replies in order
        (a :class:`BaseException` in place of a failed one)."""
        import asyncio

        loop = asyncio.get_running_loop()
        waits: List["asyncio.Future[Any]"] = []
        for channel in channels:
            try:
                waits.append(channel.request(op, payload))
            except _ipc.WorkerLost as exc:
                failed = loop.create_future()
                failed.set_exception(exc)
                waits.append(failed)
        if waits:
            await asyncio.wait(waits, timeout=timeout)
        return [(wait.exception() or wait.result()) if wait.done()
                else TimeoutError(f"no {op} reply within {timeout}s")
                for wait in waits]

    async def _stop_channels(self, timeout: Optional[float]
                             ) -> List[object]:
        """Stop every worker process; their final replies in order."""
        replies = await self._control_all(_ipc.OP_STOP, None,
                                          self._clients, timeout)
        for channel in self._clients:
            channel.detach()
        return replies

    # -- live telemetry ----------------------------------------------------

    def add_telemetry_listener(
        self,
        listener: Callable[["ServingRuntime", MetricSample], None],
    ) -> None:
        """Call ``listener(runtime, sample)`` after every telemetry
        sample (exception-fenced; a failing listener never stalls the
        stream). ``repro top`` and ``--metrics-out`` hang off this."""
        self._telemetry_listeners.append(listener)

    def _telemetry_loop(self) -> None:
        interval = self.config.telemetry_interval_s
        assert interval is not None
        while not self._stop.wait(interval):
            try:
                self.sample_telemetry()
            except Exception:  # noqa: BLE001 - keep the stream alive
                _log.exception("telemetry sample failed")

    def sample_telemetry(self) -> MetricSample:
        """Take one telemetry sample; append it to :attr:`telemetry`.

        On the process backend this is the streaming merge: every live
        worker is polled for its cumulative registry state (replacing
        the previous per-shard snapshot) and for spans finished since
        the last poll (adopted into the current tracer), so counters
        and traces advance *during* the run instead of materialising
        at stop. The sample combines :meth:`live_metrics` with
        parent-side per-shard outcome counts and queue depths under
        ``serve.shard<i>.*`` keys.
        """
        trc = _tracing.tracer()
        with self._telemetry_lock:
            live = [channel for channel in self._clients
                    if not channel.lost]
            if live:
                replies = self._run_on_loop(self._control_all(
                    _ipc.OP_TELEMETRY, None, live, _POLL_TIMEOUT_S))
                for channel, reply in zip(live, replies):
                    if isinstance(reply, BaseException):
                        _log.warning("shard %d telemetry poll failed: %s",
                                     channel.index, reply)
                        continue
                    self._worker_states[channel.index] = reply["metrics"]
                    spans = reply.get("spans") or []
                    if spans:
                        self._m_spans_merged.inc(trc.adopt(spans))
            self._m_polls.inc()
            extra_scalars: Dict[str, float] = {}
            extra_hists: Dict[str, _metrics.Histogram] = {}
            for index, stats in enumerate(self._shard_stats):
                prefix = f"serve.shard{index}"
                extra_scalars[f"{prefix}.queue_depth"] = float(
                    len(self._backlogs[index]))
                extra_scalars[f"{prefix}.served"] = float(stats.served)
                extra_scalars[f"{prefix}.shed"] = float(stats.shed)
                extra_scalars[f"{prefix}.timeout"] = float(stats.timeout)
                extra_scalars[f"{prefix}.errored"] = float(stats.errored)
                extra_hists[f"{prefix}.latency_s"] = stats.latency
            sample = sample_registry(
                self.live_metrics(), perf_counter(),
                extra_scalars=extra_scalars,
                extra_histograms=extra_hists)
            self.telemetry.append(sample)
        for listener in list(self._telemetry_listeners):
            try:
                listener(self, sample)
            except Exception:  # noqa: BLE001 - listeners are fenced
                _log.exception("telemetry listener failed")
        return sample

    def live_metrics(self) -> _metrics.MetricsRegistry:
        """The run's counters *as of now*, merged across processes.

        A fresh registry folding the parent's registry state with the
        latest streamed snapshot from every shard worker — the mid-run
        equivalent of the merge :meth:`stop` performs once at the end.
        (After stop, the worker snapshots are cleared and the parent
        registry already holds the merged totals.)
        """
        merged = _metrics.MetricsRegistry(name="live")
        merged.merge_state(_metrics.registry().to_state())
        for state in self._worker_states.values():
            merged.merge_state(state)
        return merged

    def rebalance(self, num_shards: int) -> None:
        """Re-shard users (must be stopped; see ``ShardRouter.rebalance``)."""
        if self._running:
            raise RuntimeError("stop the runtime before rebalancing")
        self.router.rebalance(num_shards)
        if self._process:
            self._shadow_dirty = True
        self._reset_queues(num_shards)
        self._worker_states = {}

    def checkpoint(self, label: str = "") -> List[Snapshot]:
        """Snapshot every shard's state at its journal position.

        Drains in-flight work first (a snapshot mid-batch would split a
        request's effects across the snapshot boundary), then dumps each
        shard under its lock. With a ``journal_dir`` configured the
        snapshots are also written next to the journals, where
        :meth:`recover_shard` finds them. The caller must not race new
        submissions against the checkpoint.
        """
        if self._running:
            self.drain()
        if self._process:
            if self._clients:
                # The workers hold the live state and journal position;
                # they snapshot at their own journal offsets (and save
                # next to their journals), exactly like a thread-mode
                # shard does in-process.
                replies = self._run_on_loop(self._control_all(
                    _ipc.OP_CHECKPOINT,
                    {"label": label, "directory": self.config.journal_dir},
                    self._clients))
                snapshots = []
                for reply in replies:
                    if isinstance(reply, BaseException):
                        raise reply
                    snapshots.append(_ipc.snapshot_from_reply(
                        reply, str(reply["label"])))
                return snapshots
            if self.config.journal_dir is not None:
                # A stopped process runtime's shadows are in-memory
                # merges at journal position 0 — writing them to disk
                # would pair a stale journal_seq with the journal a
                # worker wrote, and recovery would double-apply the
                # suffix.
                raise RuntimeError(
                    "the process backend checkpoints through its "
                    "worker processes; start the runtime first")
        return self.router.checkpoint_shards(
            directory=self.config.journal_dir, label=label)

    def recover_shard(self, index: int) -> Shard:
        """Rebuild one shard from its on-disk snapshot + journal.

        The crash-recovery entry point: call with the runtime stopped
        (e.g. after a shard's state was lost mid-run), then start again
        — the replacement shard carries every cap, charge, feed, and
        slot counter the journal proves, so nothing is re-delivered or
        double-charged when serving resumes.
        """
        if self._running:
            raise RuntimeError("stop the runtime before recovering a shard")
        if self.config.journal_dir is None:
            raise StoreError(
                "shard recovery needs a runtime configured with "
                "journal_dir")
        if self._process:
            # Rebuild the shadow from the worker's journal + snapshot;
            # the journal file stays closed — it belongs to the
            # replacement worker the next start() spawns (seeded from
            # this recovered shadow).
            shard = self.router.recover_shard(
                index, self.config.journal_dir, reopen_journal=False)
            self._shadow_dirty = True
            return shard
        return self.router.recover_shard(index, self.config.journal_dir)

    # -- admission ---------------------------------------------------------

    def submit(self, request: AdRequest) -> "Future[ServeResult]":
        """Admit one request; never blocks.

        The returned future always resolves to a :class:`ServeResult`
        — a full shard backlog resolves it immediately as SHED. Called on
        the runtime's :meth:`io_loop` it is an ``asyncio.Future`` of
        that loop; from any other thread, a
        ``concurrent.futures.Future``.
        """
        if not self._running:
            raise RuntimeError("runtime is not started")
        shard = self.router.shard_for(request.user_id)
        index = shard.index
        # On the IO thread the loop is running: hand out its future.
        loop = self._loop if self._on_io_thread() else None
        future: Any = loop.create_future() if loop is not None else Future()
        deadline_s = (request.deadline_s
                      if request.deadline_s is not None
                      else self.config.default_deadline_s)
        self._m_submitted.inc()
        trc = _tracing.tracer()
        span = None
        if trc.enabled:
            # Off-stack: the span begins on the submitting thread and
            # finishes wherever the result resolves (the event loop, or
            # shutdown). A fresh trace id makes it the root of this
            # request's trace; the enclosing loadgen.run span (if any)
            # still parents it.
            span = trc.begin_span(
                "serve.request", trace_id=trc.new_trace_id(),
                user_id=request.user_id, shard=index,
                slots=request.slots)
        with self._submit_locks[index]:
            # Slot indices are claimed at admission, under the submit
            # lock, so the competing-bid key for each of this user's
            # slots depends only on submission order — not on when a
            # worker gets to the request or how many shards exist. The
            # claim is journaled (see Shard.claim_slots) so a recovered
            # shard resumes the same keyed sequence.
            base_seq = shard.claim_slots(request.user_id, request.slots)
            item = _QueuedRequest(
                request=request,
                future=future,
                base_seq=base_seq,
                deadline_s=deadline_s,
                enqueued_at=perf_counter(),
                span=span,
            )
            backlog = self._backlogs[index]
            if len(backlog) >= self.config.queue_capacity:
                self._m_shed.inc()
                self._resolve(item, ServeResult(
                    request=request,
                    status=ServeStatus.SHED,
                    shard_index=index,
                ), count_pending=False)
                return future
            backlog.append(item)
            schedule = (self._spawned and not self._flush_due[index]
                        and not self._in_flight[index])
            if schedule:
                self._flush_due[index] = True
        with self._pending_cond:
            self._pending += 1
        self._m_depth.inc()
        if schedule:
            if loop is not None:
                loop.call_soon(self._flush, index)
            else:
                self.io_loop().call_soon_threadsafe(self._flush, index)
        return future

    def serve_and_wait(self, requests: Sequence[AdRequest],
                       timeout: Optional[float] = 60.0
                       ) -> List[ServeResult]:
        """Submit a request sequence and wait for all results, in order."""
        futures = [self.submit(request) for request in requests]
        return [future.result(timeout=timeout) for future in futures]

    # -- the serving path: one batch in flight per shard ------------------

    def _admit_batch(self, shard: Shard,
                     batch: List[_QueuedRequest]) -> List[_QueuedRequest]:
        """Deadline-check a dequeued batch; expired requests resolve as
        TIMEOUT here, before any delivery work or transport hop:
        overload costs the shard worker nothing."""
        self._m_depth.dec(len(batch))
        trc = _tracing.tracer()
        now = perf_counter()
        live: List[_QueuedRequest] = []
        for item in batch:
            if item.deadline_s is not None \
                    and now - item.enqueued_at > item.deadline_s:
                # Stale before any work: drop it at the door.
                self._m_timeout.inc()
                self._resolve(item, ServeResult(
                    request=item.request,
                    status=ServeStatus.TIMEOUT,
                    shard_index=shard.index,
                    queued_s=now - item.enqueued_at,
                ))
            else:
                if item.span is not None:
                    # Queue wait is only known at dequeue: record the
                    # already-elapsed region under the request span.
                    trc.record_span(
                        "serve.queue_wait",
                        trc.offset(item.enqueued_at), trc.offset(now),
                        parent_context=item.span.context,
                        shard=shard.index)
                live.append(item)
        return live

    def _flush(self, index: int) -> None:
        """The scheduled flush of one shard (runs on the loop)."""
        with self._submit_locks[index]:
            if not self._flush_due[index]:
                return
            self._flush_due[index] = False
        self._send_next(index)

    def _send_next(self, index: int) -> None:
        """Send the shard's next batch — up to ``max_batch`` of
        whatever has accumulated — unless one is already in flight."""
        while True:
            with self._submit_locks[index]:
                backlog = self._backlogs[index]
                if self._in_flight[index] or self._closing or not backlog:
                    return
                batch = [backlog.popleft() for _ in
                         range(min(len(backlog), self.config.max_batch))]
                self._in_flight[index] = True
            if self._send_batch(index, batch):
                return
            with self._submit_locks[index]:
                self._in_flight[index] = False

    def _send_batch(self, index: int, batch: List[_QueuedRequest]) -> bool:
        """Admit a dequeued batch and send its survivors to the shard's
        worker; False when nothing went out (all expired, or the worker
        is gone — those requests are resolved already).

        The one place a transport is picked: the process backend frames
        the batch on the worker's channel; the thread backend runs
        :meth:`Shard.serve_batch` on the shard's worker thread, which
        posts the outcomes back to the loop. Either way the reply lands
        in :meth:`_on_batch_reply` on the loop."""
        shard = self.router.shards[index]
        live = self._admit_batch(shard, batch)
        if not live:
            return False
        self._m_batch.observe(len(live))
        trc = _tracing.tracer()
        # Each frame item carries its request span's (trace_id,
        # span_id): the worker's serve.engine spans parent under it
        # across the thread or process boundary.
        frame: List[_ipc.ServeFrameItem] = [
            (item.request.user_id, item.base_seq, item.request.slots,
             ((item.span.trace_id, item.span.span_id)
              if item.span is not None else None))
            for item in live
        ]
        span = (trc.begin_span("serve.ipc_roundtrip", shard=index,
                               batch_size=len(live))
                if trc.enabled else None)
        sent_at = perf_counter()

        def on_reply(replies: Optional[List[_ipc.ServeReplyItem]],
                     error: Optional[BaseException]) -> None:
            self._on_batch_reply(index, live, sent_at, span, replies,
                                 error)

        try:
            if self._process:
                self._clients[index].send(_ipc.OP_SERVE, frame, on_reply)
            else:
                self._workers[index].submit(
                    _serve_on_thread, self.io_loop(), shard,
                    self.platform.users, frame, on_reply)
        except _ipc.WorkerLost:
            self._fail_batch(shard, live, "shard worker lost")
            return False
        except Exception as exc:  # noqa: BLE001 - batch-level fence
            self._fail_batch(shard, live, f"{type(exc).__name__}: {exc}",
                             reason=type(exc).__name__)
            return False
        return True

    def _on_batch_reply(self, index: int, live: List[_QueuedRequest],
                        sent_at: float, span: Optional[_tracing.Span],
                        replies: Optional[List[_ipc.ServeReplyItem]],
                        error: Optional[BaseException]) -> None:
        """A batch's outcomes arrived: send the next batch first (so the
        worker starts on it while this one resolves), then resolve this
        batch's futures from the per-request outcomes. A lost worker
        resolves the batch as ERROR instead of hanging; the journal it
        flushed per batch is what :meth:`recover_shard` later
        replays."""
        if span is not None:
            _tracing.tracer().finish_span(span)
        with self._submit_locks[index]:
            self._in_flight[index] = False
        self._send_next(index)
        shard = self.router.shards[index]
        if error is None and replies is not None \
                and len(replies) != len(live):
            error = RuntimeError(
                f"shard {index} worker answered {len(replies)} "
                f"outcomes for a batch of {len(live)}")
        if isinstance(error, _ipc.WorkerLost):
            self._fail_batch(shard, live, "shard worker lost mid-batch")
            return
        if error is not None:
            self._fail_batch(shard, live,
                             f"{type(error).__name__}: {error}",
                             reason=type(error).__name__)
            return
        assert replies is not None
        for item, reply in zip(live, replies):
            served, ad_ids, lost, unfilled, failure, service_s = reply
            if served:
                self._m_served.inc()
                result = ServeResult(
                    request=item.request,
                    status=ServeStatus.SERVED,
                    shard_index=index,
                    response=AdResponse(
                        user_id=item.request.user_id,
                        ad_ids=tuple(ad_ids),
                        lost_to_competition=lost,
                        unfilled=unfilled,
                    ),
                    queued_s=sent_at - item.enqueued_at,
                    service_s=service_s,
                    batch_size=len(live),
                )
            else:
                self._count_error(_error_reason(failure))
                result = ServeResult(
                    request=item.request,
                    status=ServeStatus.ERROR,
                    shard_index=index,
                    error=failure,
                    queued_s=sent_at - item.enqueued_at,
                    service_s=service_s,
                    batch_size=len(live),
                )
            self._resolve(item, result, count_pending=False)
        self._release_pending(len(live))

    def _fail_batch(self, shard: Shard, live: List[_QueuedRequest],
                    error: str, reason: str = "WorkerLost") -> None:
        for item in live:
            self._count_error(reason)
            self._resolve(item, ServeResult(
                request=item.request,
                status=ServeStatus.ERROR,
                shard_index=shard.index,
                error=error,
                queued_s=perf_counter() - item.enqueued_at,
            ))

    def _count_error(self, reason: str) -> None:
        """Count one ERROR result: the pinned aggregates plus a dynamic
        per-exception-type breakdown counter.

        ``serve.errors.<ExceptionType>`` names are created on demand
        (the registry accepts uncatalogued names with empty help); the
        CamelCase suffix keeps them visually distinct from the
        catalogued all-lowercase instrument names.
        """
        self._m_errored.inc()
        self._m_errors.inc()
        _metrics.registry().counter(f"serve.errors.{reason}").inc()

    # -- bookkeeping -------------------------------------------------------

    def _resolve(self, item: _QueuedRequest, result: ServeResult,
                 count_pending: bool = True) -> None:
        self._m_latency.observe(result.latency_s)
        self._shard_stats[result.shard_index].add(
            result.status, result.latency_s)
        if item.span is not None:
            _tracing.tracer().finish_span(
                item.span, status=result.status.value)
        future = item.future
        if isinstance(future, Future):
            future.set_result(result)
        else:
            # An asyncio future: submitted on the runtime's loop.
            if self._on_io_thread():
                if not future.done():
                    future.set_result(result)
            else:
                try:
                    future.get_loop().call_soon_threadsafe(
                        _set_if_pending, future, result)
                except RuntimeError:
                    pass  # that loop closed: nothing awaits the result
        if count_pending:
            self._release_pending(1)

    def _release_pending(self, count: int) -> None:
        with self._pending_cond:
            self._pending -= count
            if self._pending <= 0:
                self._pending_cond.notify_all()


#: How long a telemetry poll waits for each worker's reply.
_POLL_TIMEOUT_S = 10.0


def _serve_on_thread(loop: "asyncio.AbstractEventLoop", shard: Shard,
                     users: Any, batch: List[_ipc.ServeFrameItem],
                     on_reply: Callable[..., None]) -> None:
    """The thread transport (runs on the shard's worker thread): serve
    one batch and post its outcomes — or the exception that escaped —
    back to the runtime's loop."""
    try:
        replies = shard.serve_batch(users, batch)
    except Exception as exc:  # noqa: BLE001 - batch-level fence
        loop.call_soon_threadsafe(on_reply, None, exc)
        return
    loop.call_soon_threadsafe(on_reply, replies, None)


def _set_if_pending(future: "asyncio.Future[Any]", result: object) -> None:
    if not future.done():
        future.set_result(result)


def _error_reason(error: Optional[str]) -> str:
    """Exception-type label for a worker-side error string.

    Worker replies carry ``"TypeError: message"``-style strings, not
    exception objects; the prefix before the first colon is the type
    name when it looks like one, else the label falls back to
    ``RemoteError``.
    """
    if error:
        prefix = error.split(":", 1)[0].strip()
        if prefix.isidentifier():
            return prefix
    return "RemoteError"
