"""ServingRuntime: admission control, batching, lifecycle, metrics."""

from __future__ import annotations

import time

import pytest

from repro.obs.metrics import MetricsRegistry, use_registry
from repro.serve import (
    AdRequest,
    KeyedCompetition,
    RuntimeConfig,
    ServeStatus,
    ServingRuntime,
)


class TestRuntimeConfig:
    @pytest.mark.parametrize("kwargs", [
        {"num_shards": 0},
        {"telemetry_retention_s": 0},
        {"queue_capacity": 0},
        {"max_batch": 0},
    ])
    def test_rejects_nonpositive_knobs(self, kwargs):
        with pytest.raises(ValueError):
            RuntimeConfig(**kwargs)


class TestLifecycle:
    def test_context_manager_starts_and_stops(self, make_world):
        platform = make_world(users=10)
        runtime = ServingRuntime(platform, RuntimeConfig(num_shards=2))
        assert not runtime.running
        with runtime:
            assert runtime.running
            result = runtime.submit(
                AdRequest(platform.users.user_ids()[0])
            ).result(timeout=10)
            assert result.status is ServeStatus.SERVED
        assert not runtime.running

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_io_loop_runs_once_start_returns(self, make_world, backend):
        """The IO loop starts with the workers, not on the first submit,
        so the first request's deadline does not pay for its start-up."""
        import threading

        runtime = ServingRuntime(
            make_world(users=5),
            RuntimeConfig(num_shards=2, backend=backend))
        with runtime:
            io_threads = [t for t in threading.enumerate()
                          if t.name == "serve-io"]
            assert len(io_threads) == 1 and io_threads[0].is_alive()
            assert runtime.io_loop().is_running()
        assert not io_threads[0].is_alive()

    def test_submit_requires_started(self, make_world):
        runtime = ServingRuntime(make_world(users=5),
                                 RuntimeConfig(num_shards=1))
        with pytest.raises(RuntimeError, match="not started"):
            runtime.submit(AdRequest("u"))

    def test_double_start_rejected(self, make_world):
        runtime = ServingRuntime(make_world(users=5),
                                 RuntimeConfig(num_shards=1))
        with runtime:
            with pytest.raises(RuntimeError, match="already started"):
                runtime.start()

    def test_stop_drains_queued_work(self, make_world):
        platform = make_world(users=20)
        runtime = ServingRuntime(
            platform, RuntimeConfig(num_shards=2, queue_capacity=1024)
        )
        runtime.start()
        futures = [runtime.submit(AdRequest(uid))
                   for uid in platform.users.user_ids() * 5]
        runtime.stop()  # drain=True default
        assert all(future.done() for future in futures)


class TestServedResults:
    def test_every_result_has_the_envelope(self, make_world):
        platform = make_world(users=20)
        runtime = ServingRuntime(
            platform,
            RuntimeConfig(num_shards=2, queue_capacity=1024),
            competition=KeyedCompetition(seed=7),
        )
        requests = [AdRequest(uid, slots=2)
                    for uid in sorted(platform.users.user_ids())]
        with runtime:
            results = runtime.serve_and_wait(requests)
        assert len(results) == len(requests)
        for request, result in zip(requests, results):
            assert result.status is ServeStatus.SERVED
            assert result.request is request
            assert result.shard_index \
                == runtime.router.shard_index(request.user_id)
            assert result.response is not None
            response = result.response
            assert (response.filled_slots
                    + response.lost_to_competition
                    + response.unfilled) == request.slots
            assert result.latency_s >= 0
            assert result.batch_size >= 1

    def test_served_ads_land_in_the_feed(self, make_world):
        platform = make_world(users=10)
        runtime = ServingRuntime(
            platform, RuntimeConfig(num_shards=2),
            competition=KeyedCompetition(seed=7, median_cpm=0.0),
        )
        with runtime:
            results = runtime.serve_and_wait(
                [AdRequest(uid, slots=3)
                 for uid in platform.users.user_ids()]
            )
        for result in results:
            feed = [d.ad_id
                    for d in runtime.router.feed(result.request.user_id)]
            assert list(result.response.ad_ids) == feed

    def test_unknown_user_is_an_error_result(self, make_world):
        platform = make_world(users=5)
        runtime = ServingRuntime(platform, RuntimeConfig(num_shards=1))
        with runtime:
            result = runtime.submit(
                AdRequest("no-such-user")).result(timeout=10)
        assert result.status is ServeStatus.ERROR
        assert "no-such-user" in result.error
        assert not result.ok


class TestAdmissionControl:
    def test_queue_overflow_sheds_before_any_work(self, make_world):
        platform = make_world(users=30)
        runtime = ServingRuntime(
            platform, RuntimeConfig(num_shards=1, queue_capacity=8)
        )
        runtime.start(spawn_workers=False)
        futures = [runtime.submit(AdRequest(uid))
                   for uid in platform.users.user_ids()]
        shed = [f.result(timeout=1) for f in futures if f.done()]
        assert len(shed) == len(futures) - 8
        assert all(r.status is ServeStatus.SHED for r in shed)
        # Shed results cost nothing: no queue wait, no service time.
        assert all(r.latency_s == 0.0 and r.batch_size == 0
                   for r in shed)
        runtime.spawn_workers()
        rest = [f.result(timeout=10) for f in futures]
        assert sum(1 for r in rest
                   if r.status is ServeStatus.SERVED) == 8
        runtime.stop()
        assert runtime.router.total_impressions() <= 8

    def test_expired_deadline_times_out_unserved(self, make_world):
        platform = make_world(users=10)
        runtime = ServingRuntime(
            platform, RuntimeConfig(num_shards=1, queue_capacity=256)
        )
        runtime.start(spawn_workers=False)
        futures = [runtime.submit(AdRequest(uid, deadline_s=0.0))
                   for uid in platform.users.user_ids()]
        time.sleep(0.01)
        runtime.spawn_workers()
        results = [f.result(timeout=10) for f in futures]
        runtime.stop()
        assert all(r.status is ServeStatus.TIMEOUT for r in results)
        assert runtime.router.total_impressions() == 0

    def test_default_deadline_applies_when_request_has_none(
            self, make_world):
        platform = make_world(users=10)
        runtime = ServingRuntime(
            platform,
            RuntimeConfig(num_shards=1, default_deadline_s=0.0),
        )
        runtime.start(spawn_workers=False)
        futures = [runtime.submit(AdRequest(uid))
                   for uid in platform.users.user_ids()]
        time.sleep(0.01)
        runtime.spawn_workers()
        results = [f.result(timeout=10) for f in futures]
        runtime.stop()
        assert all(r.status is ServeStatus.TIMEOUT for r in results)


class TestBatching:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_backlog_is_coalesced_into_batches(self, make_world, backend):
        platform = make_world(users=30)
        runtime = ServingRuntime(
            platform,
            RuntimeConfig(num_shards=1, queue_capacity=1024,
                          max_batch=16, backend=backend),
        )
        runtime.start(spawn_workers=False)
        futures = [runtime.submit(AdRequest(uid))
                   for uid in platform.users.user_ids()]
        runtime.spawn_workers()
        results = [f.result(timeout=10) for f in futures]
        runtime.stop()
        # A pre-spawned backlog must be served in multi-request batches
        # bounded by max_batch.
        assert all(r.status is ServeStatus.SERVED for r in results)
        assert max(r.batch_size for r in results) > 1
        assert max(r.batch_size for r in results) <= 16


class TestMetrics:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_counters_match_the_tally(self, make_world, backend):
        platform = make_world(users=20)
        registry = MetricsRegistry("serve-test")
        with use_registry(registry):
            runtime = ServingRuntime(
                platform,
                RuntimeConfig(num_shards=1, queue_capacity=8,
                              backend=backend),
            )
            runtime.start(spawn_workers=False)
            futures = [runtime.submit(AdRequest(uid))
                       for uid in platform.users.user_ids()]
            runtime.spawn_workers()
            [f.result(timeout=10) for f in futures]
            runtime.stop()
        assert registry.value("serve.requests_submitted") == 20
        assert registry.value("serve.requests_served") == 8
        assert registry.value("serve.requests_shed") == 12
        assert registry.value("serve.requests_timeout") == 0
        assert registry.value("serve.requests_errored") == 0
        assert registry.value("serve.queue_depth") == 0
        assert registry.value("serve.request_latency_s") == 20
        batch = registry.get("serve.batch_size")
        assert batch is not None and batch.count >= 1

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_error_reason_breakdown(self, make_world, backend):
        # An ERROR result increments the aggregate serve.errors plus a
        # dynamic per-exception-type counter named after the reason —
        # on both transports, from the same "Type: message" string.
        platform = make_world(users=5)
        registry = MetricsRegistry(f"serve-errors-{backend}")
        with use_registry(registry):
            runtime = ServingRuntime(
                platform, RuntimeConfig(num_shards=1, backend=backend))
            with runtime:
                result = runtime.submit(
                    AdRequest("no-such-user")).result(timeout=30)
        assert result.status is ServeStatus.ERROR
        # The same string on both backends (one batch function).
        assert result.error == "CatalogError: unknown user id " \
            "'no-such-user'"
        assert registry.value("serve.requests_errored") == 1
        assert registry.value("serve.errors") == 1
        assert registry.value("serve.errors.CatalogError") == 1

    def test_rebalance_requires_stopped_runtime(self, make_world):
        platform = make_world(users=10)
        runtime = ServingRuntime(platform, RuntimeConfig(num_shards=2))
        with runtime:
            with pytest.raises(RuntimeError, match="stop"):
                runtime.rebalance(4)
        runtime.rebalance(4)
        assert runtime.router.num_shards == 4


class TestShutdownDrain:
    """Admitted-but-unserved requests are classified, never dropped.

    If admission ran without (or faster than) workers, stopping the
    runtime must resolve every queued future as TIMEOUT — the admission
    invariant ``served + shed + timeout + errored == submitted`` has to
    hold across shutdown, not just steady state.
    """

    def test_stop_without_workers_times_out_queued_requests(
            self, make_world):
        platform = make_world(users=10)
        registry = MetricsRegistry("serve-drain")
        with use_registry(registry):
            runtime = ServingRuntime(
                platform, RuntimeConfig(num_shards=2, queue_capacity=64)
            )
            runtime.start(spawn_workers=False)
            futures = [runtime.submit(AdRequest(uid))
                       for uid in platform.users.user_ids()]
            runtime.stop()
        assert all(f.done() for f in futures)
        results = [f.result(timeout=0) for f in futures]
        assert {r.status for r in results} == {ServeStatus.TIMEOUT}
        assert all(r.response is None for r in results)
        assert all(r.queued_s >= 0.0 for r in results)
        assert registry.value("serve.requests_submitted") == 10
        assert registry.value("serve.requests_timeout") == 10
        assert registry.value("serve.requests_served") == 0
        assert registry.value("serve.queue_depth") == 0

    def test_drained_shutdown_preserves_the_admission_invariant(
            self, make_world):
        platform = make_world(users=12)
        registry = MetricsRegistry("serve-drain-mixed")
        with use_registry(registry):
            runtime = ServingRuntime(
                platform, RuntimeConfig(num_shards=1, queue_capacity=4)
            )
            runtime.start(spawn_workers=False)
            futures = [runtime.submit(AdRequest(uid))
                       for uid in platform.users.user_ids()]
            runtime.stop()  # 4 admitted -> TIMEOUT, 8 shed at admission
        statuses = [f.result(timeout=0).status for f in futures]
        assert statuses.count(ServeStatus.TIMEOUT) == 4
        assert statuses.count(ServeStatus.SHED) == 8
        submitted = registry.value("serve.requests_submitted")
        assert submitted == 12
        assert (registry.value("serve.requests_served")
                + registry.value("serve.requests_shed")
                + registry.value("serve.requests_timeout")
                + registry.value("serve.requests_errored")) == submitted

    def test_stop_is_idempotent_after_flush(self, make_world):
        platform = make_world(users=5)
        runtime = ServingRuntime(platform, RuntimeConfig(num_shards=1))
        runtime.start(spawn_workers=False)
        future = runtime.submit(AdRequest(platform.users.user_ids()[0]))
        runtime.stop()
        runtime.stop()  # second stop: no-op, no double-resolution
        assert future.result(timeout=0).status is ServeStatus.TIMEOUT
