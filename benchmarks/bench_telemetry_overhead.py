"""Telemetry-plane overhead: streaming + tracing vs the plane at rest.

Three arms of the identical saturation drive (process backend, fixed
request sequence, identically seeded worlds), interleaved, best-of-N:

- **off** — telemetry streaming disabled (``telemetry_interval_s=None``)
  and the ambient ``NULL_TRACER``. This is the default serving mode;
  its distance from the pre-telemetry tree is the "no-op" budget
  (<= ~3%) recorded in ``benchmarks/perf_trajectory.json``.
- **streaming** — 100 ms worker polls into the runtime's time-series
  buffer (the ``repro top`` / ``--metrics-out`` mode). Budget: <= ~8%
  over the off arm on the reference container.
- **tracing** — a live ``Tracer``, so every request grows its
  admission -> queue -> engine span chain and worker spans merge back
  over IPC. Opt-in mode; recorded, not budgeted.

Wall clock covers only the drive (world build excluded). The hard
assertions are deliberately looser than the recorded budgets so shared
CI runners don't flake, while real regressions (per-request span cost
with tracing *off*, a poll loop that blocks admission) still fail.
"""

from __future__ import annotations

import time

from benchmarks.conftest import record_table
from benchmarks.bench_perf_throughput import _serving_world
from repro.analysis.tables import format_table
from repro.obs import tracing as _tracing
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.serve import (
    AdRequest,
    KeyedCompetition,
    RuntimeConfig,
    ServingRuntime,
)

#: Sized so each arm's drive lasts over a second (about 1.5 s on a
#: 2-core container): a drive of one to three 100 ms poll intervals
#: makes the streaming ratio noise. The backlog holds the whole drive,
#: so no request is shed.
USERS = 600
ROUNDS = 36
QUEUE_CAPACITY = 32768
SLOTS = 2
SHARDS = 2
BEST_OF = 3
STREAM_INTERVAL_S = 0.1


def _drive(arm: str, telemetry_interval_s=None, traced=False):
    """One saturation run; returns (wall_s, registry, tracer, samples)."""
    registry = MetricsRegistry(f"bench-telemetry-{arm}")
    tracer = _tracing.Tracer() if traced else _tracing.NULL_TRACER
    with use_registry(registry), _tracing.use_tracer(tracer):
        platform = _serving_world(f"telemetry-{arm}", users=USERS)
        runtime = ServingRuntime(
            platform,
            RuntimeConfig(num_shards=SHARDS, backend="process",
                          queue_capacity=QUEUE_CAPACITY, max_batch=64,
                          telemetry_interval_s=telemetry_interval_s),
            competition=KeyedCompetition(seed=7),
        )
        requests = [
            AdRequest(user_id=user_id, slots=SLOTS)
            for _ in range(ROUNDS)
            for user_id in sorted(platform.users.user_ids())
        ]
        with runtime:
            start = time.perf_counter()
            results = runtime.serve_and_wait(requests, timeout=300.0)
            wall_s = time.perf_counter() - start
        samples = runtime.telemetry.appended
    served = sum(1 for result in results if result.ok)
    assert served == len(requests), f"{arm} arm must fully serve"
    return wall_s, registry, tracer, samples


def test_telemetry_overhead_within_budget():
    walls = {"off": [], "streaming": [], "tracing": []}
    last = {}
    for _ in range(BEST_OF):
        for arm, kwargs in (
            ("off", {}),
            ("streaming", {"telemetry_interval_s": STREAM_INTERVAL_S}),
            ("tracing", {"traced": True}),
        ):
            wall_s, registry, tracer, samples = _drive(arm, **kwargs)
            walls[arm].append(wall_s)
            last[arm] = (registry, tracer, samples)

    requests = USERS * ROUNDS
    off = min(walls["off"])
    streaming = min(walls["streaming"])
    tracing = min(walls["tracing"])
    record_table(format_table(
        ("arm", f"best of {BEST_OF} (s)", "req/s", "vs off"),
        [
            ("telemetry off", f"{off:.4f}",
             f"{requests / off:.0f}", "1.000x"),
            (f"streaming {STREAM_INTERVAL_S * 1000:.0f}ms",
             f"{streaming:.4f}", f"{requests / streaming:.0f}",
             f"{streaming / off:.3f}x"),
            ("tracing on", f"{tracing:.4f}",
             f"{requests / tracing:.0f}", f"{tracing / off:.3f}x"),
        ],
        title=f"OBS — telemetry plane overhead, {USERS} users x "
              f"{ROUNDS} rounds, process backend x{SHARDS}",
    ))

    # Each arm did what its mode promises.
    off_registry, off_tracer, off_samples = last["off"]
    assert off_registry.value("serve.requests_served") == requests
    assert off_samples == 0, "off arm must stream nothing mid-run"
    assert list(off_tracer.spans) == []

    stream_registry, _, stream_samples = last["streaming"]
    assert stream_samples >= 1, "streaming arm never sampled"
    assert stream_registry.value("serve.telemetry_polls") >= 1

    _, traced_tracer, _ = last["tracing"]
    names = {span.name for span in traced_tracer.spans}
    assert {"serve.request", "serve.queue_wait", "serve.engine"} <= names
    assert any(span.span_id >> _tracing.ORIGIN_SHIFT
               for span in traced_tracer.spans
               if span.name == "serve.engine"), (
        "no engine span carried a worker origin — cross-process "
        "merge is broken")

    # Loose ceilings (recorded budgets: streaming <= ~1.08x; see
    # perf_trajectory.json). A blocking poll loop or per-request
    # tracing cost in the off arm trips these even on noisy runners.
    assert streaming / off < 1.5, (
        f"100ms streaming cost {streaming / off:.2f}x the quiet plane")
    assert tracing / off < 2.5, (
        f"tracing cost {tracing / off:.2f}x the quiet plane")
