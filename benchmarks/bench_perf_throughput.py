"""Performance benchmarks: simulator throughput on realistic shapes.

Unlike the E*/A* benches (which reproduce paper results and run their
scenario once), these measure raw component throughput with real
pytest-benchmark statistics — the numbers a user sizing a larger
simulation study cares about.
"""

import time

import pytest

from benchmarks.conftest import make_platform, record_table
from repro.analysis.tables import format_table
from repro.core.client import TreadClient
from repro.core.provider import TransparencyProvider
from repro.platform.catalog import build_us_catalog
from repro.platform.web import WebDirectory
from repro.serve import (
    AdRequest,
    KeyedCompetition,
    LoadConfig,
    LoadGenerator,
    RuntimeConfig,
    ServingRuntime,
)
from repro.workloads.personas import AVERAGE_CONSUMER
from repro.workloads.population import PopulationBuilder


def test_perf_catalog_build(benchmark):
    """Full 1,121-attribute US catalog generation."""
    catalog = benchmark(build_us_catalog)
    assert len(catalog) == 1121


def test_perf_population_build(benchmark):
    """100 persona users incl. PII attachment and broker staging."""
    def build():
        platform = make_platform(name="perfpop", partner_count=120)
        builder = PopulationBuilder(platform, seed=1)
        builder.spawn(AVERAGE_CONSUMER, 100)
        builder.finalize()
        return platform

    platform = benchmark.pedantic(build, rounds=3, iterations=1)
    assert len(platform.users) == 100


def test_perf_sweep_launch(benchmark):
    """Rendering + review + submission of a 507-ad partner sweep."""
    def launch():
        platform = make_platform(name="perflaunch")
        web = WebDirectory()
        provider = TransparencyProvider(platform, web, budget=100.0)
        return provider.launch_partner_sweep()

    report = benchmark.pedantic(launch, rounds=3, iterations=1)
    assert len(report.treads) == 508


def test_perf_delivery_throughput(benchmark):
    """Saturating delivery: 50 users x (20 attrs + control) = 1,050
    impressions against a 21-ad campaign."""
    def run():
        platform = make_platform(name="perfdeliver", partner_count=25)
        web = WebDirectory()
        provider = TransparencyProvider(platform, web, budget=500.0)
        attrs = platform.catalog.partner_attributes()[:20]
        for _ in range(50):
            user = platform.register_user()
            for attr in attrs:
                user.set_attribute(attr)
            provider.optin.via_page_like(user.user_id)
        provider.launch_attribute_sweep(attrs)
        provider.run_delivery()
        return provider

    provider = benchmark.pedantic(run, rounds=3, iterations=1)
    assert provider.total_impressions() == 50 * 21


def test_perf_delivery_scale(benchmark):
    """Scale tier: 2,000 users x the full 508-ad partner sweep.

    Each user carries 10 rotating partner attributes, so saturation
    delivers exactly 2,000 x (10 matched Treads + 1 control) = 22,000
    impressions. Before the compiled-targeting + candidate-index fast
    path this shape took ~71 s (every slot interpreted all 508 specs);
    it must now land in single-digit seconds. Population setup happens
    outside the timed region; delivery mutates state, so one round.
    """
    platform = make_platform(name="perfscale")
    web = WebDirectory()
    provider = TransparencyProvider(platform, web, budget=5000.0)
    attrs = platform.catalog.partner_attributes()
    for i in range(2000):
        user = platform.register_user()
        for k in range(10):
            user.set_attribute(attrs[(i * 10 + k) % len(attrs)])
        provider.optin.via_page_like(user.user_id)
    provider.launch_partner_sweep()

    start = time.perf_counter()
    cpu_start = time.process_time()
    benchmark.pedantic(provider.run_delivery, rounds=1, iterations=1)
    cpu_elapsed = time.process_time() - cpu_start
    elapsed = time.perf_counter() - start

    # Deliver-iff-match invariant at scale: every user gets exactly
    # their 10 matched Treads plus the control ad, nothing else.
    assert provider.total_impressions() == 2000 * 11
    # stats is None under --benchmark-disable; fall back to wall clock.
    seconds = benchmark.stats["mean"] if benchmark.stats else elapsed
    record_table(format_table(
        ("tier", "seed (s)", "wall (s)", "cpu (s)", "speedup"),
        [
            ("50 users x 21 ads", "0.0745", "(see pytest-benchmark)",
             "-", "-"),
            ("2,000 users x 508 ads", "71.3", f"{seconds:.2f}",
             f"{cpu_elapsed:.2f}", f"{71.3 / seconds:.0f}x"),
        ],
        title="PERF — lowered targeting + candidate list delivery",
    ))
    assert seconds < 10.0, "scale tier must stay single-digit seconds"


def _serving_world(name: str, users: int = 300):
    """A populated platform with a launched sweep for the serve tiers."""
    platform = make_platform(name=name, partner_count=60)
    web = WebDirectory()
    provider = TransparencyProvider(platform, web, budget=5000.0)
    builder = PopulationBuilder(platform, seed=1)
    builder.spawn(AVERAGE_CONSUMER, users)
    builder.finalize()
    for user_id in platform.users.user_ids():
        provider.optin.via_page_like(user_id)
    provider.launch_partner_sweep()
    return platform


#: Shard-scaling results accumulated across the parametrized runs so
#: the summary table prints all configs side by side.
_SERVE_RESULTS: dict = {}

SERVE_RPS = 1500.0
SERVE_DURATION_S = 1.0
SERVE_SHARD_CONFIGS = (1, 4, 8)


@pytest.mark.parametrize("shards", SERVE_SHARD_CONFIGS)
def test_perf_serve_loadgen(benchmark, shards):
    """Serve tier: open-loop loadgen at a fixed RPS vs shard count.

    The offered load is identical for every shard count (same seed,
    same schedule), so the latency quantiles isolate what sharding
    buys. Wall clock is pinned by the open-loop duration; the numbers
    that matter are the p50/p95/p99 recorded in the summary table and
    ``perf_trajectory.json``.
    """
    platform = _serving_world(f"perfserve{shards}")
    runtime = ServingRuntime(
        platform,
        RuntimeConfig(num_shards=shards, queue_capacity=4096),
        competition=KeyedCompetition(seed=7),
    )
    generator = LoadGenerator(
        runtime, platform.users.user_ids(),
        LoadConfig(rps=SERVE_RPS, duration_s=SERVE_DURATION_S, seed=1),
    )

    def run():
        with runtime:
            return generator.run()

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.tally.errors == 0
    assert report.tally.served == report.offered, \
        "uncontended load must be fully served (nothing shed)"
    quantiles = report.percentiles()
    _SERVE_RESULTS[shards] = (report, quantiles)
    if len(_SERVE_RESULTS) == len(SERVE_SHARD_CONFIGS):
        rows = [
            (f"{n} shard(s)", result.offered,
             f"{result.achieved_rps:.0f}",
             f"{qs['p50'] * 1000:.2f}",
             f"{qs['p95'] * 1000:.2f}",
             f"{qs['p99'] * 1000:.2f}")
            for n, (result, qs) in sorted(_SERVE_RESULTS.items())
        ]
        record_table(format_table(
            ("config", "offered", "rps", "p50 ms", "p95 ms", "p99 ms"),
            rows,
            title=f"PERF — serve tier: {SERVE_RPS:.0f} rps open-loop, "
                  f"{SERVE_DURATION_S:.0f}s, 300 users",
        ))


def test_perf_serve_overload_sheds(benchmark):
    """Overload tier: a burst beyond queue capacity must shed, not queue.

    One shard, a 32-deep queue, and a 400-request pre-spawned burst:
    exactly ``queue_capacity`` requests are served, the rest are SHED
    at admission with zero work done — bounded queues are the proof
    that overload cannot grow latency without bound.
    """
    platform = _serving_world("perfserveovl", users=200)
    capacity = 32
    runtime = ServingRuntime(
        platform, RuntimeConfig(num_shards=1, queue_capacity=capacity)
    )
    user_ids = platform.users.user_ids()
    requests = [AdRequest(user_ids[i % len(user_ids)])
                for i in range(400)]

    def burst():
        runtime.start(spawn_workers=False)
        futures = [runtime.submit(request) for request in requests]
        runtime.spawn_workers()
        results = [future.result(timeout=30.0) for future in futures]
        runtime.stop()
        return results

    results = benchmark.pedantic(burst, rounds=1, iterations=1)
    shed = sum(1 for r in results if r.status.name == "SHED")
    served = sum(1 for r in results if r.ok)
    assert shed == len(requests) - capacity
    assert served == capacity
    assert all(r.latency_s == 0.0 for r in results
               if r.status.name == "SHED"), "shed must cost no work"
    record_table(format_table(
        ("outcome", "requests"),
        [("offered burst", len(requests)),
         (f"served (= queue capacity {capacity})", served),
         ("shed at admission", shed)],
        title="PERF — serve overload: bounded queue sheds the excess",
    ))


def test_perf_client_decode(benchmark):
    """Decoding a 21-Tread feed (codebook tokens) client-side."""
    platform = make_platform(name="perfdecode", partner_count=25)
    web = WebDirectory()
    provider = TransparencyProvider(platform, web, budget=100.0)
    attrs = platform.catalog.partner_attributes()[:20]
    user = platform.register_user()
    for attr in attrs:
        user.set_attribute(attr)
    provider.optin.via_page_like(user.user_id)
    provider.launch_attribute_sweep(attrs)
    provider.run_delivery()
    pack = provider.publish_decode_pack()

    def decode():
        return TreadClient(user.user_id, platform, pack).sync()

    profile = benchmark(decode)
    assert len(profile.set_attributes) == 20
