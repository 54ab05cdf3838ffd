"""Observability overhead: instrumented delivery, enabled vs no-op.

Runs the small perf tier's delivery body under (a) a live
``MetricsRegistry`` and (b) the shared ``NULL_REGISTRY``, and reports
the ratio. The acceptance bound from the instrumentation work is that
no-op mode stays within ~5% of the pre-instrumentation baseline; here
we additionally record what *enabled* metrics cost, since that is the
default mode. Tracing stays off in both arms (it is opt-in).

Set ``REPRO_OBS_DUMP=FILE`` to also write the enabled arm's metrics
snapshot as JSONL — the CI smoke job uploads that file as an artifact.
"""

import os
import time

from benchmarks.conftest import make_platform, record_table
from repro.analysis.tables import format_table
from repro.core.provider import TransparencyProvider
from repro.obs import export
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY, use_registry
from repro.platform.web import WebDirectory

_ROUNDS = 3


def _delivery_run():
    """The 50 x 21 perf-tier body: setup, then 21 slots per user through
    the per-slot serving path (every slot fills one Tread), so the ratio
    prices the per-slot instrumentation."""
    platform = make_platform(name="obs-overhead", partner_count=25)
    web = WebDirectory()
    provider = TransparencyProvider(platform, web, budget=500.0)
    attrs = platform.catalog.partner_attributes()[:20]
    for _ in range(50):
        user = platform.register_user()
        for attr in attrs:
            user.set_attribute(attr)
        provider.optin.via_page_like(user.user_id)
    provider.launch_attribute_sweep(attrs)
    platform.run_delivery(slots_per_user=21)
    return provider


def _timed_run(registry):
    with use_registry(registry):
        start = time.perf_counter()
        provider = _delivery_run()
        elapsed = time.perf_counter() - start
    assert provider.total_impressions() == 50 * 21
    return elapsed


def test_obs_overhead_enabled_vs_noop():
    enabled_times = []
    noop_times = []
    enabled_registry = None
    for _ in range(_ROUNDS):
        registry = MetricsRegistry("bench-enabled")
        enabled_times.append(_timed_run(registry))
        enabled_registry = registry
        noop_times.append(_timed_run(NULL_REGISTRY))

    enabled = min(enabled_times)
    noop = min(noop_times)
    ratio = enabled / noop if noop else float("inf")
    record_table(format_table(
        ("mode", "best of 3 (s)", "vs no-op"),
        [
            ("metrics enabled", f"{enabled:.4f}", f"{ratio:.3f}x"),
            ("no-op registry", f"{noop:.4f}", "1.000x"),
        ],
        title="OBS — instrumentation overhead, 50x21 delivery tier",
    ))

    # Sanity on both arms, not a hard perf gate (CI machines are noisy):
    # the enabled arm recorded real numbers, the noop arm recorded none.
    assert enabled_registry.value("delivery.slots_served") > 0
    assert enabled_registry.value("delivery.impressions_delivered") == 1050
    assert NULL_REGISTRY.instruments() == {}

    dump_path = os.environ.get("REPRO_OBS_DUMP")
    if dump_path:
        with open(dump_path, "w", encoding="utf-8") as stream:
            stream.write(export.to_jsonl(enabled_registry))

    # Generous ceiling so real regressions (accidental per-event dict
    # lookups, event construction without a subscriber check) still
    # fail loudly without flaking on shared runners.
    assert ratio < 2.0, (
        f"metrics-enabled delivery {ratio:.2f}x slower than no-op"
    )
