"""Scale tier: the million-user columnar sweep under bounded memory.

The columnar refactor's acceptance bar: 1M users x the full 508-ad
partner sweep (11M impressions) must complete on one core within a
bounded memory budget — the shape the legacy object store cannot reach
(1M ``UserProfile`` objects plus an 11M-entry impression log are
gigabytes before delivery even starts). The columnar run holds the
population in packed numpy columns, delivery state in per-ad shown
bitsets (``compact_delivery``), billing in aggregates, and discards
journal records (:class:`~repro.store.store.NullStore`).

Delivery is the provider's campaign run, the **batch sweep**
(:meth:`~repro.platform.delivery.DeliveryEngine.sweep_slots`) —
population-scale delivery as column algebra (mask programs, candidate
lists over row blocks). The 100k tier checks it against the per-slot
reference loop (``tests/platform/scalar_reference.py``): byte-identical
reports *and* a >= 3x impressions/s floor on every CI push; the 1M tier
(``REPRO_SCALE_1M=1``) is the occasional full proof.

Honesty note: the measured numbers in ``perf_trajectory.json`` are one
run on the reference container, single-core CPython — no numba, no
multiprocessing. Wall clock (``perf_counter``) and CPU time
(``process_time``) are both recorded; on an uncontended core they
should nearly coincide, and a large gap flags a noisy measurement.
"""

import dataclasses
import json
import os
import resource
import time

import pytest

from benchmarks.conftest import record_table
from repro.analysis.tables import format_table
from repro.core.provider import TransparencyProvider
from repro.platform.catalog import build_us_catalog
from repro.platform.platform import AdPlatform, PlatformConfig
from repro.platform.web import WebDirectory
from repro.store.store import NullStore
from repro.workloads.competition import zero_competition
from tests.platform.scalar_reference import saturate

#: Hard peak-RSS ceilings (MB) per tier — the "bounded memory" claim as
#: an assertion. The 100k tier fits comfortably under half a GB; the 1M
#: tier's budget is dominated by the attribute matrix (64 MB), the
#: per-ad shown bitsets (~63 MB), and transient numpy temporaries.
RSS_CEILING_MB = {100_000: 512.0, 1_000_000: 2048.0}

#: The batch sweep must beat the per-slot reference loop by at least this
#: factor in impressions/s on the 100k CI tier (measured: ~30x; the
#: floor leaves headroom for container noise).
SWEEP_SPEEDUP_FLOOR = 3.0

ATTRS_PER_USER = 10


def _peak_rss_mb() -> float:
    """Linux ``ru_maxrss`` is KB; this is the process's high-water mark
    (not current usage), which is exactly the bound we promise."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_columnar_sweep(users: int, sweep: bool = True):
    """Build, populate, launch, and saturate one columnar world.

    ``sweep`` delivers through the provider's campaign run (the batch
    sweep); otherwise the per-slot reference loop saturates the world.
    Returns ``(platform, provider, timings)`` where ``timings`` carries
    wall-clock and CPU seconds for the build and delivery phases.
    """
    t_build = time.perf_counter()
    c_build = time.process_time()
    platform = AdPlatform(
        config=PlatformConfig(name="scale", compact_delivery=True),
        catalog=build_us_catalog(),
        competing_draw=zero_competition(),
        store=NullStore(),
    )
    provider = TransparencyProvider(platform, WebDirectory(),
                                    budget=50_000.0)
    attrs = platform.catalog.partner_attributes()
    for i in range(users):
        user = platform.register_user()
        for k in range(ATTRS_PER_USER):
            user.set_attribute(
                attrs[(i * ATTRS_PER_USER + k) % len(attrs)])
        provider.optin.via_page_like(user.user_id)
    provider.launch_partner_sweep()
    timings = {
        "build_s": time.perf_counter() - t_build,
        "build_cpu_s": time.process_time() - c_build,
    }

    t_deliver = time.perf_counter()
    c_deliver = time.process_time()
    if sweep:
        provider.run_delivery()
    else:
        saturate(platform)
    timings["deliver_s"] = time.perf_counter() - t_deliver
    timings["deliver_cpu_s"] = time.process_time() - c_deliver
    return platform, provider, timings


def _canonical_reports(platform, account_id: str) -> str:
    reports = [dataclasses.asdict(r) for r in platform.reports(account_id)]
    reports.sort(key=lambda r: r["ad_id"])
    return json.dumps(reports, sort_keys=True)


def _assert_tier_shape(platform, provider, users: int) -> None:
    """Deliver-iff-match at scale (10 matched Treads + control per
    user), dense ids, and the tier's hard RSS ceiling."""
    peak_mb = _peak_rss_mb()
    assert provider.total_impressions() == users * (ATTRS_PER_USER + 1)
    stats = platform.users.stats()
    assert stats["rows"] == users
    assert stats["dense_ids"], "IdFactory ids must stay dense-predicted"
    assert peak_mb < RSS_CEILING_MB[users], (
        f"peak RSS {peak_mb:.0f} MB exceeds the {RSS_CEILING_MB[users]:.0f}"
        f" MB ceiling for the {users:,}-user tier")


def _scale_tier(users: int):
    platform, provider, timings = _run_columnar_sweep(users)
    _assert_tier_shape(platform, provider, users)
    stats = platform.users.stats()
    record_table(format_table(
        ("metric", "value"),
        [
            ("users x ads", f"{users:,} x 508"),
            ("impressions", f"{provider.total_impressions():,}"),
            ("build+populate (s)", f"{timings['build_s']:.1f}"),
            ("delivery wall (s)", f"{timings['deliver_s']:.1f}"),
            ("delivery cpu (s)", f"{timings['deliver_cpu_s']:.1f}"),
            ("impressions/s",
             f"{provider.total_impressions() / timings['deliver_s']:,.0f}"),
            ("user columns (MB)", f"{stats['column_bytes'] / 1e6:.1f}"),
            ("peak RSS (MB)", f"{_peak_rss_mb():.0f}"),
        ],
        title=f"SCALE — columnar compact batch sweep, {users:,} users "
              f"(single core)",
    ))
    return timings


def test_scale_100k_batch_sweep():
    """CI's scale-smoke tier: 100k users through the batch sweep under a
    hard RSS ceiling — byte-identical reports to the per-slot reference
    loop, >= 3x its impressions/s."""
    scalar_platform, scalar_provider, scalar_t = _run_columnar_sweep(
        100_000, sweep=False)
    batch_platform, batch_provider, batch_t = _run_columnar_sweep(
        100_000)

    impressions = 100_000 * (ATTRS_PER_USER + 1)
    _assert_tier_shape(scalar_platform, scalar_provider, 100_000)
    _assert_tier_shape(batch_platform, batch_provider, 100_000)
    assert _canonical_reports(
        scalar_platform, scalar_provider.account.account_id) == \
        _canonical_reports(
            batch_platform, batch_provider.account.account_id), \
        "batch sweep reports must be byte-identical to the per-slot loop"

    scalar_ips = impressions / scalar_t["deliver_s"]
    batch_ips = impressions / batch_t["deliver_s"]
    speedup = batch_ips / scalar_ips
    record_table(format_table(
        ("engine", "wall (s)", "cpu (s)", "impressions/s"),
        [
            ("per-slot loop", f"{scalar_t['deliver_s']:.1f}",
             f"{scalar_t['deliver_cpu_s']:.1f}", f"{scalar_ips:,.0f}"),
            ("batch sweep", f"{batch_t['deliver_s']:.1f}",
             f"{batch_t['deliver_cpu_s']:.1f}", f"{batch_ips:,.0f}"),
            ("speedup", "-", "-", f"{speedup:.1f}x"),
        ],
        title="SCALE — 100k delivery: batch sweep vs per-slot loop",
    ))
    assert speedup >= SWEEP_SPEEDUP_FLOOR, (
        f"batch sweep only {speedup:.1f}x over the per-slot loop; floor "
        f"is {SWEEP_SPEEDUP_FLOOR:.0f}x")


_SCALE_1M_GATE = pytest.mark.skipif(
    os.environ.get("REPRO_SCALE_1M") != "1",
    reason="minutes-long single-core run; set REPRO_SCALE_1M=1 to enable "
           "(numbers recorded in perf_trajectory.json scale_1m)",
)


@_SCALE_1M_GATE
def test_scale_1m_batch_sweep():
    """The million-user batch sweep: the 336 s scalar delivery as
    column algebra, single-core, bounded to 70 s and the same RSS
    ceiling."""
    timings = _scale_tier(1_000_000)
    assert timings["deliver_s"] <= 70.0, (
        f"1M batch-sweep delivery took {timings['deliver_s']:.1f} s; "
        "the acceptance bound is 70 s single-core")
