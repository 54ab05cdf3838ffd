"""Journaled-backend overhead on a scale-tier-shaped serving run.

The state layer's acceptance budget: routing every mutation through an
append-only JSONL write-ahead journal (`JournalStore`, group commit,
no fsync) may cost at most **15%** wall-clock over the in-memory store
on the scale bench tier. Measured here as best-of-5 full sharded
serving runs — identical world, identical competition, only the store
factory differs. Backend runs are interleaved (mem, journal, mem, ...)
after one untimed warm-up pair, so clock drift and cold file caches
hit both sides equally, and each side's *minimum* is compared:
scheduler noise only ever adds time, so the minima are the cleanest
estimate of intrinsic cost on a shared box (same reasoning as
``timeit``'s repeat-and-take-min). Recorded in
``perf_trajectory.json``.

Run with real statistics::

    PYTHONPATH=src:. python -m pytest benchmarks/bench_store_overhead.py \
        --benchmark-only
"""

from __future__ import annotations

import time

from benchmarks.conftest import make_platform, record_table
from repro.analysis.tables import format_table
from repro.core.provider import TransparencyProvider
from repro.platform.web import WebDirectory
from repro.serve import KeyedCompetition, ShardRouter, journal_store_factory
from repro.workloads.personas import (
    AVERAGE_CONSUMER,
    ESTABLISHED_PROFESSIONAL,
)
from repro.workloads.population import PopulationBuilder

USERS = 300
SHARDS = 4
ROUNDS = 3
SLOTS = 3
RUNS = 5
#: Acceptance ceiling: journaled runtime / in-memory runtime.
MAX_OVERHEAD = 1.15


def _build_world(seed: int = 11):
    platform = make_platform(name="store-bench", platform_count=60,
                             partner_count=60)
    web = WebDirectory()
    builder = PopulationBuilder(platform, seed=seed)
    builder.spawn_mix([ESTABLISHED_PROFESSIONAL, AVERAGE_CONSUMER], USERS)
    builder.finalize()
    provider = TransparencyProvider(platform, web, budget=50_000.0,
                                    bid_cap_cpm=10.0)
    for user_id in platform.users.user_ids():
        provider.optin.via_page_like(user_id)
    provider.launch_partner_sweep()
    return platform


def _serve(platform, store_factory=None):
    router = ShardRouter(platform, num_shards=SHARDS,
                         competition=KeyedCompetition(seed=7),
                         store_factory=store_factory)
    for _ in range(ROUNDS):
        for user in platform.users:
            shard = router.shard_for(user.user_id)
            base = shard.claim_slots(user.user_id, SLOTS)
            shard.serve_user_slots(user, base, SLOTS)
    total = router.total_impressions()
    records = sum(shard.store.record_count for shard in router.shards)
    for shard in router.shards:
        shard.store.close()
    return total, records


def _timed_run(store_factory=None):
    """Build a fresh world (untimed), then time one full serving run."""
    platform = _build_world()
    start = time.perf_counter()
    impressions, records = _serve(platform, store_factory=store_factory)
    return time.perf_counter() - start, impressions, records


def test_journal_overhead_within_budget(tmp_path):
    """Best journaled run <= 1.15x the best in-memory run."""
    # Untimed warm-up pair: the first run of each backend pays import,
    # allocator, and file-cache costs that have nothing to do with the
    # steady-state overhead being bounded here.
    _timed_run()
    _timed_run(journal_store_factory(str(tmp_path / "warmup")))

    mem_times, jr_times = [], []
    mem_impressions = jr_impressions = jr_records = 0
    for i in range(RUNS):
        elapsed, mem_impressions, _ = _timed_run()
        mem_times.append(elapsed)
        elapsed, jr_impressions, jr_records = _timed_run(
            journal_store_factory(str(tmp_path / f"run-{i}")))
        jr_times.append(elapsed)
    memory_s = min(mem_times)
    journal_s = min(jr_times)

    assert jr_impressions == mem_impressions, \
        "journaling must not change delivery output"
    assert jr_records > jr_impressions, \
        "every impression should have journaled at least itself + charge"
    overhead = journal_s / memory_s
    record_table(format_table(
        ("store backend", "best s", "records"),
        [
            ("MemoryStore", f"{memory_s:.3f}", "-"),
            ("JournalStore (WAL)", f"{journal_s:.3f}",
             f"{jr_records:,}"),
            ("overhead", f"{overhead:.2f}x",
             f"budget <= {MAX_OVERHEAD:.2f}x"),
        ],
        title=f"Journaled-store overhead ({USERS} users x {SHARDS} "
              f"shards x {ROUNDS} rounds, {mem_impressions:,} "
              f"impressions)",
    ))
    # Lenient on shared CI runners: the budget is the acceptance bound
    # measured on the reference container; a noisy box gets 2x headroom
    # before this fails outright.
    assert overhead <= MAX_OVERHEAD * 2.0, (
        f"journaled backend cost {overhead:.2f}x the in-memory run "
        f"(budget {MAX_OVERHEAD:.2f}x, hard stop at double that)"
    )
