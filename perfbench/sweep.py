"""The ``sweep`` workload: the provider's Tread campaign at population scale.

One columnar world per run: :data:`USERS` users with compact delivery and
a :class:`~repro.store.store.NullStore`, ten partner attributes per user
(assigned as in ``benchmarks/bench_scale_1m.py``), the provider's
partner-category Treads plus the control ad, and one competing account
whose broad demographic ads bid on both sides of the Treads' bid and
whose keyword-audience ad resolves its members as an audience bitset
(``AudienceRegistry.member_bitset_cached``). The competing draw is a
constant, and both budgets pass the parallel budget certificate, so
:meth:`AdPlatform.run_sweep` (``workers=2``) forks.

Set-up (world build + Tread launch) happens once per run. Each measured
repetition forks a child from the built world, so every sweep starts
from the identical undelivered state; the parent samples the child
tree's memory while it waits. The first two repetitions also build the
canonical reports (slow, so only those two): their total impressions
must equal the matching (user, ad) pairs counted here from the
generated inputs, the two digests must be equal, and they must equal
the digest earlier runs of the same seed recorded in this checkout.
Every repetition must return the same delivery stats.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import resource
import select
import time
from typing import Dict, List, Optional, Tuple

from perfbench import common
from perfbench import tracehooks

#: Population size (see the workload's sizing note in README.md).
USERS = 100_000
#: Partner attributes per user, as in ``bench_scale_1m.py``.
ATTRS_PER_USER = 10
#: Worker processes for the partitioned sweep.
WORKERS = 2
#: The Treads' bid cap (CPM) and the competitor's broad ads around it.
TREAD_BID_CPM = 10.0
COMPETITOR_ADS = (
    ("age:18-34", 8.0),
    ("age:35-64", 12.0),
    ("gender:female", 9.0),
    ("gender:male", 11.0),
)
#: The competitor's keyword audience (phrases match attribute names and
#: categories) and its ad's bid.
AUDIENCE_PHRASES = ("Travel", "Automotive")
AUDIENCE_BID_CPM = 10.5
#: Constant ambient competition, below every bid.
COMPETING_CPM = 1.0
#: Budgets comfortably above what the up-front certificate demands.
PROVIDER_BUDGET = 5_000_000.0
COMPETITOR_BUDGET = 100_000.0


@dataclasses.dataclass
class SweepWorld:
    platform: object
    provider: object
    competitor_account: str
    expected_impressions: int
    timings: Dict[str, float]


def build(seed: int) -> SweepWorld:
    """Build and launch one world; the inputs are a function of ``seed``."""
    from repro.core.provider import TransparencyProvider
    from repro.platform.ads import AdCreative
    from repro.platform.catalog import build_us_catalog
    from repro.platform.platform import AdPlatform, PlatformConfig
    from repro.platform.web import WebDirectory
    from repro.store.store import NullStore
    from repro.workloads.competition import fixed_competition

    rng = random.Random(seed)
    platform = AdPlatform(
        config=PlatformConfig(name="sweep", columnar_users=True,
                              compact_delivery=True),
        catalog=build_us_catalog(),
        competing_draw=fixed_competition(COMPETING_CPM),
        store=NullStore(),
    )
    provider = TransparencyProvider(platform, WebDirectory(),
                                    budget=PROVIDER_BUDGET,
                                    bid_cap_cpm=TREAD_BID_CPM)
    attrs = platform.catalog.partner_attributes()
    if len(attrs) < ATTRS_PER_USER:
        raise RuntimeError("catalog has too few partner attributes")
    ages: List[int] = []
    genders: List[str] = []
    started = time.perf_counter()
    user_ids: List[str] = []
    for i in range(USERS):
        age = rng.randint(18, 64)
        gender = "female" if rng.random() < 0.5 else "male"
        ages.append(age)
        genders.append(gender)
        user = platform.register_user(age=age, gender=gender)
        for k in range(ATTRS_PER_USER):
            user.set_attribute(
                attrs[(i * ATTRS_PER_USER + k) % len(attrs)])
        user_ids.append(user.user_id)
    populate_s = time.perf_counter() - started

    # The competitor sets up before the opt-ins: its audience ad's size
    # check materializes the audience bitset, and the page likes that
    # follow change the world, so the sweep builds the bitset anew.
    account = platform.create_ad_account("competitor",
                                         budget=COMPETITOR_BUDGET)
    campaign = platform.create_campaign(account.account_id, "broad")
    for index, (spec, bid) in enumerate(COMPETITOR_ADS):
        platform.submit_ad(account.account_id, campaign.campaign_id,
                           AdCreative(f"broad {index}", "buy now"),
                           spec, bid_cap_cpm=bid)
    audience = platform.create_keyword_audience(account.account_id,
                                                AUDIENCE_PHRASES)
    platform.submit_ad(account.account_id, campaign.campaign_id,
                       AdCreative("intent", "buy now"),
                       f"audience:{audience.audience_id}",
                       bid_cap_cpm=AUDIENCE_BID_CPM)

    started = time.perf_counter()
    for user_id in user_ids:
        provider.optin.via_page_like(user_id)
    populate_s += time.perf_counter() - started

    started = time.perf_counter()
    provider.launch_partner_sweep()
    launch_s = time.perf_counter() - started

    # Matching (user, ad) pairs, counted from the generated inputs:
    # every user matches its ten Treads and the control ad, each broad
    # ad whose demographic clause it satisfies, and the audience ad if
    # it holds an attribute a phrase names.
    keyword_attrs = {attribute.attr_id for phrase in AUDIENCE_PHRASES
                     for attribute in platform.catalog.search(phrase)}
    expected = USERS * (ATTRS_PER_USER + 1)
    expected += sum(1 for age in ages if 18 <= age <= 34)
    expected += sum(1 for age in ages if 35 <= age <= 64)
    expected += sum(1 for gender in genders if gender in ("female", "male"))
    expected += sum(
        1 for i in range(USERS)
        if any(attrs[(i * ATTRS_PER_USER + k) % len(attrs)].attr_id
               in keyword_attrs for k in range(ATTRS_PER_USER)))
    return SweepWorld(
        platform=platform,
        provider=provider,
        competitor_account=account.account_id,
        expected_impressions=expected,
        timings={"colstore.populate_s": populate_s,
                 "provider.launch_s": launch_s},
    )


def _canonical_digest(world: SweepWorld) -> Tuple[int, str]:
    platform = world.platform
    rows = []
    for account_id in (world.provider.account.account_id,
                       world.competitor_account):
        rows.extend(dataclasses.asdict(r)
                    for r in platform.reports(account_id))
    rows.sort(key=lambda r: r["ad_id"])
    impressions = sum(int(r["impressions"]) for r in rows)
    text = json.dumps(rows, sort_keys=True)
    return impressions, hashlib.sha256(text.encode("utf-8")).hexdigest()


def _repetition(world: SweepWorld, trace_dir: Optional[str],
                digest: bool) -> Dict:
    """Body of one forked repetition: sweep, account, and (when asked —
    the canonical reports are slow to build) digest the reports."""
    hooks = tracehooks.SweepHooks(trace_dir) if trace_dir else None
    if hooks is not None:
        hooks.install()
    self_before = resource.getrusage(resource.RUSAGE_SELF)
    kids_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    stats = world.platform.run_sweep(workers=WORKERS)
    wall = time.perf_counter() - started
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    kids_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = ((self_after.ru_utime + self_after.ru_stime)
           - (self_before.ru_utime + self_before.ru_stime)
           + (kids_after.ru_utime + kids_after.ru_stime)
           - (kids_before.ru_utime + kids_before.ru_stime))
    out = {
        "wall_s": wall,
        "window": [started, started + wall],
        "cpu_s": cpu,
        "stats": [stats.slots, stats.filled_by_tracked_ads,
                  stats.lost_to_competition],
        "traced": hooks is not None,
    }
    if digest:
        out["impressions"], out["digest"] = _canonical_digest(world)
    if hooks is not None:
        out["trace"] = hooks.finish()
    return out


def _fork_repetition(world: SweepWorld, trace_dir: Optional[str],
                     digest: bool) -> Tuple[Dict, float]:
    """Run one repetition in a forked child; returns (result, peak MB)."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        code = 0
        try:
            os.close(read_fd)
            payload = json.dumps(_repetition(world, trace_dir, digest))
        except BaseException as exc:  # noqa: BLE001 - reported, then exit
            payload = json.dumps({"error": f"{type(exc).__name__}: {exc}"})
            code = 1
        try:
            with os.fdopen(write_fd, "w") as stream:
                stream.write(payload)
        finally:
            os._exit(code)
    os.close(write_fd)
    chunks: List[bytes] = []
    peak = 0.0
    with os.fdopen(read_fd, "rb") as stream:
        while True:
            ready, _, _ = select.select([stream], [], [], 0.05)
            peak = max(peak, common.rss_mb(common.process_tree(pid)))
            if ready:
                chunk = os.read(stream.fileno(), 1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
    _, status = os.waitpid(pid, 0)
    result = json.loads(b"".join(chunks).decode("utf-8") or "{}")
    if os.WEXITSTATUS(status) != 0 or "error" in result:
        raise RuntimeError(
            f"sweep repetition failed: {result.get('error', status)}")
    return result, peak


def _digest_ledger(root: str, seed: int, digest: str) -> bool:
    """Compare with (and record) the digest of earlier runs of this seed."""
    path = os.path.join(root, ".perfbench_out", "sweep_digests.json")
    try:
        with open(path, encoding="utf-8") as stream:
            ledger = json.load(stream)
    except (OSError, ValueError):
        ledger = {}
    key = f"{USERS}:{seed}"
    previous = ledger.get(key)
    if previous is None:
        ledger[key] = digest
        common.dump_json(path, ledger)
        return True
    return previous == digest


def run(root: str, seed: int, seconds: float, trace: bool,
        process_start: float) -> Dict:
    """One run of the workload; returns the raw figures for ``report``.

    Untraced: repetitions until ``seconds`` of sweeping (at least two).
    Traced: untraced and traced repetitions alternate, two of each, so
    the tracing overhead is measured on the same world.
    """
    world = build(seed)
    setup_s = time.perf_counter() - process_start
    trace_dir = None
    if trace:
        trace_dir = os.path.join(root, ".perfbench_out", "sweep-trace")
        os.makedirs(trace_dir, exist_ok=True)
    reps: List[Dict] = []
    peaks: List[float] = []
    while True:
        traced = trace and len(reps) % 2 == 1
        result, peak = _fork_repetition(
            world, trace_dir if traced else None, digest=len(reps) < 2)
        reps.append(result)
        peaks.append(peak)
        swept = sum(r["wall_s"] for r in reps)
        typical = common.median([r["wall_s"] for r in reps])
        if trace:
            if len(reps) >= 4:
                break
        elif len(reps) >= 2 and swept + typical > seconds:
            break
    first = reps[0]
    checks = {
        "impressions_match": first["impressions"]
        == world.expected_impressions,
        "stats_stable_in_run": all(r["stats"] == first["stats"]
                                   for r in reps),
        "digest_stable_in_run": first["digest"] == reps[1]["digest"],
        "digest_matches_earlier_runs": _digest_ledger(
            root, seed, first["digest"]),
    }
    return {
        "setup_s": setup_s,
        "world": world,
        "reps": reps,
        "peaks_mb": peaks,
        "checks": checks,
    }
