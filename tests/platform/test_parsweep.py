"""The parallel batch sweep: row partitioning, certificates, merging.

Worker-count equality is tested unconditionally — ``fork`` works on a
single visible core; only the *performance* claims (made in the scale
benchmarks, not here) need real parallel hardware.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

import pytest

from repro.core.provider import TransparencyProvider
from repro.errors import StoreError
from repro.platform.ads import AdCreative
from repro.platform.catalog import build_us_catalog
from repro.platform.platform import AdPlatform, PlatformConfig
from repro.platform import parsweep
from repro.platform.parsweep import (
    certify_budgets,
    parallel_sweep,
    partition_rows,
    visible_cores,
)
from repro.platform.web import WebDirectory
from repro.store.store import NullStore
from repro.workloads.competition import (
    fixed_competition,
    lognormal_competition,
)

from tests.platform.scalar_reference import saturate
from tests.platform.test_sweep_delivery import engine_state, make_world


def parallel_world(**kwargs):
    kwargs.setdefault("compact", True)
    kwargs.setdefault("store", NullStore())
    return make_world(**kwargs)


class TestPartitionRows:
    def test_covers_rows_exactly_once(self):
        for nrows in (1, 63, 64, 65, 500, 1_000_003):
            for workers in (1, 2, 3, 4, 7, 16):
                ranges = partition_rows(nrows, workers)
                assert len(ranges) <= workers
                assert ranges[0][0] == 0
                assert ranges[-1][1] == nrows
                for (a_start, a_stop), (b_start, b_stop) in zip(
                        ranges, ranges[1:]):
                    assert a_stop == b_start
                    assert a_start < a_stop

    def test_interior_boundaries_are_word_aligned(self):
        for nrows in (500, 1000, 1_000_003):
            for workers in (2, 3, 4, 7):
                for start, stop in partition_rows(nrows, workers)[:-1]:
                    assert start % 64 == 0
                    assert stop % 64 == 0

    def test_edge_cases(self):
        assert partition_rows(0, 4) == []
        assert partition_rows(10, 1) == [(0, 10)]
        # More workers than words of rows: one range, never empty ones.
        assert partition_rows(10, 16) == [(0, 10)]
        with pytest.raises(ValueError, match="positive"):
            partition_rows(100, 0)

    def test_visible_cores_positive(self):
        assert visible_cores() >= 1


class TestCertificates:
    def test_random_draw_is_rejected(self):
        platform, _ads = parallel_world(draw=lognormal_competition(seed=3))
        with pytest.raises(StoreError, match="constant"):
            certify_budgets(platform.delivery, len(platform.users))

    def test_tight_budget_is_rejected(self):
        platform, _ads = parallel_world(budget=0.05,
                                        draw=fixed_competition(5.0))
        with pytest.raises(StoreError, match="certify"):
            certify_budgets(platform.delivery, len(platform.users))

    def test_solvent_world_certifies(self):
        platform, _ads = parallel_world(budget=100.0,
                                        draw=fixed_competition(5.0))
        certify_budgets(platform.delivery, len(platform.users))

    def test_zero_competition_certifies_any_positive_budget(self):
        # The Treads economics: one account, zero competition, zero
        # floor — the price cap is $0, so any budget certifies.
        platform, _ads = parallel_world(budget=0.01)
        certify_budgets(platform.delivery, len(platform.users))


class TestPreconditions:
    def test_needs_compact_engine(self):
        platform, _ads = make_world(compact=False, store=NullStore())
        with pytest.raises(StoreError, match="compact"):
            parallel_sweep(platform.delivery, workers=2)

    def test_needs_record_discarding_store(self):
        platform, _ads = make_world(compact=True)  # MemoryStore journal
        with pytest.raises(StoreError, match="discarding"):
            parallel_sweep(platform.delivery, workers=2)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kwargs, match", [
        ({"max_rounds": None}, "max_rounds must be a non-negative"),
        ({"max_rounds": "3"}, "max_rounds must be a non-negative"),
        ({"max_rounds": -1}, "max_rounds must be a non-negative"),
        ({"max_rounds": 2.5}, "max_rounds must be a non-negative"),
    ])
    def test_bad_sweep_arguments_fail_before_forking(
            self, monkeypatch, workers, kwargs, match):
        """One worker and many raise the same ValueError, and the
        parallel path raises it without forking a worker."""
        platform, _ads = parallel_world(users=200)

        def no_fork(*args, **kw):
            raise AssertionError("parallel_sweep forked")
        monkeypatch.setattr(parsweep, "get_context", no_fork)
        with pytest.raises(ValueError, match=match):
            parallel_sweep(platform.delivery, workers=workers, **kwargs)
        assert platform.delivery.impression_count() == 0

    def test_uncertifiable_budget_fails_before_forking(self):
        platform, _ads = parallel_world(budget=0.05, users=200,
                                        draw=fixed_competition(5.0))
        with pytest.raises(StoreError, match="certify"):
            parallel_sweep(platform.delivery, workers=2)


class TestWorkerEquality:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_parallel_matches_single_process(self, workers):
        parallel, ads_parallel = parallel_world(users=500)
        serial, ads_serial = parallel_world(users=500)
        stats_parallel = parallel_sweep(parallel.delivery, workers=2)
        stats_serial = serial.delivery.sweep_slots()
        assert stats_parallel == stats_serial
        assert engine_state(parallel, ads_parallel) == \
            engine_state(serial, ads_serial)

    def test_parallel_matches_scalar_with_prices(self):
        """Priced sweeps: counts/reach identical; spend folds per-range
        price sums, so it matches scalar billing only to float tolerance
        (the zero-price Treads economics are exactly identical)."""
        parallel, ads_parallel = parallel_world(
            users=300, accounts=2, draw=fixed_competition(1.0))
        scalar, ads_scalar = parallel_world(
            users=300, accounts=2, draw=fixed_competition(1.0))
        parallel_sweep(parallel.delivery, workers=3)
        saturate(scalar)
        for ad_parallel, ad_scalar in zip(ads_parallel, ads_scalar):
            assert parallel.delivery.impression_count_for_ad(
                ad_parallel.ad_id) == \
                scalar.delivery.impression_count_for_ad(ad_scalar.ad_id)
            assert parallel.delivery.reach_count(ad_parallel.ad_id) == \
                scalar.delivery.reach_count(ad_scalar.ad_id)
            assert parallel.ledger.spend_for_ad(ad_parallel.ad_id) == \
                pytest.approx(scalar.ledger.spend_for_ad(ad_scalar.ad_id))

    def test_platform_run_sweep_routes_workers(self):
        parallel, ads_parallel = parallel_world(users=300)
        serial, ads_serial = parallel_world(users=300)
        parallel.run_sweep(workers=2)
        serial.run_sweep()
        assert engine_state(parallel, ads_parallel) == \
            engine_state(serial, ads_serial)

    def test_more_ads_than_one_sendmsg_takes(self):
        """A campaign of more Treads than IOV_MAX (a catalog's 507
        partner plus 614 platform attributes make 1,121): every user
        matches all 1,100 ads, so each worker's delta holds all of
        them, and the merged sweep equals the single-process one."""
        def world():
            platform = AdPlatform(
                config=PlatformConfig(name="wide", compact_delivery=True),
                catalog=build_us_catalog(40, 25),
                competing_draw=fixed_competition(0.0),
                store=NullStore(),
            )
            account = platform.create_ad_account("adv", budget=100.0)
            campaign = platform.create_campaign(account.account_id, "c")
            ads = [platform.submit_ad(account.account_id,
                                      campaign.campaign_id,
                                      AdCreative("h", f"ad {i}"),
                                      "age:18-64", bid_cap_cpm=10.0)
                   for i in range(1100)]
            for i in range(128):
                platform.register_user(age=20 + i % 40)
            return platform, ads

        parallel, ads_parallel = world()
        serial, ads_serial = world()
        stats_parallel = parallel.run_sweep(workers=2, max_rounds=2000)
        stats_serial = serial.run_sweep(max_rounds=2000)
        assert stats_parallel.filled_by_tracked_ads == 128 * 1100
        assert stats_parallel == stats_serial
        assert engine_state(parallel, ads_parallel) == \
            engine_state(serial, ads_serial)

    def test_one_range_degenerates_to_inprocess_sweep(self):
        platform, _ads = parallel_world(users=60)
        stats = parallel_sweep(platform.delivery, workers=4)
        assert stats.filled_by_tracked_ads > 0
        # A second pass over saturated inventory delivers nothing.
        assert parallel_sweep(platform.delivery,
                              workers=4).filled_by_tracked_ads == 0


#: SHA-256 of the canonical reports of :func:`priced_campaign_reports`
#: (workers=2), as the per-round delta folds produced them before the
#: sweep rounds walked candidate lists. Spend is summed per worker range
#: and folded into the ledger, so any change in how the delta adds up
#: prices changes these bits.
PINNED_PRICED_DIGEST = (
    "f522388794f7baf7a82f6a0bd29211bae4e4e89d7739344f1e81004b208f0bba")


def priced_campaign_reports(users, workers, draw=None):
    """A small copy of the perfbench ``sweep`` world: the partner-sweep
    Treads at 10 CPM and one competitor's broad ads at 8/9/11/12 CPM over
    ``users`` users holding ten partner attributes each, under ``draw``,
    by default a constant 1 CPM competing bid. Returns the canonical
    reports' JSON."""
    platform = AdPlatform(
        config=PlatformConfig(name="priced", compact_delivery=True),
        catalog=build_us_catalog(),
        competing_draw=draw if draw is not None else fixed_competition(1.0),
        store=NullStore(),
    )
    provider = TransparencyProvider(platform, WebDirectory(),
                                    budget=500_000.0, bid_cap_cpm=10.0)
    attrs = platform.catalog.partner_attributes()
    rng = random.Random(3)
    user_ids = []
    for i in range(users):
        user = platform.register_user(
            age=rng.randint(18, 64),
            gender="female" if rng.random() < 0.5 else "male")
        for k in range(10):
            user.set_attribute(attrs[(i * 10 + k) % len(attrs)])
        user_ids.append(user.user_id)
    account = platform.create_ad_account("competitor", budget=10_000.0)
    campaign = platform.create_campaign(account.account_id, "broad")
    for spec, bid in (("age:18-34", 8.0), ("age:35-64", 12.0),
                      ("gender:female", 9.0), ("gender:male", 11.0)):
        platform.submit_ad(account.account_id, campaign.campaign_id,
                           AdCreative("broad", "buy now"), spec,
                           bid_cap_cpm=bid)
    for user_id in user_ids:
        provider.optin.via_page_like(user_id)
    provider.launch_partner_sweep()
    platform.run_sweep(workers=workers)
    rows = []
    for account_id in (provider.account.account_id, account.account_id):
        rows.extend(dataclasses.asdict(report)
                    for report in platform.reports(account_id))
    rows.sort(key=lambda row: row["ad_id"])
    return json.dumps(rows, sort_keys=True)


class TestKeyedMarket:
    """A keyed random market sweeps single-process whatever the worker
    count, and gives the per-slot loop's outcome bit for bit."""

    def test_parallel_equals_scalar_bits(self):
        from tests.platform.test_sweep_delivery import ledger_bits

        def world():
            return parallel_world(users=500, accounts=2,
                                  draw=lognormal_competition(
                                      median_cpm=9.5, sigma=0.5, seed=5))
        parallel, ads_parallel = world()
        scalar, ads_scalar = world()
        stats_parallel = parallel_sweep(parallel.delivery, workers=2)
        stats_scalar = saturate(scalar)
        assert stats_parallel.lost_to_competition > 0
        assert stats_parallel == stats_scalar
        assert ledger_bits(parallel, ads_parallel) == \
            ledger_bits(scalar, ads_scalar)
        assert engine_state(parallel, ads_parallel) == \
            engine_state(scalar, ads_scalar)
        assert (parallel.delivery._slot_counts.tolist()
                == scalar.delivery._slot_counts.tolist())

    def test_worker_count_does_not_change_the_digest(self):
        market = lognormal_competition(median_cpm=1.0, sigma=0.5, seed=7)
        digests = [
            hashlib.sha256(priced_campaign_reports(
                users=3000, workers=workers,
                draw=market).encode("utf-8")).hexdigest()
            for workers in (1, 2)]
        assert digests[0] == digests[1]


class TestPricedDigest:
    def test_priced_parallel_sweep_digest_is_pinned(self):
        text = priced_campaign_reports(users=3000, workers=2)
        spend = sum(row["spend"] for row in json.loads(text))
        assert spend > 0
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
            PINNED_PRICED_DIGEST


def stale_keyword_reports(workers):
    """A Treads account and a rival whose keyword-audience ad is checked
    (materializing the audience bitset) before more users gain the
    audience's attribute, so the sweep starts from a stale bitset.
    Bids are powers of two per impression, so every price sum is exact
    whatever its association and the digests compare across worker
    counts. Returns the canonical reports' JSON, the audience's fresh
    member count, the audience ad's impressions, and whether the
    parent holds the fresh bitset after the sweep."""
    platform = AdPlatform(
        config=PlatformConfig(name="kw", compact_delivery=True),
        catalog=build_us_catalog(40, 25),
        competing_draw=fixed_competition(0.0),
        store=NullStore(),
    )
    attrs = platform.catalog.partner_attributes()[:8]
    users = [platform.register_user(age=20 + i % 40) for i in range(600)]
    for i, user in enumerate(users):
        user.set_attribute(attrs[i % len(attrs)])
    treads = platform.create_ad_account("treads", budget=1_000.0)
    campaign = platform.create_campaign(treads.account_id, "treads")
    for attr in attrs:
        platform.submit_ad(treads.account_id, campaign.campaign_id,
                           AdCreative("t", attr.attr_id),
                           f"attr:{attr.attr_id}", bid_cap_cpm=15.625)
    rival = platform.create_ad_account("rival", budget=1_000.0)
    rival_campaign = platform.create_campaign(rival.account_id, "intent")
    audience = platform.create_keyword_audience(rival.account_id,
                                                (attrs[3].name,))
    intent = platform.submit_ad(rival.account_id,
                                rival_campaign.campaign_id,
                                AdCreative("intent", "buy"),
                                f"audience:{audience.audience_id}",
                                bid_cap_cpm=31.25)
    registry = platform.audiences
    before = registry.membership_count(audience.audience_id)
    for user in users[::5]:
        user.set_attribute(attrs[3])
    assert registry._bitset_cache[audience.audience_id][0] != \
        registry.mutation_key
    platform.run_sweep(workers=workers)
    fresh = (registry._bitset_cache[audience.audience_id][0]
             == registry.mutation_key)
    members = registry.membership_count(audience.audience_id)
    assert members > before
    rows = []
    for account_id in (treads.account_id, rival.account_id):
        rows.extend(dataclasses.asdict(report)
                    for report in platform.reports(account_id))
    rows.sort(key=lambda row: row["ad_id"])
    impressions = platform.delivery.impression_count_for_ad(intent.ad_id)
    return json.dumps(rows, sort_keys=True), members, impressions, fresh


class TestStaleAudience:
    def test_stale_keyword_audience_is_rebuilt_before_the_fork(self):
        text, members, impressions, fresh = stale_keyword_reports(2)
        assert fresh  # warmed in the parent, before the workers forked
        assert impressions == members
        serial, *serial_counts = stale_keyword_reports(1)
        assert serial_counts[:2] == [members, impressions]
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
            hashlib.sha256(serial.encode("utf-8")).hexdigest()
