"""Edge-case tests for delivery-engine configuration knobs."""

import pytest

from repro.platform.ads import AdCreative
from repro.platform.catalog import build_us_catalog
from repro.platform.platform import AdPlatform, PlatformConfig
from repro.workloads.competition import fixed_competition, zero_competition


def _platform(**config_kw):
    return AdPlatform(
        config=PlatformConfig(name="cfg", **config_kw),
        catalog=build_us_catalog(40, 25),
        competing_draw=zero_competition(),
    )


def _one_ad_campaign(platform, bid=10.0):
    account = platform.create_ad_account("adv", budget=100.0)
    campaign = platform.create_campaign(account.account_id, "c")
    ad = platform.submit_ad(
        account.account_id, campaign.campaign_id,
        AdCreative("h", "b"), "country:US", bid_cap_cpm=bid,
    )
    return account, ad


class TestFloorPrice:
    def test_bid_below_floor_never_serves(self):
        platform = AdPlatform(
            config=PlatformConfig(name="floor", floor_price_cpm=5.0),
            catalog=build_us_catalog(40, 25),
            competing_draw=zero_competition(),
        )
        user = platform.register_user()
        _one_ad_campaign(platform, bid=2.0)
        platform.run_delivery(slots_per_user=5)
        assert platform.feed(user.user_id) == []

    def test_floor_is_minimum_charge(self):
        platform = AdPlatform(
            config=PlatformConfig(name="floor2", floor_price_cpm=1.0),
            catalog=build_us_catalog(40, 25),
            competing_draw=zero_competition(),
        )
        platform.register_user()
        account, ad = _one_ad_campaign(platform, bid=10.0)
        platform.run_sweep()
        assert platform.ledger.effective_cpm(ad.ad_id) == pytest.approx(1.0)


class TestMinMatchCount:
    def test_negative_rejected(self):
        from repro.platform.delivery import DeliveryEngine
        platform = _platform()
        with pytest.raises(ValueError):
            DeliveryEngine(
                inventory=platform.inventory,
                audiences=platform.audiences,
                ledger=platform.ledger,
                competition=zero_competition(),
                users=platform.users,
                min_match_count=-1,
            )

    def test_threshold_exactly_met_serves(self):
        platform = _platform(min_delivery_match_count=3)
        users = [platform.register_user() for _ in range(3)]
        _one_ad_campaign(platform)
        platform.run_sweep()
        assert all(len(platform.feed(u.user_id)) == 1 for u in users)
