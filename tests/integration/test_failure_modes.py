"""Failure-injection tests: where the mechanism degrades, and how.

The paper's analysis assumes campaigns complete. These tests pin down the
honest failure modes of the reproduction — partial delivery creating
false negatives, lost auctions, broker data conflicts — so the degraded
behaviour is documented rather than accidental.
"""

import pytest

from repro.core.client import TreadClient
from repro.core.provider import TransparencyProvider
from repro.platform.catalog import build_us_catalog
from repro.platform.platform import AdPlatform, PlatformConfig
from repro.platform.web import WebDirectory
from repro.workloads.competition import fixed_competition, zero_competition


def _priced_platform(name, competing_cpm=2.0):
    return AdPlatform(
        config=PlatformConfig(name=name),
        catalog=build_us_catalog(40, 25),
        competing_draw=fixed_competition(competing_cpm),
    )


class TestPartialDeliveryFalseNegatives:
    def test_budget_exhaustion_creates_false_negatives(self):
        """THE trap: budget dies after the control ad delivered, so the
        user sees 'control yes, attribute Treads missing' and would
        wrongly conclude the attributes are unset. The reproduction
        surfaces this via the provider-side budget state; a deployment
        must warn subscribers when a campaign did not complete."""
        platform = _priced_platform("partial")
        web = WebDirectory()
        # Affordability is checked against the BID CAP ($0.01/impression)
        # while charges accrue at the $2 market price ($0.002): delivery
        # proceeds until the balance dips below the cap -> 8 of the 11
        # wanted impressions land.
        provider = TransparencyProvider(platform, web, budget=0.025,
                                        bid_cap_cpm=10.0)
        attrs = platform.catalog.partner_attributes()[:10]
        user = platform.register_user()
        for attr in attrs:
            user.set_attribute(attr)
        provider.optin.via_page_like(user.user_id)
        provider.launch_attribute_sweep(attrs)
        provider.run_delivery()
        profile = TreadClient(user.user_id, platform,
                              provider.publish_decode_pack()).sync()
        # partial: some attributes revealed, most not, control maybe
        assert 0 < profile.total_facts < 10
        # the provider CAN observe the incompleteness:
        cheapest_bid = 10.0 / 1000.0
        assert not provider.account.can_afford(cheapest_bid)

    def test_zero_budget_is_total_silence(self):
        platform = _priced_platform("silent")
        web = WebDirectory()
        provider = TransparencyProvider(platform, web, budget=0.0001,
                                        bid_cap_cpm=10.0)
        attr = platform.catalog.partner_attributes()[0]
        user = platform.register_user()
        user.set_attribute(attr)
        provider.optin.via_page_like(user.user_id)
        provider.launch_attribute_sweep([attr])
        provider.run_delivery()
        profile = TreadClient(user.user_id, platform,
                              provider.publish_decode_pack()).sync()
        # no control either -> the client correctly reports NOTHING,
        # rather than inventing false-or-missing conclusions
        assert not profile.control_received
        assert profile.total_facts == 0


class TestAuctionLosses:
    def test_underbid_campaign_reveals_nothing(self):
        platform = _priced_platform("underbid", competing_cpm=5.0)
        web = WebDirectory()
        provider = TransparencyProvider(platform, web, budget=10.0,
                                        bid_cap_cpm=2.0)  # below market
        attr = platform.catalog.partner_attributes()[0]
        user = platform.register_user()
        user.set_attribute(attr)
        provider.optin.via_page_like(user.user_id)
        provider.launch_attribute_sweep([attr])
        platform.run_delivery(slots_per_user=20)
        profile = TreadClient(user.user_id, platform,
                              provider.publish_decode_pack()).sync()
        assert profile.total_facts == 0
        assert not profile.control_received
        assert provider.total_spend() == 0.0


class TestBrokerDataConflicts:
    def test_conflicting_broker_values_last_writer_wins(self):
        """Two brokers disagree on a multi attribute; ingest order decides
        (documented platform behaviour, matching how real joins clobber)."""
        platform = AdPlatform(
            config=PlatformConfig(name="conflict"),
            catalog=build_us_catalog(40, 25),
            competing_draw=zero_competition(),
        )
        # give one partner attribute multi semantics via a platform multi
        multi = platform.catalog.multi_attributes()[0]
        user = platform.register_user()
        platform.users.attach_pii(user.user_id, "email", "x@y.z")
        user.set_attribute(multi, multi.values[0])
        # a later assignment overwrites
        user.set_attribute(multi, multi.values[1])
        assert user.attribute_value(multi.attr_id) == multi.values[1]

    def test_duplicate_broker_records_idempotent(self):
        platform = AdPlatform(
            config=PlatformConfig(name="dup"),
            catalog=build_us_catalog(40, 25),
            competing_draw=zero_competition(),
        )
        attr = platform.catalog.partner_attributes()[0]
        user = platform.register_user()
        platform.users.attach_pii(user.user_id, "email", "x@y.z")
        broker = platform.brokers.broker("Acxiom")
        for record_id in ("r1", "r2"):
            broker.add_record(record_id, [("email", "x@y.z")],
                              [(attr.attr_id, None)])
        platform.ingest_brokers()
        assert user.has_attribute(attr.attr_id)
        assert len(user.binary_attrs) == 1


class TestRecoveryAcrossDays:
    def test_scheduler_recovers_lost_auctions_next_day(self):
        """Slots lost to competition one day get retried on later days —
        the paced runner converges where single-shot delivery would not."""
        from repro.core.scheduler import PacedCampaignRunner
        from repro.workloads.browsing import BrowsingModel
        from repro.workloads.competition import peak_offpeak_competition

        # The market price spikes above the bid cap in 70% of slots.
        flaky = peak_offpeak_competition(
            offpeak_median_cpm=1.0, peak_median_cpm=20.0,
            peak_fraction=0.7, sigma=0.0, seed=3)
        platform = AdPlatform(
            config=PlatformConfig(name="flaky"),
            catalog=build_us_catalog(40, 25),
            competing_draw=flaky,
        )
        web = WebDirectory()
        provider = TransparencyProvider(platform, web, budget=50.0,
                                        bid_cap_cpm=10.0)
        attrs = platform.catalog.partner_attributes()[:5]
        user = platform.register_user()
        for attr in attrs:
            user.set_attribute(attr)
        provider.optin.via_page_like(user.user_id)
        provider.launch_attribute_sweep(attrs)
        runner = PacedCampaignRunner(
            provider, browsing_model=BrowsingModel(mean_slots=15.0),
            patience=3,
        )
        result = runner.run(max_days=40)
        assert result.total_impressions == 6  # 5 attrs + control
        profile = TreadClient(user.user_id, platform,
                              provider.publish_decode_pack()).sync()
        assert profile.total_facts == 5
        assert profile.control_received
