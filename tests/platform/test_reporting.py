"""Tests for advertiser-facing reporting and its privacy behaviour."""

import pytest

from repro.platform.ads import AdCreative
from repro.platform.platform import AdPlatform, PlatformConfig
from repro.platform.reporting import ReportingConfig, _age_bucket
from repro.platform.catalog import build_us_catalog
from repro.workloads.competition import zero_competition


def _platform(reach_quantum=1, breakdown_min_reach=100):
    return AdPlatform(
        config=PlatformConfig(
            name="rpt",
            reporting=ReportingConfig(
                reach_quantum=reach_quantum,
                breakdown_min_reach=breakdown_min_reach,
            ),
        ),
        catalog=build_us_catalog(platform_count=40, partner_count=25),
        competing_draw=zero_competition(),
    )


def _run_campaign(platform, user_count, attr_index=0, bid=10.0):
    account = platform.create_ad_account("np", budget=100.0)
    campaign = platform.create_campaign(account.account_id, "c")
    attr = platform.catalog.partner_attributes()[attr_index]
    for _ in range(user_count):
        platform.register_user().set_attribute(attr)
    ad = platform.submit_ad(
        account.account_id, campaign.campaign_id,
        AdCreative("h", "neutral"), f"attr:{attr.attr_id} & country:US",
        bid_cap_cpm=bid,
    )
    platform.run_sweep()
    return account, ad


class TestReports:
    def test_report_fields(self):
        platform = _platform()
        account, ad = _run_campaign(platform, user_count=5)
        report = platform.report(account.account_id, ad.ad_id)
        assert report.impressions == 5
        assert report.reach == 5
        assert report.spend >= 0.0

    def test_no_user_identities_in_report(self):
        """The property Treads' privacy analysis relies on."""
        platform = _platform()
        account, ad = _run_campaign(platform, user_count=3)
        report = platform.report(account.account_id, ad.ad_id)
        field_names = set(vars(report))
        assert not any("user" in name for name in field_names)

    def test_foreign_account_denied(self):
        platform = _platform()
        account, ad = _run_campaign(platform, user_count=2)
        other = platform.create_ad_account("spy", budget=1.0)
        with pytest.raises(PermissionError):
            platform.report(other.account_id, ad.ad_id)

    def test_reports_for_account(self):
        platform = _platform()
        account, _ = _run_campaign(platform, user_count=2)
        assert len(platform.reports(account.account_id)) == 1


class TestReachQuantization:
    def test_exact_by_default(self):
        platform = _platform(reach_quantum=1)
        account, ad = _run_campaign(platform, user_count=7)
        assert platform.report(account.account_id, ad.ad_id).reach == 7

    def test_quantized_reach(self):
        platform = _platform(reach_quantum=5)
        account, ad = _run_campaign(platform, user_count=7)
        report = platform.report(account.account_id, ad.ad_id)
        assert report.reach == 5  # 7 -> nearest multiple of 5

    def test_impressions_remain_exact(self):
        """Billing-grade numbers are exact even when reach is quantized."""
        platform = _platform(reach_quantum=5)
        account, ad = _run_campaign(platform, user_count=7)
        assert platform.report(account.account_id, ad.ad_id).impressions == 7


class TestDemographicBreakdown:
    def test_suppressed_below_threshold(self):
        platform = _platform(breakdown_min_reach=100)
        account, ad = _run_campaign(platform, user_count=10)
        assert platform.report(account.account_id,
                               ad.ad_id).demographics is None

    def test_present_above_threshold(self):
        platform = _platform(breakdown_min_reach=5)
        account, ad = _run_campaign(platform, user_count=10)
        demographics = platform.report(account.account_id,
                                       ad.ad_id).demographics
        assert demographics is not None
        assert sum(demographics.values()) == 10

    def test_age_buckets(self):
        assert _age_bucket(13) == "13-17"
        assert _age_bucket(30) == "25-34"
        assert _age_bucket(70) == "65+"
