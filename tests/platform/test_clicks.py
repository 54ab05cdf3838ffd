"""Tests for click recording and CTR reporting."""

import pytest

from repro.platform.ads import AdCreative, LandingURL


@pytest.fixture
def delivered(platform, funded_account, campaign):
    user = platform.register_user()
    attr = platform.catalog.partner_attributes()[0]
    user.set_attribute(attr)
    ad = platform.submit_ad(
        funded_account.account_id, campaign.campaign_id,
        AdCreative("h", "b", landing_url=LandingURL("shop.example", "/p")),
        f"attr:{attr.attr_id} & country:US", bid_cap_cpm=10.0,
    )
    platform.run_sweep()
    return user, ad


class TestClickAd:
    def test_click_returns_landing_url(self, platform, delivered):
        user, ad = delivered
        url = platform.click_ad(user.user_id, ad.ad_id)
        assert url == "https://shop.example/p"

    def test_click_without_landing_url(self, platform, funded_account,
                                       campaign):
        user = platform.register_user()
        ad = platform.submit_ad(
            funded_account.account_id, campaign.campaign_id,
            AdCreative("h", "b"), "country:US", bid_cap_cpm=10.0,
        )
        platform.run_sweep()
        assert platform.click_ad(user.user_id, ad.ad_id) is None

    def test_click_on_unreceived_ad_rejected(self, platform, delivered):
        _, ad = delivered
        stranger = platform.register_user()
        with pytest.raises(ValueError):
            platform.click_ad(stranger.user_id, ad.ad_id)


class TestCTRReporting:
    def test_clicks_in_report(self, platform, funded_account, delivered):
        user, ad = delivered
        platform.click_ad(user.user_id, ad.ad_id)
        report = platform.report(funded_account.account_id, ad.ad_id)
        assert report.clicks == 1
        assert report.ctr == pytest.approx(1.0)

    def test_zero_clicks_zero_ctr(self, platform, funded_account,
                                  delivered):
        _, ad = delivered
        report = platform.report(funded_account.account_id, ad.ad_id)
        assert report.clicks == 0
        assert report.ctr == 0.0

    def test_repeat_clicks_counted(self, platform, funded_account,
                                   delivered):
        user, ad = delivered
        platform.click_ad(user.user_id, ad.ad_id)
        platform.click_ad(user.user_id, ad.ad_id)
        report = platform.report(funded_account.account_id, ad.ad_id)
        assert report.clicks == 2

    def test_report_still_identity_free(self, platform, funded_account,
                                        delivered):
        user, ad = delivered
        platform.click_ad(user.user_id, ad.ad_id)
        report = platform.report(funded_account.account_id, ad.ad_id)
        assert user.user_id not in str(report)
