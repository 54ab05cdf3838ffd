"""Tests for the public ad archive."""

import pytest

from repro.core.provider import TransparencyProvider
from repro.platform.ads import AdCreative


@pytest.fixture
def archived(platform, funded_account, campaign):
    user = platform.register_user()
    attr = platform.catalog.partner_attributes()[0]
    user.set_attribute(attr)
    ad = platform.submit_ad(
        funded_account.account_id, campaign.campaign_id,
        AdCreative("Fresh pizza", "Delivered hot, every time."),
        f"attr:{attr.attr_id} & country:US", bid_cap_cpm=10.0,
    )
    platform.run_sweep()
    return ad, user


class TestArchiveContents:
    def test_ran_ads_archived(self, platform, archived):
        ad, _ = archived
        entries = platform.public_ad_archive()
        assert any(e.ad_id == ad.ad_id for e in entries)

    def test_rejected_ads_not_archived(self, platform, funded_account,
                                       campaign):
        ad = platform.submit_ad(
            funded_account.account_id, campaign.campaign_id,
            AdCreative("h", "Your net worth is over $2M."), "country:US",
        )
        assert ad.status.value == "rejected"
        assert not any(e.ad_id == ad.ad_id
                       for e in platform.public_ad_archive())

    def test_no_targeting_spec_or_identities_leaked(self, platform,
                                                    archived):
        ad, user = archived
        entry = next(e for e in platform.public_ad_archive()
                     if e.ad_id == ad.ad_id)
        blob = str(entry)
        assert user.user_id not in blob
        assert "attr:" not in blob  # targeting spec is not public

    def test_reach_band_is_coarse(self, platform, archived):
        ad, _ = archived
        entry = next(e for e in platform.public_ad_archive()
                     if e.ad_id == ad.ad_id)
        assert entry.reach_band == "below 1000"

    def test_search(self, platform, archived):
        hits = platform.ad_archive.search("pizza")
        assert len(hits) == 1
        assert platform.ad_archive.search("zebra-nonsense") == []
        assert platform.ad_archive.search("  ") == []

    def test_by_advertiser(self, platform, archived, funded_account):
        assert len(platform.ad_archive.by_advertiser(
            funded_account.account_id)) == 1


class TestOutsideObserverSpotsTreads:
    def test_monolithic_sweep_is_conspicuous(self, platform, web):
        """The archive makes a 26-ad single-account sweep publicly
        visible — the external-detection pressure behind section 4's
        crowdsourcing argument."""
        provider = TransparencyProvider(platform, web, budget=100.0)
        provider.launch_partner_sweep()
        footprints = platform.ad_archive.campaign_footprints()
        top_account, top_count = footprints[0]
        assert top_account == provider.account.account_id
        assert top_count == len(platform.catalog.partner_attributes()) + 1

    def test_codebook_treads_search_innocuous(self, platform, web):
        """Even in the public archive, obfuscated Treads read as bland
        'Transparency Project update' posts — the payload stays hidden."""
        provider = TransparencyProvider(platform, web, budget=100.0)
        provider.launch_partner_sweep()
        hits = platform.ad_archive.search("net worth")
        assert hits == []  # no attribute names appear anywhere
