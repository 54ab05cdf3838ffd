"""Tests for regulator-side advertiser-explanation auditing."""

import pytest

from repro.core.advertiser import AdvertiserExplanation
from repro.core.regulator import (
    AdvertiserAuditor,
    ExplanationRegistry,
)
from repro.errors import ProviderError
from repro.platform.ads import AdCreative


@pytest.fixture
def binaries(platform):
    return [a for a in platform.catalog.platform_attributes()
            if a.is_binary]


def _run_ad(platform, account, campaign, targeting, with_user_attrs):
    user = platform.register_user()
    for attr in with_user_attrs:
        user.set_attribute(attr)
    ad = platform.submit_ad(
        account.account_id, campaign.campaign_id,
        AdCreative("h", "b"), targeting, bid_cap_cpm=10.0,
    )
    platform.run_sweep()
    return ad, user


class TestRegistry:
    def test_file_and_lookup(self):
        registry = ExplanationRegistry()
        filing = AdvertiserExplanation(ad_id="ad-1", intent="x",
                                       declared_attribute_ids=())
        registry.file(filing)
        assert registry.filing_for("ad-1") is filing
        assert registry.filing_for("ghost") is None
        assert len(registry) == 1

    def test_refiling_replaces(self):
        registry = ExplanationRegistry()
        registry.file(AdvertiserExplanation("ad-1", "old", ()))
        registry.file(AdvertiserExplanation("ad-1", "new", ()))
        assert registry.filing_for("ad-1").intent == "new"


class TestAuditAd:
    def test_honest_filing_compliant(self, platform, funded_account,
                                     campaign, binaries):
        ad, _ = _run_ad(platform, funded_account, campaign,
                        f"attr:{binaries[0].attr_id}", [binaries[0]])
        registry = ExplanationRegistry()
        registry.file(AdvertiserExplanation(
            ad_id=ad.ad_id, intent="reach fans",
            declared_attribute_ids=(binaries[0].attr_id,),
        ))
        finding = AdvertiserAuditor(platform, registry).audit_ad(ad.ad_id)
        assert finding.filed and finding.consistent
        assert finding.completeness == 1.0

    def test_unfiled_ad_flagged(self, platform, funded_account, campaign,
                                binaries):
        ad, _ = _run_ad(platform, funded_account, campaign,
                        f"attr:{binaries[0].attr_id}", [binaries[0]])
        finding = AdvertiserAuditor(
            platform, ExplanationRegistry()
        ).audit_ad(ad.ad_id)
        assert not finding.filed

    def test_hidden_attribute_refuted_by_platform(self, platform,
                                                  funded_account, campaign,
                                                  binaries):
        """The paper's verification story: the platform's independent
        explanation names an attribute the filing omitted."""
        ad, _ = _run_ad(platform, funded_account, campaign,
                        f"attr:{binaries[0].attr_id}", [binaries[0]])
        registry = ExplanationRegistry()
        registry.file(AdvertiserExplanation(
            ad_id=ad.ad_id, intent="reach everyone",
            declared_attribute_ids=(),
        ))
        finding = AdvertiserAuditor(platform, registry).audit_ad(ad.ad_id)
        assert finding.filed and not finding.consistent
        assert binaries[0].attr_id in finding.undeclared

    def test_undelivered_ad_verified_against_spec(self, platform,
                                                  funded_account, campaign,
                                                  binaries):
        # nobody matches -> no recipients; audit falls back to the spec
        ad = platform.submit_ad(
            funded_account.account_id, campaign.campaign_id,
            AdCreative("h", "b"), f"attr:{binaries[0].attr_id}",
            bid_cap_cpm=10.0,
        )
        registry = ExplanationRegistry()
        registry.file(AdvertiserExplanation(
            ad_id=ad.ad_id, intent="x",
            declared_attribute_ids=(),
        ))
        finding = AdvertiserAuditor(platform, registry).audit_ad(ad.ad_id)
        assert finding.completeness == 0.0
        assert binaries[0].attr_id in finding.undeclared


class TestScorecards:
    def test_account_scorecard_aggregates(self, platform, funded_account,
                                          campaign, binaries):
        registry = ExplanationRegistry()
        honest_ad, _ = _run_ad(platform, funded_account, campaign,
                               f"attr:{binaries[0].attr_id}", [binaries[0]])
        registry.file(AdvertiserExplanation(
            honest_ad.ad_id, "honest", (binaries[0].attr_id,)
        ))
        _run_ad(platform, funded_account, campaign,
                f"attr:{binaries[1].attr_id}", [binaries[1]])  # unfiled
        card = AdvertiserAuditor(platform, registry).audit_account(
            funded_account.account_id
        )
        assert card.ads_audited == 2
        assert card.ads_unfiled == 1
        assert card.filing_rate == 0.5
        assert not card.compliant

    def test_compliant_account(self, platform, funded_account, campaign,
                               binaries):
        registry = ExplanationRegistry()
        ad, _ = _run_ad(platform, funded_account, campaign,
                        f"attr:{binaries[0].attr_id}", [binaries[0]])
        registry.file(AdvertiserExplanation(
            ad.ad_id, "honest", (binaries[0].attr_id,)
        ))
        card = AdvertiserAuditor(platform, registry).audit_account(
            funded_account.account_id
        )
        assert card.compliant

    def test_audit_all_and_noncompliant(self, platform, funded_account,
                                        campaign, binaries):
        registry = ExplanationRegistry()
        _run_ad(platform, funded_account, campaign,
                f"attr:{binaries[0].attr_id}", [binaries[0]])
        auditor = AdvertiserAuditor(platform, registry)
        assert funded_account.account_id in auditor.non_compliant_accounts()

    def test_account_without_ads_rejected(self, platform, funded_account):
        auditor = AdvertiserAuditor(platform, ExplanationRegistry())
        with pytest.raises(ProviderError):
            auditor.audit_account(funded_account.account_id)
