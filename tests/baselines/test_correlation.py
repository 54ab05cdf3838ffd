"""Tests for the XRay/Sunlight-style correlation auditor."""

import pytest

from repro.baselines.correlation import CorrelationAuditor
from repro.platform.ads import AdCreative


@pytest.fixture
def pool(platform):
    return [a for a in platform.catalog.platform_attributes()
            if a.is_binary][:8]


def _mystery_ads(platform, attrs, bid=10.0):
    """An unknown advertiser runs one single-attribute ad per attr."""
    account = platform.create_ad_account("mystery", budget=100.0)
    campaign = platform.create_campaign(account.account_id, "m")
    truth = {}
    for attr in attrs:
        ad = platform.submit_ad(
            account.account_id, campaign.campaign_id,
            AdCreative("h", f"promo {attr.attr_id}"),
            f"attr:{attr.attr_id} & country:US", bid_cap_cpm=bid,
        )
        truth[ad.ad_id] = attr.attr_id
    return truth


class TestControls:
    def test_create_controls_plants_known_attributes(self, platform, pool):
        auditor = CorrelationAuditor(platform, seed=1)
        auditor.create_controls(10, pool, set_probability=0.5)
        assert auditor.accounts_used == 10
        for user_id, attrs in auditor.planted.items():
            profile = platform.users.get(user_id)
            assert attrs <= profile.binary_attrs

    def test_set_probability_extremes(self, platform, pool):
        auditor = CorrelationAuditor(platform, seed=1)
        auditor.create_controls(5, pool, set_probability=1.0)
        assert all(len(a) == len(pool) for a in auditor.planted.values())


class TestInference:
    def test_receivers_of(self, platform, pool):
        auditor = CorrelationAuditor(platform, seed=2)
        auditor.create_controls(10, pool)
        truth = _mystery_ads(platform, pool[:1])
        platform.run_sweep()
        ad_id = next(iter(truth))
        receivers = auditor.receivers_of(ad_id)
        expected = {uid for uid, attrs in auditor.planted.items()
                    if pool[0].attr_id in attrs}
        assert receivers == expected

    def test_many_controls_infer_correctly(self, platform, pool):
        """With enough control accounts and clean delivery, correlation
        identifies the targeted attribute."""
        auditor = CorrelationAuditor(platform, seed=3)
        auditor.create_controls(40, pool)
        truth = _mystery_ads(platform, pool)
        platform.run_sweep()
        assert auditor.accuracy(truth, pool) >= 0.9

    def test_one_control_is_ambiguous(self, platform, pool):
        """One control cannot separate 8 hypotheses — the deployment-cost
        point of section 5."""
        auditor = CorrelationAuditor(platform, seed=4)
        auditor.create_controls(1, pool, set_probability=0.5)
        truth = _mystery_ads(platform, pool)
        platform.run_sweep()
        assert auditor.accuracy(truth, pool) < 0.75

    def test_empty_truth_zero_accuracy(self, platform, pool):
        auditor = CorrelationAuditor(platform, seed=5)
        auditor.create_controls(2, pool)
        assert auditor.accuracy({}, pool) == 0.0

    def test_significance_needs_accounts(self, platform, pool):
        """Fisher-exact p-values cannot reach 0.05 with 2 controls even
        on perfectly clean data — the Sunlight deployment-cost point."""
        auditor = CorrelationAuditor(platform, seed=8)
        auditor.create_controls(2, pool, set_probability=0.5)
        truth = _mystery_ads(platform, pool[:1])
        platform.run_sweep()
        ad_id, attr_id = next(iter(truth.items()))
        assert auditor.significance(ad_id, attr_id) > 0.05

    def test_significance_with_many_accounts(self, platform, pool):
        auditor = CorrelationAuditor(platform, seed=9)
        auditor.create_controls(40, pool, set_probability=0.5)
        truth = _mystery_ads(platform, pool[:1])
        platform.run_sweep()
        ad_id, attr_id = next(iter(truth.items()))
        assert auditor.significance(ad_id, attr_id) < 0.001

    def test_significant_inferences_counts_correct_only(self, platform,
                                                        pool):
        auditor = CorrelationAuditor(platform, seed=10)
        auditor.create_controls(40, pool, set_probability=0.5)
        truth = _mystery_ads(platform, pool[:3])
        platform.run_sweep()
        count = auditor.significant_inferences(truth, pool)
        assert 0 <= count <= 3

    def test_confidence_bounded(self, platform, pool):
        auditor = CorrelationAuditor(platform, seed=6)
        auditor.create_controls(5, pool)
        truth = _mystery_ads(platform, pool[:1])
        platform.run_sweep()
        outcome = auditor.infer_targeting(next(iter(truth)), pool)
        assert 0.0 <= outcome.confidence <= 1.0
