"""Integration: covert discrimination survives attribute-level review.

Paper section 5: even after Facebook's fixes, "it was still possible to
deploy discriminatory advertisements as of November 2017, which is not
surprising given the multiple covert ways of launching discriminatory
advertisements that have been found [29]".

The covert channel modelled here: a housing advertiser seeds a lookalike
audience from a page liked predominantly by one group. The ad's targeting
spec contains no demographic or exclusion term — it passes the
special-category review cleanly — yet delivery is grossly disparate.
The disparity *is* measurable platform-side, which is the audit hook a
real counter-measure would need.
"""

import pytest

from repro.analysis.metrics import delivery_disparity
from repro.platform.ads import AdCreative, AdStatus


@pytest.fixture
def skewed_world(platform, funded_account):
    """Two groups distinguished only by correlated binary attributes."""
    binaries = [a for a in platform.catalog.platform_attributes()
                if a.is_binary]
    marker_a, marker_b = binaries[0], binaries[1]
    page = platform.create_page(funded_account.account_id, "Community")
    group_a, group_b = set(), set()
    for index in range(40):
        user = platform.register_user()
        if index < 20:
            user.set_attribute(marker_a)  # group A's correlated traits
            user.set_attribute(binaries[2])
            user.set_attribute(binaries[3])
            group_a.add(user.user_id)
            if index < 10:
                platform.like_page(user.user_id, page.page_id)  # skewed seed
        else:
            user.set_attribute(marker_b)
            user.set_attribute(binaries[4])
            user.set_attribute(binaries[5])
            group_b.add(user.user_id)
    return page, group_a, group_b


class TestCovertChannel:
    def test_lookalike_housing_ad_passes_review(self, platform,
                                                funded_account, campaign,
                                                skewed_world):
        page, _, _ = skewed_world
        seed = platform.create_page_audience(funded_account.account_id,
                                             page.page_id)
        lookalike = platform.create_lookalike_audience(
            funded_account.account_id, seed.audience_id,
            similarity_threshold=2,
        )
        ad = platform.submit_ad(
            funded_account.account_id, campaign.campaign_id,
            AdCreative("Apartments", "Great neighbourhood."),
            f"audience:{lookalike.audience_id}",
            bid_cap_cpm=10.0, special_category="housing",
        )
        # no age/gender/zip/exclusion/financial terms -> review passes
        assert ad.status is AdStatus.ACTIVE

    def test_delivery_is_disparate(self, platform, funded_account,
                                   campaign, skewed_world):
        page, group_a, group_b = skewed_world
        seed = platform.create_page_audience(funded_account.account_id,
                                             page.page_id)
        lookalike = platform.create_lookalike_audience(
            funded_account.account_id, seed.audience_id,
            similarity_threshold=2,
        )
        ad = platform.submit_ad(
            funded_account.account_id, campaign.campaign_id,
            AdCreative("Apartments", "Great neighbourhood."),
            f"audience:{lookalike.audience_id}",
            bid_cap_cpm=10.0, special_category="housing",
        )
        platform.run_sweep()
        disparity = delivery_disparity(
            platform.delivery.unique_reach(ad.ad_id), group_a, group_b
        )
        # the formally-clean ad reached group A broadly, group B barely
        assert disparity.rate_a >= 0.5
        assert disparity.rate_b == 0.0
        assert disparity.disparate_impact_ratio < 0.8

    def test_platform_can_measure_what_review_missed(self, platform,
                                                     funded_account,
                                                     campaign,
                                                     skewed_world):
        """The audit hook: review sees nothing, but the platform's own
        delivery log quantifies the disparity — outcome auditing, not
        input auditing, is what would catch covert channels."""
        page, group_a, group_b = skewed_world
        seed = platform.create_page_audience(funded_account.account_id,
                                             page.page_id)
        lookalike = platform.create_lookalike_audience(
            funded_account.account_id, seed.audience_id,
            similarity_threshold=2,
        )
        ad = platform.submit_ad(
            funded_account.account_id, campaign.campaign_id,
            AdCreative("Apartments", "Great neighbourhood."),
            f"audience:{lookalike.audience_id}",
            bid_cap_cpm=10.0, special_category="housing",
        )
        assert ad.targeting.referenced_attributes() == []  # review-blind
        platform.run_sweep()
        disparity = delivery_disparity(
            platform.delivery.unique_reach(ad.ad_id), group_a, group_b
        )
        assert disparity.disparate_impact_ratio < 0.8  # measurable
