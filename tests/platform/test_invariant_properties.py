"""Property-based invariants over the auction and delivery pipeline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.ads import Ad, AdCreative
from repro.platform.auction import run_auction
from repro.platform.catalog import build_us_catalog
from repro.platform.platform import AdPlatform, PlatformConfig
from repro.platform.targeting import parse
from repro.workloads.competition import zero_competition

_bid = st.floats(min_value=0.1, max_value=50.0, allow_nan=False)


def _ads(bids_with_accounts):
    return [
        Ad(ad_id=f"ad-{index}", account_id=account, campaign_id="c",
           creative=AdCreative("h", "b"), targeting=parse("all"),
           bid_cap_cpm=bid)
        for index, (bid, account) in enumerate(bids_with_accounts)
    ]


@given(
    st.lists(
        st.tuples(_bid, st.sampled_from(["a", "b", "c"])),
        min_size=0, max_size=8,
    ),
    st.floats(min_value=0.0, max_value=0.05, allow_nan=False),
)
def test_auction_invariants(bids_with_accounts, competing_bid):
    """For any bid set and competition:

    1. if there is a winner, it holds the (joint-)highest bid;
    2. the price never exceeds the winner's own cap;
    3. the price is at least the competing bid;
    4. losing to competition happens iff no bid strictly beats it.
    """
    ads = _ads(bids_with_accounts)
    outcome = run_auction(ads, competing_bid=competing_bid)
    max_bid = max((ad.bid_per_impression for ad in ads), default=None)
    if outcome.winner is not None:
        assert outcome.winner.bid_per_impression == max_bid
        assert outcome.price <= outcome.winner.bid_per_impression + 1e-15
        assert outcome.price >= competing_bid - 1e-15 or \
            outcome.price == outcome.winner.bid_per_impression
    else:
        assert max_bid is None or max_bid <= competing_bid


@given(
    st.lists(
        st.tuples(_bid, st.sampled_from(["a", "b", "c"])),
        min_size=2, max_size=8,
    ),
)
def test_auction_price_is_market_not_self(bids_with_accounts):
    """With zero competition, the winner pays at most the best bid among
    OTHER accounts (never its own sibling ads' bids)."""
    ads = _ads(bids_with_accounts)
    outcome = run_auction(ads, competing_bid=0.0)
    assert outcome.winner is not None
    others = [
        ad.bid_per_impression for ad in ads
        if ad.account_id != outcome.winner.account_id
    ]
    ceiling = max(others, default=0.0)
    assert outcome.price <= ceiling + 1e-15


@settings(max_examples=25, deadline=None)
@given(
    profile_bits=st.lists(
        st.lists(st.integers(0, 7), max_size=8),
        min_size=1, max_size=5,
    ),
)
def test_deliver_iff_match_property(profile_bits):
    """For any assignment of attributes to users, a saturated sweep
    delivers to each user exactly the ads for their set attributes —
    the paper's core premise as an executable property. Also checks
    billing consistency: invoice total == budget delta."""
    platform = AdPlatform(
        config=PlatformConfig(name="prop"),
        catalog=build_us_catalog(40, 25),
        competing_draw=zero_competition(),
    )
    attrs = platform.catalog.partner_attributes()[:8]
    users = []
    for indices in profile_bits:
        user = platform.register_user()
        for index in set(indices):
            user.set_attribute(attrs[index])
        users.append((user, {attrs[i].attr_id for i in set(indices)}))

    account = platform.create_ad_account("adv", budget=100.0)
    campaign = platform.create_campaign(account.account_id, "c")
    initial_budget = account.budget
    for attr in attrs:
        platform.submit_ad(
            account.account_id, campaign.campaign_id,
            AdCreative("h", f"ref {attr.attr_id}"),
            f"attr:{attr.attr_id} & country:US", bid_cap_cpm=10.0,
        )
    platform.run_sweep()

    for user, expected in users:
        received = {
            ad.body.removeprefix("ref ")
            for ad in platform.feed(user.user_id)
        }
        assert received == expected

    invoice = platform.invoice(account.account_id)
    assert invoice.total == pytest.approx(initial_budget - account.budget)
    assert invoice.impressions == sum(len(e) for _, e in users)
