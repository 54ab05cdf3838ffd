"""The per-slot delivery kernel against an independent reference.

A slot's contenders come from per-row candidate lists, built by the
range backend of each spec's lowered program and kept until
``(ad count, users.mutation_epoch, pixels.mutation_seq)`` changes. The
reference below shares none of that: it evaluates ``Expr.matches`` per
(user, ad), then applies the ad's status, ``can_afford``, its own record
of what was shown, the min-match defense (counting matches itself) and
each account's best ad. ``run_auction`` over that list, at the engine's
competing bid, must pick the engine's winner at the engine's price on
every slot. The cache-key tests each change one component of the key
between two slots.
"""

import pytest

from repro.core.provider import TransparencyProvider
from repro.platform.ads import AdCreative, AdStatus
from repro.platform.auction import run_auction
from repro.platform.platform import AdPlatform, PlatformConfig
from repro.platform.web import Browser, WebDirectory, Website
from repro.workloads.competition import (
    lognormal_competition,
    zero_competition,
)
from repro.workloads.personas import (
    AVERAGE_CONSUMER,
    ESTABLISHED_PROFESSIONAL,
    RECENT_ARRIVAL_GRAD_STUDENT,
)
from repro.workloads.population import PopulationBuilder


def _world(min_match: int) -> AdPlatform:
    """90 persona users, the full partner sweep on a budget that runs
    out mid-run, and a rival account whose ads outbid, tie and underbid
    the Treads; one Tread and one rival ad are paused."""
    platform = AdPlatform(
        config=PlatformConfig(name="kernel",
                              min_delivery_match_count=min_match,
                              floor_price_cpm=1.0),
        competing_draw=lognormal_competition(median_cpm=2.0, seed=5),
    )
    builder = PopulationBuilder(platform, seed=13)
    builder.spawn_mix([ESTABLISHED_PROFESSIONAL, AVERAGE_CONSUMER,
                       RECENT_ARRIVAL_GRAD_STUDENT], 90)
    builder.finalize()
    provider = TransparencyProvider(platform, WebDirectory(), budget=1.0,
                                    bid_cap_cpm=10.0)
    for user_id in platform.users.user_ids():
        provider.optin.via_page_like(user_id)
    report = provider.launch_partner_sweep()
    platform.pause_ad(provider.account.account_id,
                      report.launched[3].ad_id)
    rival = platform.create_ad_account("rival", budget=0.05)
    campaign = platform.create_campaign(rival.account_id, "rival")
    attrs = [a for a in platform.catalog.platform_attributes()
             if a.is_binary]
    rival_ads = [
        platform.submit_ad(rival.account_id, campaign.campaign_id,
                           AdCreative(f"rival {i}", "b"), spec,
                           bid_cap_cpm=cpm)
        for i, (spec, cpm) in enumerate([
            ("all", 3.0),
            (f"attr:{attrs[0].attr_id} | age:25-40", 12.0),
            (f"!attr:{attrs[1].attr_id} & country:US", 10.0),
            (f"page:{provider.page.page_id}", 10.0),
        ])
    ]
    platform.pause_ad(rival.account_id, rival_ads[2].ad_id)
    return platform


def _reference(platform, user, shown, matches, match_count):
    """Each account's best eligible ad for ``user``'s next slot."""
    best = {}
    for ad in platform.inventory.ads():
        if not matches(ad, user) or (user.user_id, ad.ad_id) in shown:
            continue
        if ad.status is not AdStatus.ACTIVE:
            continue
        account = platform.inventory.account(ad.account_id)
        if not account.can_afford(ad.bid_per_impression):
            continue
        if match_count(ad) < platform.config.min_delivery_match_count:
            continue
        held = best.get(ad.account_id)
        if held is None or (-ad.bid_per_impression, ad.ad_id) < \
                (-held.bid_per_impression, held.ad_id):
            best[ad.account_id] = ad
    return list(best.values())


@pytest.mark.parametrize("min_match", [0, 3])
def test_every_slot_matches_the_reference_auction(min_match):
    platform = _world(min_match)
    engine = platform.delivery
    users = list(platform.users)
    resolver = platform.audiences.is_member
    memo = {}

    def matches(ad, user):
        key = (user.user_id, ad.ad_id)
        if key not in memo:
            memo[key] = ad.targeting.matches(user, resolver)
        return memo[key]

    counts = {}

    def match_count(ad):
        if ad.ad_id not in counts:
            counts[ad.ad_id] = sum(matches(ad, user) for user in users)
        return counts[ad.ad_id]

    shown = set()
    for _ in range(60):
        any_eligible = False
        for user in users:
            reference = _reference(platform, user, shown, matches,
                                   match_count)
            any_eligible = any_eligible or bool(reference)
            outcome = engine.serve_slot(user)
            expected = run_auction(reference, outcome.competing_bid,
                                   engine.floor_price)
            assert outcome.winner is expected.winner, user.user_id
            assert outcome.price == expected.price, user.user_id
            if outcome.won:
                shown.add((user.user_id, outcome.winner.ad_id))
        if not any_eligible:
            break
    else:
        pytest.fail("the world did not saturate in 60 rounds")
    # The run crossed every path the reference checks.
    accounts = {ad.account_id for ad in platform.inventory.ads()}
    assert len(shown) == engine.impression_count() > 0
    assert {account for (_, ad_id) in shown
            for account in [platform.inventory.ad(ad_id).account_id]} \
        == accounts
    assert all(not platform.inventory.account(account).can_afford(0.01)
               for account in accounts)
    if min_match:
        assert any(0 < count < min_match for count in counts.values())


def _one_user_platform(**config):
    platform = AdPlatform(
        config=PlatformConfig(name="cachekey", **config),
        competing_draw=zero_competition(),
    )
    account = platform.create_ad_account("adv", budget=10.0)
    campaign = platform.create_campaign(account.account_id, "c")
    user = platform.register_user()
    return platform, account, campaign, user


def _submit(platform, account, campaign, spec, cpm=10.0):
    return platform.submit_ad(account.account_id, campaign.campaign_id,
                              AdCreative("h", "b"), spec, bid_cap_cpm=cpm)


class TestCandidateListKey:
    """Each test changes one component of the list key between two
    slots of the same user; a key without it serves a stale list."""

    @pytest.mark.parametrize("write", ["set_attribute", "like_page"])
    def test_user_write_between_slots(self, write):
        platform, account, campaign, user = _one_user_platform()
        attr = next(a for a in platform.catalog.platform_attributes()
                    if a.is_binary)
        page = platform.create_page(account.account_id, "p")
        spec = (f"attr:{attr.attr_id}" if write == "set_attribute"
                else f"page:{page.page_id}")
        ad = _submit(platform, account, campaign, spec)
        assert platform.delivery.serve_slot(user).winner is None
        if write == "set_attribute":
            user.set_attribute(attr)
        else:
            platform.like_page(user.user_id, page.page_id)
        assert platform.delivery.serve_slot(user).winner is ad

    def test_ad_launched_between_slots(self):
        platform, account, campaign, user = _one_user_platform()
        first = _submit(platform, account, campaign, "all", cpm=5.0)
        assert platform.delivery.serve_slot(user).winner is first
        second = _submit(platform, account, campaign, "all", cpm=3.0)
        assert platform.delivery.serve_slot(user).winner is second

    def test_pixel_fire_between_slots(self):
        platform, account, campaign, user = _one_user_platform(
            min_custom_audience_size=1)
        other = platform.register_user()
        pixel = platform.issue_pixel(account.account_id)
        site = Website(domain="adv.example", owner="adv")
        site.add_page("/", pixel_ids=[pixel.pixel_id])
        platform.observe_visit(Browser(user_id=other.user_id).visit(site,
                                                                    "/"))
        audience = platform.create_pixel_audience(account.account_id,
                                                  pixel.pixel_id)
        ad = _submit(platform, account, campaign,
                     f"audience:{audience.audience_id}")
        assert platform.delivery.serve_slot(user).winner is None
        platform.observe_visit(Browser(user_id=user.user_id).visit(site,
                                                                   "/"))
        assert platform.delivery.serve_slot(user).winner is ad
