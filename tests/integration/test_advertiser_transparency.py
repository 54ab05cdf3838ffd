"""Integration: section 4's advertiser-driven transparency, end to end.

An ordinary advertiser targets Salsa-interested users, a user clicks
through to the advertiser's site, the advertiser's first-party log plus
the ad's targeting spec produce a learn-on-click record, and the
mandated disclosure reaches the user. The regulator then audits the
advertiser's filed explanation against the platform's.
"""

import pytest

from repro.core.advertiser import (
    AdvertiserExplanation,
    click_learning_for_ad,
)
from repro.core.regulator import AdvertiserAuditor, ExplanationRegistry
from repro.platform.ads import AdCreative, LandingURL


@pytest.fixture
def shop_scenario(platform, web, funded_account, campaign):
    """An advertiser with a shop site runs a Salsa-targeted ad."""
    shop = web.create_site("danceshop.example", owner="shop")
    shop.add_page("/landing", content="Shoes for dancers")
    salsa = platform.catalog.search("salsa")[0]
    user = platform.register_user(age=35)
    user.set_attribute(salsa)
    ad = platform.submit_ad(
        funded_account.account_id, campaign.campaign_id,
        AdCreative(
            headline="Dance shoes",
            body="Handmade, worldwide shipping.",
            landing_url=LandingURL("danceshop.example", "/landing"),
        ),
        f"age:30-65 & attr:{salsa.attr_id}",
        bid_cap_cpm=10.0,
    )
    platform.run_sweep()
    return shop, salsa, user, ad


class TestLearnOnClick:
    def test_click_produces_disclosure(self, platform, web, shop_scenario):
        shop, salsa, user, ad = shop_scenario
        delivered = platform.feed(user.user_id)[0]
        assert delivered.landing_url == "https://danceshop.example/landing"

        # the user clicks: their browser visits the advertiser's page
        browser = platform.browser_for(user.user_id)
        browser.visit(shop, "/landing")
        cookie = shop.access_log[-1].cookie_id

        # the advertiser associates the ad's targeting with that cookie
        learning = click_learning_for_ad(ad)
        learning.record_click(cookie)

        disclosure = learning.disclosure_for(cookie)
        assert salsa.attr_id in disclosure.attributes_learned
        # the advertiser learned an ATTRIBUTE about a COOKIE — but still
        # not a platform identity
        assert user.user_id not in str(learning.learned)

    def test_cookieless_click_defeats_learning(self, platform, web,
                                               shop_scenario):
        shop, _, user, ad = shop_scenario
        browser = platform.browser_for(user.user_id)
        browser.disable_cookies()
        browser.visit(shop, "/landing")
        learning = click_learning_for_ad(ad)
        learning.record_click(shop.access_log[-1].cookie_id)
        assert learning.learned == {}


class TestIntentTreads:
    def test_intent_tread_reaches_exact_audience(self, platform, web,
                                                 shop_scenario,
                                                 funded_account, campaign):
        """Section 4 end-to-end: a mandated companion Tread carries the
        advertiser's intent to exactly the base ad's audience, and the
        user's extension surfaces it."""
        from repro.core.advertiser import launch_intent_tread
        from repro.core.client import TreadClient
        from repro.core.codebook import Codebook
        from repro.core.provider import DecodePack

        _, salsa, user, ad = shop_scenario
        # in practice this codebook is the regulator's public registry
        registry_book = Codebook(salt="intent-registry")
        companion = launch_intent_tread(
            platform, funded_account.account_id, campaign.campaign_id,
            ad, "reach experienced professional Salsa dancers",
            registry_book,
        )
        assert companion.status.value == "active"
        platform.run_sweep()

        pack = DecodePack(
            provider_name="intent-registry",
            codebook_snapshot=registry_book.snapshot(),
            codebook_salt="intent-registry",
            value_tables={},
            account_ids={platform.name: funded_account.account_id},
            landing_domains=(),
        )
        profile = TreadClient(user.user_id, platform, pack).sync()
        assert profile.intents == [
            "reach experienced professional Salsa dancers"
        ]

    def test_nonmatching_user_gets_no_intent(self, platform, web,
                                             shop_scenario,
                                             funded_account, campaign):
        from repro.core.advertiser import launch_intent_tread
        from repro.core.codebook import Codebook

        _, _, _, ad = shop_scenario
        outsider = platform.register_user(age=22)  # outside age:30-65
        launch_intent_tread(
            platform, funded_account.account_id, campaign.campaign_id,
            ad, "reach dancers", Codebook(salt="r"),
        )
        platform.run_sweep()
        assert platform.feed(outsider.user_id) == []

    def test_pipe_in_intent_rejected(self, platform, shop_scenario,
                                     funded_account, campaign):
        from repro.core.advertiser import launch_intent_tread
        from repro.core.codebook import Codebook

        _, _, _, ad = shop_scenario
        with pytest.raises(ValueError):
            launch_intent_tread(
                platform, funded_account.account_id, campaign.campaign_id,
                ad, "a|b", Codebook(salt="r"),
            )


class TestRegulatedDisclosure:
    def test_honest_advertiser_passes_audit(self, platform, web,
                                            shop_scenario, funded_account):
        _, salsa, _, ad = shop_scenario
        registry = ExplanationRegistry()
        registry.file(AdvertiserExplanation(
            ad_id=ad.ad_id,
            intent="reach experienced professional Salsa dancers",
            declared_attribute_ids=(salsa.attr_id,),
        ))
        auditor = AdvertiserAuditor(platform, registry)
        card = auditor.audit_account(funded_account.account_id)
        assert card.compliant

    def test_intent_complements_platform_explanation(self, platform, web,
                                                     shop_scenario):
        """The paper's point: platform explanations are capped at the
        targeting options; the intent declaration carries the real goal
        ('experienced professional Salsa dancers' vs 'aged 30+ interested
        in Salsa')."""
        _, salsa, user, ad = shop_scenario
        platform_expl = platform.explain_ad(user.user_id, ad.ad_id)
        # platform explanation mentions the proxy attribute + demographics
        assert platform_expl.revealed_attribute == salsa.attr_id
        assert "between the ages of 30 and 65" in platform_expl.text
        # ... but cannot express intent; the advertiser's filing can
        filing = AdvertiserExplanation(
            ad_id=ad.ad_id,
            intent="experienced professional Salsa dancers",
            declared_attribute_ids=(salsa.attr_id,),
        )
        assert "professional" in filing.intent
        assert "professional" not in platform_expl.text
