"""Tests for the delivery engine via the platform facade.

These are the deliver-iff-match contract tests — the property the entire
Treads mechanism rests on.
"""

import pytest

from repro.platform.ads import AdCreative


def _activate_sweep(platform, account, campaign, attr_ids, bid=10.0):
    ads = []
    for attr_id in attr_ids:
        ads.append(platform.submit_ad(
            account.account_id, campaign.campaign_id,
            AdCreative("h", f"ref {attr_id}"),
            f"attr:{attr_id} & country:US", bid_cap_cpm=bid,
        ))
    return ads


class TestDeliverIffMatch:
    def test_matching_user_receives_ad(self, platform, funded_account,
                                       campaign):
        user = platform.register_user()
        attr = platform.catalog.partner_attributes()[0]
        user.set_attribute(attr)
        _activate_sweep(platform, funded_account, campaign, [attr.attr_id])
        platform.run_sweep()
        assert len(platform.feed(user.user_id)) == 1

    def test_nonmatching_user_never_receives_ad(self, platform,
                                                funded_account, campaign):
        user = platform.register_user()
        attr = platform.catalog.partner_attributes()[0]
        _activate_sweep(platform, funded_account, campaign, [attr.attr_id])
        platform.run_sweep()
        assert platform.feed(user.user_id) == []

    def test_each_user_gets_exactly_their_attributes(self, platform,
                                                     funded_account,
                                                     campaign):
        partner = platform.catalog.partner_attributes()
        user_a = platform.register_user()
        user_b = platform.register_user()
        for attr in partner[:5]:
            user_a.set_attribute(attr)
        for attr in partner[3:8]:
            user_b.set_attribute(attr)
        ads = _activate_sweep(platform, funded_account, campaign,
                              [a.attr_id for a in partner[:8]])
        platform.run_sweep()
        by_body_a = {ad.body for ad in platform.feed(user_a.user_id)}
        by_body_b = {ad.body for ad in platform.feed(user_b.user_id)}
        assert by_body_a == {f"ref {a.attr_id}" for a in partner[:5]}
        assert by_body_b == {f"ref {a.attr_id}" for a in partner[3:8]}

    def test_frequency_cap_one_impression_per_user(self, platform,
                                                   funded_account, campaign):
        user = platform.register_user()
        attr = platform.catalog.partner_attributes()[0]
        user.set_attribute(attr)
        _activate_sweep(platform, funded_account, campaign, [attr.attr_id])
        platform.run_delivery(slots_per_user=10)
        assert len(platform.feed(user.user_id)) == 1

    def test_rejected_ad_never_delivers(self, platform, funded_account,
                                        campaign):
        user = platform.register_user()
        attr = platform.catalog.partner_attributes()[0]
        user.set_attribute(attr)
        ad = platform.submit_ad(
            funded_account.account_id, campaign.campaign_id,
            AdCreative("h", "According to this ad platform, you are: rich."),
            f"attr:{attr.attr_id} & country:US", bid_cap_cpm=10.0,
        )
        assert ad.status.value == "rejected"
        platform.run_sweep()
        assert platform.feed(user.user_id) == []


class TestBudgets:
    def test_broke_account_stops_delivering(self, platform, campaign,
                                            funded_account):
        funded_account.budget = 0.0
        user = platform.register_user()
        attr = platform.catalog.partner_attributes()[0]
        user.set_attribute(attr)
        _activate_sweep(platform, funded_account, campaign, [attr.attr_id])
        platform.run_sweep()
        assert platform.feed(user.user_id) == []

    def test_budget_decremented_by_spend(self, platform, funded_account,
                                         campaign):
        user = platform.register_user()
        attr = platform.catalog.partner_attributes()[0]
        user.set_attribute(attr)
        before = funded_account.budget
        _activate_sweep(platform, funded_account, campaign, [attr.attr_id])
        platform.run_sweep()
        spend = platform.invoice(funded_account.account_id).total
        assert funded_account.budget == pytest.approx(before - spend)


class TestStatsAndViews:
    def test_unique_reach(self, platform, funded_account, campaign):
        users = [platform.register_user() for _ in range(3)]
        attr = platform.catalog.partner_attributes()[0]
        for user in users:
            user.set_attribute(attr)
        ads = _activate_sweep(platform, funded_account, campaign,
                              [attr.attr_id])
        platform.run_sweep()
        assert platform.delivery.unique_reach(ads[0].ad_id) == {
            u.user_id for u in users
        }

    def test_run_sessions_counts_slots(self, platform, funded_account,
                                       campaign):
        platform.register_user()
        platform.register_user()
        stats = platform.run_delivery(slots_per_user=3)
        assert stats.slots == 6

    def test_impression_sequence_monotone(self, platform, funded_account,
                                          campaign):
        users = [platform.register_user() for _ in range(4)]
        attr = platform.catalog.partner_attributes()[0]
        for user in users:
            user.set_attribute(attr)
        _activate_sweep(platform, funded_account, campaign, [attr.attr_id])
        platform.run_sweep()
        seqs = [imp.seq for imp in platform.delivery.impressions()]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_feed_is_copy(self, platform, funded_account, campaign):
        user = platform.register_user()
        feed = platform.feed(user.user_id)
        feed.append("junk")
        assert platform.feed(user.user_id) == []

    def test_reading_a_feed_creates_no_feed_state(self, platform):
        users = [platform.register_user() for _ in range(5)]
        for user in users:
            assert platform.feed(user.user_id) == []
        assert platform.delivery.snapshot_stats()["users_with_feeds"] == 0


class TestSharedCreativeImages:
    """Delivered feeds share one frozen image buffer per creative instead
    of deep-copying the pixels on every impression."""

    def _image_ad(self, platform, account, campaign, attr_id):
        from repro.platform.ads import AdImage
        return platform.submit_ad(
            account.account_id, campaign.campaign_id,
            AdCreative("h", "img ad", image=AdImage.blank(16, 16)),
            f"attr:{attr_id} & country:US", bid_cap_cpm=10.0,
        )

    def test_feed_images_share_one_frozen_buffer(self, platform,
                                                 funded_account, campaign):
        attr = platform.catalog.partner_attributes()[0]
        users = [platform.register_user() for _ in range(2)]
        for user in users:
            user.set_attribute(attr)
        ad = self._image_ad(platform, funded_account, campaign, attr.attr_id)
        platform.run_sweep()
        images = [platform.feed(u.user_id)[0].image for u in users]
        assert images[0] is images[1]
        # Read-only view: bytes, not the advertiser's mutable bytearray.
        assert isinstance(images[0].pixels, bytes)
        assert images[0].pixels == bytes(ad.creative.image.pixels)

    def test_frozen_view_revalidates_on_pixel_change(self):
        from repro.platform.ads import AdImage
        image = AdImage.blank(4, 4, shade=10)
        first = image.frozen()
        assert image.frozen() is first
        image.pixels[0] = 99
        second = image.frozen()
        assert second is not first
        assert second.pixels[0] == 99

    def test_delivered_feed_still_decodes_stego_payloads(self, platform,
                                                         web):
        from repro.core.client import TreadClient
        from repro.core.provider import TransparencyProvider
        from repro.core.treads import Encoding, Placement

        provider = TransparencyProvider(
            platform, web, budget=200.0,
            encoding=Encoding.STEGANOGRAPHIC,
            placement=Placement.IN_AD_IMAGE,
        )
        attrs = platform.catalog.partner_attributes()[:3]
        users = []
        for _ in range(2):
            user = platform.register_user()
            for attr in attrs:
                user.set_attribute(attr)
            provider.optin.via_page_like(user.user_id)
            users.append(user)
        provider.launch_attribute_sweep(attrs)
        provider.run_delivery()
        pack = provider.publish_decode_pack()
        for user in users:
            profile = TreadClient(user.user_id, platform, pack).sync()
            assert profile.set_attributes == {a.attr_id for a in attrs}
        # Both recipients decoded from the very same frozen buffers.
        feeds = [platform.feed(u.user_id) for u in users]
        shared = {
            item.ad_id: item.image for item in feeds[0] if item.image
        }
        assert shared
        for item in feeds[1]:
            if item.ad_id in shared:
                assert item.image is shared[item.ad_id]
