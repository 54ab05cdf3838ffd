"""Tests for the status-quo transparency baseline."""

import pytest

from repro.baselines.platform_transparency import (
    status_quo_view,
    status_quo_views,
)
from repro.platform.ads import AdCreative


class TestStatusQuoView:
    def test_preferences_attributes_collected(self, platform):
        user = platform.register_user()
        binary = [a for a in platform.catalog.platform_attributes()
                  if a.is_binary][0]
        user.set_attribute(binary)
        view = status_quo_view(platform, user.user_id)
        assert binary.attr_id in view.revealed_attributes

    def test_partner_attributes_invisible(self, platform):
        """The status quo reveals 0 partner attributes — the gap the
        paper's Treads close (section 1)."""
        user = platform.register_user()
        partner = platform.catalog.partner_attributes()[0]
        user.set_attribute(partner)
        view = status_quo_view(platform, user.user_id)
        assert partner.attr_id not in view.revealed_attributes

    def test_explanations_add_at_most_one_attr_per_ad(self, platform,
                                                      funded_account,
                                                      campaign):
        user = platform.register_user()
        binaries = [a for a in platform.catalog.platform_attributes()
                    if a.is_binary][:3]
        for attr in binaries:
            user.set_attribute(attr)
        platform.submit_ad(
            funded_account.account_id, campaign.campaign_id,
            AdCreative("h", "b"),
            " & ".join(f"attr:{a.attr_id}" for a in binaries),
            bid_cap_cpm=10.0,
        )
        platform.run_sweep()
        view = status_quo_view(platform, user.user_id)
        # the ad targeted 3 attributes; the explanation reveals only 1
        assert len(view.explanation_attributes) == 1

    def test_advertisers_listed(self, platform, funded_account):
        from repro.platform.pii import record_from_raw
        user = platform.register_user()
        platform.users.attach_pii(user.user_id, "email", "a@b.c")
        platform.create_pii_audience(
            funded_account.account_id, [record_from_raw("email", "a@b.c")]
        )
        view = status_quo_view(platform, user.user_id)
        assert funded_account.account_id in view.advertisers

    def test_views_batch(self, platform):
        ids = [platform.register_user().user_id for _ in range(3)]
        views = status_quo_views(platform, ids)
        assert set(views) == set(ids)
