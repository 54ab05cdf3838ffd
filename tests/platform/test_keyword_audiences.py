"""Tests for Google-style keyword (custom intent/affinity) audiences."""

import pytest

from repro.errors import AudienceError
from repro.platform.ads import AdCreative


class TestCreation:
    def test_create_and_match(self, platform, funded_account):
        user = platform.register_user()
        salsa = platform.catalog.search("salsa")[0]
        user.set_attribute(salsa)
        audience = platform.create_keyword_audience(
            funded_account.account_id, ["salsa"], name="dancers"
        )
        assert platform.audiences.is_member(audience.audience_id,
                                            user.user_id)

    def test_nonmatching_user_excluded(self, platform, funded_account):
        user = platform.register_user()
        audience = platform.create_keyword_audience(
            funded_account.account_id, ["salsa"]
        )
        assert not platform.audiences.is_member(audience.audience_id,
                                                user.user_id)

    def test_multiple_phrases_union(self, platform, funded_account):
        salsa_user = platform.register_user()
        salsa = platform.catalog.search("salsa")[0]
        salsa_user.set_attribute(salsa)
        jazz_user = platform.register_user()
        jazz = platform.catalog.search("jazz")[0]
        jazz_user.set_attribute(jazz)
        audience = platform.create_keyword_audience(
            funded_account.account_id, ["salsa", "jazz"]
        )
        members = platform.audiences.members(audience.audience_id)
        assert {salsa_user.user_id, jazz_user.user_id} <= members

    def test_membership_dynamic(self, platform, funded_account):
        audience = platform.create_keyword_audience(
            funded_account.account_id, ["salsa"]
        )
        assert platform.audiences.members(audience.audience_id) == set()
        late_user = platform.register_user()
        late_user.set_attribute(platform.catalog.search("salsa")[0])
        assert platform.audiences.members(audience.audience_id) == {
            late_user.user_id
        }

    def test_empty_phrases_rejected(self, platform, funded_account):
        with pytest.raises(AudienceError):
            platform.create_keyword_audience(funded_account.account_id,
                                             ["  ", ""])

    def test_phrases_trimmed(self, platform, funded_account):
        audience = platform.create_keyword_audience(
            funded_account.account_id, ["  salsa  "]
        )
        assert audience.phrases == ("salsa",)


class TestTreadsOverKeywordAudiences:
    def test_keyword_audience_tread_end_to_end(self, platform, web,
                                               funded_account, campaign):
        """A Tread can target a keyword audience like any other — the
        reveal becomes 'you matched these keywords'."""
        salsa = platform.catalog.search("salsa")[0]
        users = []
        for _ in range(25):
            user = platform.register_user()
            user.set_attribute(salsa)
            users.append(user)
        outsider = platform.register_user()
        audience = platform.create_keyword_audience(
            funded_account.account_id, ["salsa"]
        )
        ad = platform.submit_ad(
            funded_account.account_id, campaign.campaign_id,
            AdCreative("h", "Reference: 1,234,567."),
            f"audience:{audience.audience_id}", bid_cap_cpm=10.0,
        )
        platform.run_sweep()
        assert all(len(platform.feed(u.user_id)) == 1 for u in users)
        assert platform.feed(outsider.user_id) == []

    def test_min_size_gate_applies(self, platform, funded_account,
                                   campaign):
        """Keyword audiences are custom audiences: the minimum-size gate
        protects against single-user keyword sniping."""
        from repro.errors import AudienceTooSmallError
        lone = platform.register_user()
        lone.set_attribute(platform.catalog.search("salsa")[0])
        audience = platform.create_keyword_audience(
            funded_account.account_id, ["salsa"]
        )
        with pytest.raises(AudienceTooSmallError):
            platform.submit_ad(
                funded_account.account_id, campaign.campaign_id,
                AdCreative("h", "b"), f"audience:{audience.audience_id}",
            )
