"""Tests for the malicious-advertiser inference attacks and defenses."""

import pytest

from repro.attacks import (
    DeliveryInferenceAttack,
    SizeEstimateAttack,
    SybilPaddedProbe,
)
from repro.platform.ads import AdCreative
from repro.platform.catalog import build_us_catalog
from repro.platform.pii import record_from_raw
from repro.platform.platform import AdPlatform, PlatformConfig
from repro.platform.targeting import parse
from repro.workloads.competition import zero_competition

VICTIM_EMAIL = "victim@example.com"


def _platform(min_match=0):
    return AdPlatform(
        config=PlatformConfig(name=f"atk{min_match}",
                              min_delivery_match_count=min_match),
        catalog=build_us_catalog(40, 25),
        competing_draw=zero_competition(),
    )


def _plant_victim(platform, has_attr):
    victim = platform.register_user()
    platform.users.attach_pii(victim.user_id, "email", VICTIM_EMAIL)
    attr = platform.catalog.partner_attributes()[0]
    if has_attr:
        victim.set_attribute(attr)
    return victim, attr


class TestSizeEstimateAttack:
    def test_defeated_by_reach_floor(self):
        """The documented platform behaviour (report small reach only as
        'below 1,000') collapses victim-present and victim-absent."""
        platform = _platform()
        _, attr = _plant_victim(platform, has_attr=True)
        outcome = SizeEstimateAttack(platform).run(
            VICTIM_EMAIL, attr.attr_id, ground_truth=True
        )
        assert outcome.inferred_bit is None
        assert "below" in outcome.observable

    def test_same_answer_either_way(self):
        for truth in (True, False):
            platform = _platform()
            _, attr = _plant_victim(platform, has_attr=truth)
            outcome = SizeEstimateAttack(platform, label=f"s{truth}").run(
                VICTIM_EMAIL, attr.attr_id, ground_truth=truth
            )
            assert outcome.inferred_bit is None


class TestDeliveryInferenceAttack:
    def test_succeeds_against_undefended_platform(self):
        """The leak the paper assumes patched: one billed impression
        reveals the victim's bit on a platform without the
        narrow-targeting defense (the 2018 state of the world)."""
        platform = _platform(min_match=0)
        _, attr = _plant_victim(platform, has_attr=True)
        outcome = DeliveryInferenceAttack(platform).run(
            VICTIM_EMAIL, attr.attr_id, ground_truth=True
        )
        assert outcome.inferred_bit is True
        assert outcome.correct

    def test_negative_victim_yields_no_impressions(self):
        platform = _platform(min_match=0)
        _, attr = _plant_victim(platform, has_attr=False)
        outcome = DeliveryInferenceAttack(platform).run(
            VICTIM_EMAIL, attr.attr_id, ground_truth=False
        )
        assert outcome.inferred_bit is None  # ambiguous zero

    def test_blocked_by_min_match_defense(self):
        """With min_delivery_match_count, the probe ad (1 matching user)
        never serves; positives and negatives look identical."""
        platform = _platform(min_match=20)
        _, attr = _plant_victim(platform, has_attr=True)
        outcome = DeliveryInferenceAttack(platform).run(
            VICTIM_EMAIL, attr.attr_id, ground_truth=True
        )
        assert outcome.inferred_bit is None
        assert "impressions: 0" in outcome.observable


class TestPaddedProbe:
    """The delivery probe the min-match defense does not block
    (:class:`SybilPaddedProbe`): the attacker pads the probe's PII
    audience with users of its own who all have the target attribute.
    The spec then matches at least the padding, which clears
    ``min_delivery_match_count``, and the owner's exact report counts
    the victim as one impression more. Recorded here as a live leak; no
    defense covers it yet."""

    PADDING = 20

    def _probe(self, victim_has_attr, threshold):
        platform = _platform(min_match=threshold)
        _, attr = _plant_victim(platform, has_attr=victim_has_attr)
        probe = SybilPaddedProbe(platform, padding=self.PADDING)
        outcome = probe.run(VICTIM_EMAIL, attr.attr_id,
                            ground_truth=victim_has_attr)
        return outcome, probe.last_report

    def test_padding_clears_the_defense_and_the_report_leaks(self):
        outcome, report = self._probe(True, threshold=self.PADDING)
        assert (outcome.inferred_bit, outcome.correct) == (True, True)
        assert (report.impressions, report.reach) == (21, 21)
        outcome, report = self._probe(False, threshold=self.PADDING)
        assert (outcome.inferred_bit, outcome.correct) == (False, True)
        assert (report.impressions, report.reach) == (20, 20)

    def test_padding_under_the_threshold_learns_nothing(self):
        # Two short of the threshold, neither world's spec matches
        # enough users: the ad is withheld in both.
        for truth in (True, False):
            outcome, report = self._probe(truth,
                                          threshold=self.PADDING + 2)
            assert outcome.inferred_bit is None
            assert report.impressions == 0

    def test_padding_one_short_still_leaks_through_withholding(self):
        # One short: the victim's match lifts the spec to the threshold,
        # so the ad serves only when the victim has the attribute. The
        # probe leaves the withheld world's 0 undecided, but the two
        # worlds' reports still differ.
        outcome, report = self._probe(True, threshold=self.PADDING + 1)
        assert (outcome.inferred_bit, outcome.correct) == (True, True)
        assert report.impressions == self.PADDING + 1
        outcome, report = self._probe(False, threshold=self.PADDING + 1)
        assert outcome.inferred_bit is None
        assert report.impressions == 0


class TestDefenseCostToTreads:
    def test_defense_breaks_small_audience_treads(self, web):
        """The tension benchmark A3 quantifies: the defense that blocks
        the attack also silences Treads for small opt-in groups, because
        both rely on deliver-iff-match over narrow intersections."""
        from repro.core.client import TreadClient
        from repro.core.provider import TransparencyProvider

        platform = _platform(min_match=20)
        provider = TransparencyProvider(platform, web, budget=50.0)
        attr = platform.catalog.partner_attributes()[0]
        user = platform.register_user()
        user.set_attribute(attr)
        provider.optin.via_page_like(user.user_id)
        provider.launch_attribute_sweep([attr])
        provider.run_delivery()
        profile = TreadClient(user.user_id, platform,
                              provider.publish_decode_pack()).sync()
        assert profile.total_facts == 0  # Tread withheld by the defense

    def test_treads_survive_defense_at_scale(self, web):
        """With enough opted-in users per attribute, Treads clear the
        same threshold and keep working."""
        from repro.core.client import TreadClient
        from repro.core.provider import TransparencyProvider

        platform = _platform(min_match=20)
        provider = TransparencyProvider(platform, web, budget=50.0)
        attr = platform.catalog.partner_attributes()[0]
        users = []
        for _ in range(25):
            user = platform.register_user()
            user.set_attribute(attr)
            provider.optin.via_page_like(user.user_id)
            users.append(user)
        provider.launch_attribute_sweep([attr], include_control=False)
        provider.run_delivery()
        pack = provider.publish_decode_pack()
        revealed = sum(
            1 for user in users
            if attr.attr_id in TreadClient(user.user_id, platform,
                                           pack).sync().set_attributes
        )
        assert revealed == 25
