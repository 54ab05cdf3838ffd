"""Single-victim attribute-inference attacks by a malicious advertiser.

Setting (paper section 5, citing Korolova [21] and Venkatadri et al.
[36]): the attacker knows a victim's PII and wants one bit — does the
victim have sensitive attribute A? The attacker is an ordinary
advertiser; its tools are exactly the advertiser API.

Two channels:

* :class:`SizeEstimateAttack` — upload a PII audience of the victim plus
  padding identities the attacker controls (fake accounts known NOT to
  have A), then compare the platform's *potential reach* for
  ``audience & attr:A`` against the no-victim baseline. Defeated by the
  platform's reach floor ("below 1,000"), which collapses 0 and 1 into
  the same answer.
* :class:`DeliveryInferenceAttack` — actually run an ad at
  ``audience & attr:A``: only the victim can match, so a single billed
  impression reveals the bit. This channel is what the paper's
  "we assume any such leaks will be patched" waves at. The simulator's
  ``min_delivery_match_count`` defense blocks this single-match probe,
  and benchmark A3 shows the same defense breaks Treads on small
  opted-in audiences, because the attack and Treads exploit the *same*
  deliver-iff-match contract. It does not block a padded probe: pad the
  audience with at least that many attacker-controlled users who *have*
  A, and the owner's exact report reads one impression more when the
  victim has A (``tests/test_attacks.py::TestPaddedProbe``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.platform.ads import AdCreative
from repro.platform.pii import record_from_raw
from repro.platform.platform import AdPlatform


@dataclass(frozen=True)
class AttackOutcome:
    """What the attacker concluded, plus scoring fields."""

    inferred_bit: Optional[bool]
    #: True when the attacker's conclusion matches ground truth.
    correct: Optional[bool]
    #: The observable the attacker based its conclusion on.
    observable: str


def _plant_padding(platform: AdPlatform, count: int,
                   prefix: str) -> List[Tuple[str, str]]:
    """Create attacker-controlled fake accounts with known PII and,
    crucially, WITHOUT the target attribute."""
    pii = []
    for index in range(count):
        user = platform.register_user()
        email = f"{prefix}-pad{index}@attacker.example"
        platform.users.attach_pii(user.user_id, "email", email)
        pii.append(("email", email))
    return pii


class SizeEstimateAttack:
    """Infer the victim's bit from audience-size estimates."""

    def __init__(self, platform: AdPlatform, padding: int = 25,
                 label: str = "size-attack"):
        self._platform = platform
        self.padding = padding
        self.label = label

    def run(self, victim_email: str, attr_id: str,
            ground_truth: bool) -> AttackOutcome:
        account = self._platform.create_ad_account(
            f"{self.label}-acct", budget=10.0
        )
        padding_pii = _plant_padding(self._platform, self.padding,
                                     self.label)
        records = [record_from_raw(kind, value)
                   for kind, value in padding_pii]
        records.append(record_from_raw("email", victim_email))
        audience = self._platform.create_pii_audience(
            account.account_id, records, name="probe"
        )
        with_attr = self._platform.estimate_spec_reach(
            account.account_id,
            f"audience:{audience.audience_id} & attr:{attr_id}",
        )
        without_victim_baseline = 0  # attacker knows its fakes lack A
        # The attacker can only act on the DISPLAYED estimate.
        if with_attr.is_floor:
            # "below 1,000" — indistinguishable from the baseline
            return AttackOutcome(
                inferred_bit=None, correct=None,
                observable=f"reach estimate: {with_attr}",
            )
        inferred = with_attr.displayed > without_victim_baseline
        return AttackOutcome(
            inferred_bit=inferred,
            correct=(inferred == ground_truth),
            observable=f"reach estimate: {with_attr}",
        )


class DeliveryInferenceAttack:
    """Infer the victim's bit from billed impressions of a narrow ad."""

    def __init__(self, platform: AdPlatform, padding: int = 25,
                 bid_cap_cpm: float = 10.0, label: str = "delivery-attack"):
        self._platform = platform
        self.padding = padding
        self.bid_cap_cpm = bid_cap_cpm
        self.label = label

    def run(self, victim_email: str, attr_id: str,
            ground_truth: bool) -> AttackOutcome:
        account = self._platform.create_ad_account(
            f"{self.label}-acct", budget=10.0
        )
        campaign = self._platform.create_campaign(account.account_id,
                                                  "probe")
        padding_pii = _plant_padding(self._platform, self.padding,
                                     self.label)
        records = [record_from_raw(kind, value)
                   for kind, value in padding_pii]
        records.append(record_from_raw("email", victim_email))
        audience = self._platform.create_pii_audience(
            account.account_id, records, name="probe"
        )
        ad = self._platform.submit_ad(
            account.account_id, campaign.campaign_id,
            AdCreative("Great deals", "This week only."),
            f"audience:{audience.audience_id} & attr:{attr_id}",
            bid_cap_cpm=self.bid_cap_cpm,
        )
        self._platform.run_sweep()
        report = self._platform.report(account.account_id, ad.ad_id)
        if report.impressions > 0:
            inferred: Optional[bool] = True
        else:
            # zero impressions is ambiguous: no match, lost auctions, or
            # the platform's narrow-targeting defense withheld the ad
            inferred = None
        return AttackOutcome(
            inferred_bit=inferred,
            correct=(inferred == ground_truth) if inferred is not None
            else None,
            observable=f"billed impressions: {report.impressions}",
        )
