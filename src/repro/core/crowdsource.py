"""Evading shutdown by crowdsourcing the transparency provider.

Paper section 4, "Evading shutdown": *"detection or shutdown of Treads
could still be made difficult by distributing them across a number of
advertising accounts, effectively crowdsourcing the transparency provider
... with each account being responsible for a small subset of the overall
set of targeting attributes."*

:class:`CrowdsourcedProvider` shards an attribute list over ``k`` member
accounts (each a full :class:`~repro.core.provider.TransparencyProvider`
with its own ad account, page, and budget) that share one codebook, so
subscribers decode all shards with a single decode pack. Benchmark E11
runs the platform's :class:`~repro.platform.policy.TreadPatternDetector`
against varying ``k`` to reproduce the paper's argument: per-account
footprint shrinks ~1/k, detector recall collapses, and user-side reveal
coverage stays complete.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.codebook import Codebook
from repro.core.provider import DecodePack, LaunchReport, TransparencyProvider
from repro.core.treads import Encoding, Placement
from repro.errors import ProviderError
from repro.platform.attributes import Attribute
from repro.platform.platform import AdPlatform
from repro.platform.web import WebDirectory


def shard_attributes(
    attributes: Sequence[Attribute], shards: int
) -> List[List[Attribute]]:
    """Round-robin split of the attribute list into ``shards`` subsets.

    Round-robin keeps shard sizes within one of each other, minimising the
    largest per-account footprint (the quantity the detector thresholds).
    """
    if shards < 1:
        raise ValueError("need at least one shard")
    out: List[List[Attribute]] = [[] for _ in range(shards)]
    for index, attribute in enumerate(attributes):
        out[index % shards].append(attribute)
    return out


@dataclass
class CrowdsourceReport:
    """Launch outcome across all member accounts."""

    per_account: Dict[str, LaunchReport] = field(default_factory=dict)

    @property
    def total_launched(self) -> int:
        return sum(len(r.launched) for r in self.per_account.values())

    @property
    def total_rejected(self) -> int:
        return sum(len(r.rejected) for r in self.per_account.values())

    @property
    def largest_account_footprint(self) -> int:
        """Max ads on any single account — what per-account auditing sees."""
        if not self.per_account:
            return 0
        return max(len(r.treads) for r in self.per_account.values())


class CrowdsourcedProvider:
    """k independent advertiser accounts jointly running one Tread campaign.

    Every member opts users in through its *own* page (each organisation
    runs its own opt-in, as the paper sketches — "a number of
    privacy-conscious organizations or individuals could each create an
    advertising account and run a few Treads").
    """

    def __init__(
        self,
        platform: AdPlatform,
        web: WebDirectory,
        members: int,
        name: str = "transparency-coop",
        budget_per_member: float = 200.0,
        encoding: Encoding = Encoding.CODEBOOK,
        placement: Placement = Placement.IN_AD_TEXT,
        bid_cap_cpm: float = 10.0,
    ):
        if members < 1:
            raise ProviderError("need at least one member account")
        self.platform = platform
        self.name = name
        self.codebook = Codebook(salt=name)
        self.members: List[TransparencyProvider] = [
            TransparencyProvider(
                platform=platform,
                web=web,
                name=f"{name}-{index:02d}",
                budget=budget_per_member,
                encoding=encoding,
                placement=placement,
                bid_cap_cpm=bid_cap_cpm,
                codebook=self.codebook,
            )
            for index in range(members)
        ]

    def optin_everywhere(self, user_id: str) -> None:
        """The user likes every member's page (subscribing to the co-op
        means subscribing to each member's shard)."""
        for member in self.members:
            member.optin.via_page_like(user_id)

    def launch_sweep(
        self,
        attributes: Sequence[Attribute],
        include_control: bool = True,
    ) -> CrowdsourceReport:
        """Shard ``attributes`` across members and launch every shard.

        Only the first member runs the control ad — one reachability
        signal suffices for the whole co-op.
        """
        report = CrowdsourceReport()
        shards = shard_attributes(attributes, len(self.members))
        for index, (member, shard) in enumerate(zip(self.members, shards)):
            launch = member.launch_attribute_sweep(
                shard,
                include_control=(include_control and index == 0),
            )
            report.per_account[member.account.account_id] = launch
        return report

    def run_delivery(self) -> None:
        self.platform.run_sweep()

    def publish_decode_pack(self) -> DecodePack:
        """One decode pack covering every member's Treads.

        The shared codebook means a single snapshot decodes all shards;
        the pack lists every member account so clients recognise ads from
        any of them.
        """
        account_ids = {
            f"{self.platform.name}:{member.name}": member.account.account_id
            for member in self.members
        }
        landing_domains = tuple(
            member.website.domain for member in self.members
        )
        return DecodePack(
            provider_name=self.name,
            codebook_snapshot=self.codebook.snapshot(),
            codebook_salt=self.codebook.salt,
            value_tables={},
            account_ids=account_ids,
            landing_domains=landing_domains,
        )

    def ads_by_account(self) -> Dict[str, list]:
        """The platform auditor's view: every account's submitted ads."""
        return {
            member.account.account_id: self.platform.inventory.ads_owned_by(
                member.account.account_id
            )
            for member in self.members
        }

    def total_spend(self) -> float:
        return sum(member.total_spend() for member in self.members)
