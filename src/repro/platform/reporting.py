"""Advertiser-facing performance reporting.

The Treads threat model (paper section 3.1, "Privacy analysis") grants the
transparency provider exactly what this module exposes: "the performance
statistics reported by the advertising platform (e.g., for billing
purposes); this could include estimates about the number of users reached
by different ads". The provider can therefore *count* how many opted-in
users carry each attribute — but the platform never names users, and
demographic breakdowns are withheld below a minimum-reach threshold, so
reports alone cannot de-anonymize an individual (benchmark E5 ablates the
threshold to show what would leak without it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.platform.ads import AdInventory
from repro.platform.billing import BillingLedger
from repro.platform.delivery import DeliveryEngine
from repro.platform.colstore import ColumnarUserStore


@dataclass(frozen=True)
class AdPerformanceReport:
    """What an advertiser sees about one of its ads.

    ``reach`` is a (possibly quantized) count of distinct users reached;
    ``demographics`` is None below the breakdown threshold. There is no
    field that could identify an individual user — that absence is the
    design property the whole Treads mechanism leans on.
    """

    ad_id: str
    impressions: int
    spend: float
    reach: int
    effective_cpm: float
    clicks: int = 0
    demographics: Optional[Dict[str, int]] = None

    @property
    def ctr(self) -> float:
        """Click-through rate (clicks / impressions)."""
        if self.impressions == 0:
            return 0.0
        return self.clicks / self.impressions


@dataclass
class ReportingConfig:
    """Knobs modelling the platform's aggregation behaviour."""

    #: Reach is rounded to the nearest multiple of this (1 = exact counts).
    reach_quantum: int = 1
    #: Age/gender breakdowns are suppressed below this many reached users.
    breakdown_min_reach: int = 100


class ReportingService:
    """Builds advertiser-facing reports from platform-internal logs."""

    def __init__(
        self,
        inventory: AdInventory,
        ledger: BillingLedger,
        delivery: DeliveryEngine,
        users: ColumnarUserStore,
        config: Optional[ReportingConfig] = None,
    ):
        self._inventory = inventory
        self._ledger = ledger
        self._delivery = delivery
        self._users = users
        self.config = config or ReportingConfig()

    def _quantize_reach(self, true_reach: int) -> int:
        quantum = self.config.reach_quantum
        if quantum <= 1:
            return true_reach
        return int(round(true_reach / quantum)) * quantum

    def report_for_ad(self, ad_id: str, account_id: str) -> AdPerformanceReport:
        """One ad's performance report, for its owning advertiser only."""
        ad = self._inventory.ad(ad_id)
        if ad.account_id != account_id:
            raise PermissionError(
                f"account {account_id!r} does not own ad {ad_id!r}"
            )
        true_reach = self._delivery.reach_count(ad_id)
        reach = self._quantize_reach(true_reach)
        demographics: Optional[Dict[str, int]] = None
        if true_reach >= self.config.breakdown_min_reach:
            # Only materialize the user set when a breakdown is owed;
            # reach itself comes from the delivery engine's per-ad index.
            demographics = self._demographic_breakdown(
                self._delivery.unique_reach(ad_id)
            )
        return AdPerformanceReport(
            ad_id=ad_id,
            impressions=self._ledger.impressions_for_ad(ad_id),
            spend=self._ledger.spend_for_ad(ad_id),
            reach=reach,
            effective_cpm=self._ledger.effective_cpm(ad_id),
            clicks=self._delivery.clicks_for_ad(ad_id),
            demographics=demographics,
        )

    def _demographic_breakdown(self, user_ids) -> Dict[str, int]:
        """Coarse age-bucket x gender counts, platform-style."""
        breakdown: Dict[str, int] = {}
        for user_id in user_ids:
            profile = self._users.get(user_id)
            bucket = f"{_age_bucket(profile.age)}|{profile.gender}"
            breakdown[bucket] = breakdown.get(bucket, 0) + 1
        return breakdown

    def reports_for_account(self, account_id: str) -> List[AdPerformanceReport]:
        """Reports for every ad the account owns (the provider's view of a
        whole Tread campaign)."""
        return [
            self.report_for_ad(ad.ad_id, account_id)
            for ad in self._inventory.ads_owned_by(account_id)
        ]


def _age_bucket(age: int) -> str:
    """The standard reporting age buckets."""
    edges = ((13, 17), (18, 24), (25, 34), (35, 44), (45, 54), (55, 64))
    for low, high in edges:
        if low <= age <= high:
            return f"{low}-{high}"
    return "65+"
