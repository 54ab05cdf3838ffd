"""The :class:`AdPlatform` facade.

One ``AdPlatform`` instance is one advertising platform (a Facebook-,
Google-, or Twitter-alike): its user base, attribute catalog, broker feeds,
audience machinery, auction/delivery/billing pipeline, ToS review, and its
own transparency surfaces. The facade exposes two API families:

* the **advertiser API** (what the transparency provider programs
  against): accounts, pixels, audiences, campaigns, ad submission with
  review, reach estimates, performance reports — never user identities;
* the **user-side surface**: feeds, per-ad explanations, the
  ad-preferences page, page likes, and browsers for off-platform visits.

Instantiate several platforms with different :class:`PlatformConfig`
values to model the multi-platform opt-in page of paper section 3.1.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

from repro.errors import AccountError, TargetingError
from repro.ids import IdFactory
from repro.obs.metrics import registry as obs_registry
from repro.platform.ads import (
    Ad,
    AdAccount,
    AdCreative,
    AdInventory,
    AdStatus,
    Campaign,
    PlatformPage,
)
from repro.platform.adarchive import AdArchiveService, ArchiveEntry
from repro.platform.adpreferences import AdPreferencesService, AdPreferencesView
from repro.platform.attributes import AttributeCatalog
from repro.platform.audiences import (
    Audience,
    AudienceRegistry,
    ReachEstimate,
    round_reach,
)
from repro.platform.billing import BillingLedger, Invoice
from repro.platform.catalog import build_us_catalog
from repro.platform.colstore import ColumnarUserStore, UserView
from repro.platform.databroker import BrokerNetwork, IngestReport
from repro.platform.delivery import DeliveredAd, DeliveryEngine, DeliveryStats
from repro.platform.explanations import AdExplanation, ExplanationService
from repro.platform.pii import PIIRecord
from repro.platform.pixels import PixelRegistry, TrackingPixel
from repro.platform.policy import PolicyEngine, ReviewResult
from repro.platform.reporting import (
    AdPerformanceReport,
    ReportingConfig,
    ReportingService,
)
from repro.platform.targeting import TargetingSpec, parse
from repro.platform.web import Browser, Visit
from repro.store.store import MemoryStore, StateStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.competition import KeyedCompetition

_log = logging.getLogger("repro.platform")


@dataclass
class PlatformConfig:
    """Per-platform policy and economics knobs."""

    name: str = "fbsim"
    country: str = "US"
    #: Recommended default bid for the country (paper: $2 CPM for US).
    default_cpm: float = 2.0
    #: Minimum members before a PII/pixel audience may run ads.
    min_custom_audience_size: int = 20
    #: Reach-estimate rounding for audience size previews.
    reach_floor: int = 1000
    reach_quantum: int = 50
    #: Ad review strictness: "lenient" | "standard" | "strict".
    policy_strictness: str = "standard"
    #: Narrow-targeting defense: an ad only serves while at least this
    #: many users match its full spec (0 = off). Blocks single-user
    #: inference via delivery/billing (the Korolova-style attack of the
    #: paper's section 5) — and, tellingly, also blocks Treads on small
    #: opted-in audiences: both exploit deliver-iff-match on narrow
    #: intersections (ablation A3).
    min_delivery_match_count: int = 0
    #: Auction floor price in CPM dollars.
    floor_price_cpm: float = 0.0
    #: The default market (distinct seed per platform for realism): at
    #: the paper's $2 CPM median a $2 bid wins about half the time.
    competition_seed: int = 7
    competition_median_cpm: float = 2.0
    competition_sigma: float = 0.5
    reporting: ReportingConfig = field(default_factory=ReportingConfig)
    #: Kept so configs written while the platform also had an object
    #: user store still construct: the columnar store
    #: (:mod:`repro.platform.colstore`) is now the only one, so the
    #: field must stay True; False raises ``ValueError``.
    columnar_users: bool = True
    #: Million-user memory mode: delivery keeps only its per-ad shown
    #: bitsets and count aggregates (no impression log, click log or
    #: feeds). APIs that would need the dropped per-event state raise
    #: ``StoreError``. The frequency cap is one impression per ad per
    #: user, and billing keeps aggregates only, in both modes.
    compact_delivery: bool = False


class AdPlatform:
    """One simulated advertising platform. See module docstring."""

    def __init__(
        self,
        config: Optional[PlatformConfig] = None,
        catalog: Optional[AttributeCatalog] = None,
        competing_draw: Optional["KeyedCompetition"] = None,
        store: Optional[StateStore] = None,
    ):
        self.config = config or PlatformConfig()
        self.catalog = catalog if catalog is not None else build_us_catalog()
        self.ids = IdFactory(prefix=self.config.name)
        # One state store shared by every mutable-state owner on this
        # platform (audiences, billing, delivery): pass a JournalStore
        # for a durable write-ahead journal, default is in-memory.
        self.store = store if store is not None else MemoryStore()
        if not self.config.columnar_users:
            raise ValueError(
                "columnar_users=False is no longer supported: the "
                "columnar store is the platform's only user store")
        self.users = ColumnarUserStore(store=self.store)
        self.pixels = PixelRegistry()
        self.audiences = AudienceRegistry(
            users=self.users,
            pixels=self.pixels,
            catalog=self.catalog,
            min_custom_audience_size=self.config.min_custom_audience_size,
            reach_floor=self.config.reach_floor,
            reach_quantum=self.config.reach_quantum,
            store=self.store,
        )
        self.inventory = AdInventory()
        self.ledger = BillingLedger(self.inventory, store=self.store)
        self.policy = PolicyEngine(
            self.catalog, strictness=self.config.policy_strictness
        )
        if competing_draw is None:
            # Imported here: repro.workloads imports this module.
            from repro.workloads.competition import KeyedCompetition
            competing_draw = KeyedCompetition(
                seed=self.config.competition_seed,
                median_cpm=self.config.competition_median_cpm,
                sigma=self.config.competition_sigma,
            )
        self.delivery = DeliveryEngine(
            inventory=self.inventory,
            audiences=self.audiences,
            ledger=self.ledger,
            competition=competing_draw,
            users=self.users,
            floor_price_cpm=self.config.floor_price_cpm,
            min_match_count=self.config.min_delivery_match_count,
            store=self.store,
            compact=self.config.compact_delivery,
        )
        self.reporting = ReportingService(
            inventory=self.inventory,
            ledger=self.ledger,
            delivery=self.delivery,
            users=self.users,
            config=self.config.reporting,
        )
        self.explanations = ExplanationService(
            self.catalog, self.users, self.inventory
        )
        self.ad_preferences = AdPreferencesService(
            self.catalog, self.audiences, self.inventory
        )
        self.ad_archive = AdArchiveService(
            self.inventory, self.delivery,
            reach_floor=self.config.reach_floor,
            reach_quantum=self.config.reach_quantum,
        )
        self.brokers = BrokerNetwork()
        reg = obs_registry()
        self._obs_users = reg.counter("platform.users_registered")
        self._obs_submitted = reg.counter("platform.ads_submitted")
        self._obs_rejected = reg.counter("platform.ads_rejected")
        _log.debug("platform %r up: %d catalog attributes",
                   self.config.name, len(self.catalog))

    @property
    def name(self) -> str:
        return self.config.name

    # ------------------------------------------------------------------
    # user-side
    # ------------------------------------------------------------------

    def register_user(
        self,
        country: str = "US",
        age: int = 30,
        gender: str = "unknown",
        zip_code: str = "00000",
    ) -> UserView:
        """Create a platform user account.

        Appends a row to the user store and hands back its
        :class:`~repro.platform.colstore.UserView` — the
        ``UserProfile`` read/write API, no transient profile object."""
        user_id = self.ids.next("user")
        self._obs_users.inc()
        return self.users.new_user(
            user_id, country=country, age=age, gender=gender,
            zip_code=zip_code,
        )

    def browser_for(self, user_id: str) -> Browser:
        """A logged-in browser for a user (the platform's pixels will
        recognise the user on instrumented pages)."""
        self.users.get(user_id)
        return Browser(user_id=user_id)

    def like_page(self, user_id: str, page_id: str) -> None:
        """User likes a platform page — the validation's opt-in action."""
        self.inventory.page(page_id)
        self.users.like_page(user_id, page_id)

    def observe_visit(self, visit: Visit) -> None:
        """Fire this platform's pixels present on a visited page.

        A pixel only identifies visitors who are logged-in users of THIS
        platform; a visit by someone with no account here is invisible —
        which is why, on the shared multi-platform opt-in page, each
        platform ends up knowing only its own users.
        """
        if visit.user_id not in self.users:
            return
        self.pixels.record_visit(visit)

    def feed(self, user_id: str) -> List[DeliveredAd]:
        """The ads a user has received."""
        self.users.get(user_id)
        return self.delivery.feed(user_id)

    def explain_ad(self, user_id: str, ad_id: str) -> AdExplanation:
        """User-requested "Why am I seeing this?" for a delivered ad."""
        return self.explanations.explain(ad_id, self.users.get(user_id))

    def ad_preferences_for(self, user_id: str) -> AdPreferencesView:
        return self.ad_preferences.view_for(self.users.get(user_id))

    def click_ad(self, user_id: str, ad_id: str) -> Optional[str]:
        """The user clicks a delivered ad; returns the landing URL (or
        None for ads without one). The click is recorded platform-side
        and surfaces to the advertiser only as a count in reports."""
        self.users.get(user_id)
        ad = self.inventory.ad(ad_id)
        self.delivery.record_click(user_id, ad_id)
        if ad.creative.landing_url is None:
            return None
        return str(ad.creative.landing_url)

    def public_ad_archive(self) -> List[ArchiveEntry]:
        """The public advertiser-activity archive (section 2.2) — open to
        anyone, user account or not."""
        return self.ad_archive.entries()

    # ------------------------------------------------------------------
    # advertiser API
    # ------------------------------------------------------------------

    def create_ad_account(self, owner_name: str, budget: float = 0.0,
                          country: Optional[str] = None) -> AdAccount:
        """Open an advertiser account — anyone can (paper section 3.1)."""
        account = AdAccount(
            account_id=self.ids.next("acct"),
            owner_name=owner_name,
            country=country or self.config.country,
            budget=budget,
        )
        return self.inventory.add_account(account)

    def create_page(self, account_id: str, name: str) -> PlatformPage:
        page = PlatformPage(
            page_id=self.ids.next("page"),
            owner_account_id=self.inventory.account(account_id).account_id,
            name=name,
        )
        return self.inventory.add_page(page)

    def issue_pixel(self, account_id: str, label: str = "") -> TrackingPixel:
        self.inventory.account(account_id)
        return self.pixels.issue(
            pixel_id=self.ids.next("pixel"),
            owner_account_id=account_id,
            label=label,
        )

    def create_pii_audience(self, account_id: str,
                            records: Sequence[PIIRecord],
                            name: str = "") -> Audience:
        self.inventory.account(account_id)
        return self.audiences.create_pii_audience(
            audience_id=self.ids.next("aud"),
            owner_account_id=account_id,
            records=records,
            name=name,
        )

    def create_pixel_audience(self, account_id: str, pixel_id: str,
                              name: str = "") -> Audience:
        self.inventory.account(account_id)
        return self.audiences.create_pixel_audience(
            audience_id=self.ids.next("aud"),
            owner_account_id=account_id,
            pixel_id=pixel_id,
            name=name,
        )

    def create_keyword_audience(self, account_id: str,
                                phrases: Sequence[str],
                                name: str = "") -> Audience:
        """Custom intent/affinity audience from keyword phrases (the
        Google-style targeting of paper section 2.1)."""
        self.inventory.account(account_id)
        return self.audiences.create_keyword_audience(
            audience_id=self.ids.next("aud"),
            owner_account_id=account_id,
            phrases=phrases,
            name=name,
        )

    def create_lookalike_audience(self, account_id: str,
                                  seed_audience_id: str,
                                  similarity_threshold: int = 3,
                                  name: str = "") -> Audience:
        """Expand a seed audience to "people similar to them"."""
        self.inventory.account(account_id)
        return self.audiences.create_lookalike_audience(
            audience_id=self.ids.next("aud"),
            owner_account_id=account_id,
            seed_audience_id=seed_audience_id,
            similarity_threshold=similarity_threshold,
            name=name,
        )

    def create_page_audience(self, account_id: str, page_id: str,
                             name: str = "") -> Audience:
        page = self.inventory.page(page_id)
        if page.owner_account_id != account_id:
            raise AccountError(
                f"page {page_id!r} belongs to another account"
            )
        return self.audiences.create_page_audience(
            audience_id=self.ids.next("aud"),
            owner_account_id=account_id,
            page_id=page_id,
            name=name,
        )

    def estimated_reach(self, account_id: str,
                        audience_id: str) -> ReachEstimate:
        audience = self.audiences.get(audience_id)
        if audience.owner_account_id != account_id:
            raise AccountError("cannot view another advertiser's audience")
        return self.audiences.estimated_reach(audience_id)

    def estimate_spec_reach(
        self,
        account_id: str,
        targeting: Union[TargetingSpec, str],
    ) -> ReachEstimate:
        """Potential reach of a full targeting spec (rounded).

        The pre-launch "potential reach" number real platforms show in
        the ad composer. Validates the spec exactly as submission would
        (catalog, country availability, audience ownership) and then
        counts matching users — but only ever returns the rounded
        :class:`ReachEstimate`, never a user list.
        """
        account = self.inventory.account(account_id)
        spec = parse(targeting) if isinstance(targeting, str) else targeting
        spec.validate(self.catalog)
        self._check_attribute_availability(spec, account)
        for audience_id in spec.referenced_audiences():
            audience = self.audiences.get(audience_id)
            if audience.owner_account_id != account_id:
                raise AccountError(
                    f"audience {audience_id!r} belongs to another advertiser"
                )
        return round_reach(self.audiences.count_matching(spec),
                           floor=self.config.reach_floor,
                           quantum=self.config.reach_quantum)

    def create_campaign(self, account_id: str, name: str) -> Campaign:
        campaign = Campaign(
            campaign_id=self.ids.next("camp"),
            account_id=self.inventory.account(account_id).account_id,
            name=name,
        )
        return self.inventory.add_campaign(campaign)

    def submit_ad(
        self,
        account_id: str,
        campaign_id: str,
        creative: AdCreative,
        targeting: Union[TargetingSpec, str],
        bid_cap_cpm: Optional[float] = None,
        special_category: Optional[str] = None,
    ) -> Ad:
        """Submit an ad: validate targeting, check audiences, run review.

        The returned ad is ACTIVE if it passed review, REJECTED otherwise
        (with the reviewer's reasons in ``review_note``). Rejected ads
        never enter the auction. Declaring a ``special_category``
        ("housing" / "employment" / "credit") additionally subjects the
        *targeting* to the anti-discrimination review of
        :func:`repro.platform.policy.review_targeting_for_special_category`.
        """
        account = self.inventory.account(account_id)
        spec = parse(targeting) if isinstance(targeting, str) else targeting
        spec.validate(self.catalog)
        self._check_attribute_availability(spec, account)
        for audience_id in spec.referenced_audiences():
            audience = self.audiences.get(audience_id)
            if audience.owner_account_id != account_id:
                raise AccountError(
                    f"audience {audience_id!r} belongs to another advertiser"
                )
            self.audiences.check_runnable(audience_id)

        campaign = self.inventory.campaign(campaign_id)
        if campaign.account_id != account_id:
            raise AccountError("campaign belongs to another account")

        ad = Ad(
            ad_id=self.ids.next("ad"),
            account_id=account_id,
            campaign_id=campaign_id,
            creative=creative,
            targeting=spec,
            bid_cap_cpm=(
                bid_cap_cpm if bid_cap_cpm is not None
                else self.config.default_cpm
            ),
            special_category=special_category,
        )
        review = self.policy.review(creative)
        reasons = list(review.reasons)
        approved = review.approved
        if special_category is not None:
            from repro.platform.policy import (
                review_targeting_for_special_category,
            )
            targeting_review = review_targeting_for_special_category(
                spec, special_category
            )
            approved = approved and targeting_review.approved
            reasons.extend(targeting_review.reasons)
        if approved:
            ad.status = AdStatus.ACTIVE
        else:
            ad.status = AdStatus.REJECTED
            ad.review_note = "; ".join(reasons)
        self._obs_submitted.inc()
        if not approved:
            self._obs_rejected.inc()
            _log.debug("ad %s rejected: %s", ad.ad_id, ad.review_note)
        return self.inventory.add_ad(ad)

    def _check_attribute_availability(self, spec: TargetingSpec,
                                      account: AdAccount) -> None:
        """Attributes must be offered in the advertiser's country."""
        for attr_id in spec.referenced_attributes():
            attribute = self.catalog.get(attr_id)
            if not attribute.offered_in(account.country):
                raise TargetingError(
                    f"attribute {attr_id!r} is not offered to advertisers "
                    f"in {account.country}"
                )

    def pause_ad(self, account_id: str, ad_id: str) -> None:
        ad = self.inventory.ad(ad_id)
        if ad.account_id != account_id:
            raise AccountError("cannot pause another advertiser's ad")
        ad.status = AdStatus.PAUSED

    def report(self, account_id: str,
               ad_id: str) -> AdPerformanceReport:
        return self.reporting.report_for_ad(ad_id, account_id)

    def reports(self, account_id: str) -> List[AdPerformanceReport]:
        return self.reporting.reports_for_account(account_id)

    def invoice(self, account_id: str) -> Invoice:
        return self.ledger.invoice(account_id)

    # ------------------------------------------------------------------
    # simulation drivers
    # ------------------------------------------------------------------

    def run_delivery(self, slots_per_user: int = 1) -> DeliveryStats:
        """Serve ``slots_per_user`` ad slots to every user, round-robin."""
        return self.delivery.run_sessions(list(self.users), slots_per_user)

    def run_sweep(self, max_rounds: int = 50,
                  workers: Optional[int] = None) -> DeliveryStats:
        """Saturate delivery over the whole user base, vectorized.

        The campaign mode: slots are served until every deliverable
        (ad, user) pair is served or budgets run out. Eligibility,
        auctions, and state folds all run as column algebra over row
        blocks (:meth:`~repro.platform.delivery.DeliveryEngine.sweep_slots`),
        producing the same impressions, spend, stats, and reports as
        saturating the users one slot at a time. ``workers`` > 1
        partitions the row space across forked processes (compact
        platforms only — see :mod:`repro.platform.parsweep`).
        """
        if workers is not None and workers > 1:
            from repro.platform.parsweep import parallel_sweep
            return parallel_sweep(self.delivery, workers=workers,
                                  max_rounds=max_rounds)
        return self.delivery.sweep_slots(max_rounds=max_rounds)

    def ingest_brokers(self) -> List[IngestReport]:
        """Run all pending broker feeds into user profiles."""
        return self.brokers.ingest_all(self.users, self.catalog)
