"""The transparency provider.

"We envisage that Treads will be run by an entity, such as a non-profit,
with the goal of revealing to users what information has been collected
about them by various advertising platforms" (paper section 1). The
provider is an *ordinary advertiser*: it opens an account, collects
opt-ins, plans one Tread per targeting parameter, launches them, and reads
back only the platform's aggregate reports.

:class:`TransparencyProvider` is the orchestrator; the decode pack it
publishes (:class:`DecodePack`) is everything an opted-in user's extension
needs: the codebook, value tables for multi-valued attributes, and the
provider's identifiers so the extension can recognise provider ads.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import planner
from repro.core.codebook import Codebook
from repro.core.creative import RenderedCreative, render
from repro.core.optin import OptInManager
from repro.core.treads import (
    Encoding,
    Placement,
    RevealKind,
    RevealPayload,
    Tread,
)
from repro.errors import ProviderError
from repro.obs import tracing as obs_tracing
from repro.obs.metrics import bind as _obs_bind
from repro.platform.ads import AdStatus
from repro.platform.attributes import Attribute, AttributeKind
from repro.platform.audiences import Audience
from repro.platform.platform import AdPlatform
from repro.platform.reporting import AdPerformanceReport
from repro.platform.web import WebDirectory

_log = logging.getLogger("repro.core.provider")

_obs_provider = _obs_bind(lambda reg: (
    reg.counter("provider.treads_launched"),
    reg.counter("provider.treads_rejected"),
    reg.counter("provider.decode_packs_published"),
))


@dataclass(frozen=True)
class DecodePack:
    """What the provider publishes to opted-in users at sign-up.

    "the provider can share the mapping of targeting information to
    encodings with users when they opt-in" (section 3.1). The pack is all
    public-to-subscribers data; it contains nothing user-specific.
    """

    provider_name: str
    codebook_snapshot: Dict[str, str]
    codebook_salt: str
    #: attr_id -> ordered value table, for bit-split reconstruction.
    value_tables: Dict[str, Tuple[str, ...]]
    #: Advertiser account ids the provider runs, per platform name.
    account_ids: Dict[str, str]
    #: Domains whose landing pages carry Tread payloads.
    landing_domains: Tuple[str, ...]


@dataclass
class LaunchReport:
    """Outcome of launching a batch of Treads."""

    treads: List[Tread] = field(default_factory=list)

    @property
    def launched(self) -> List[Tread]:
        return [t for t in self.treads if t.launched]

    @property
    def rejected(self) -> List[Tread]:
        return [t for t in self.treads if t.rejected]

    @property
    def launch_rate(self) -> float:
        if not self.treads:
            return 0.0
        return len(self.launched) / len(self.treads)


class TransparencyProvider:
    """A transparency provider operating on one platform.

    Parameters
    ----------
    platform:
        The ad platform to operate on.
    web:
        The shared off-platform web directory (the provider registers its
        website here).
    name:
        Provider name; also seeds ids, the website domain, and the
        codebook salt.
    budget:
        Initial ad-account deposit in dollars.
    encoding, placement:
        Default Tread rendering mode (overridable per launch).
    bid_cap_cpm:
        Default bid cap; the paper's validation used $10 CPM (5x the $2
        default) "to increase the chances of these ads winning".
    codebook:
        Pass a shared codebook when several accounts jointly run one
        logical campaign (the crowdsourced provider of section 4).
    """

    def __init__(
        self,
        platform: AdPlatform,
        web: WebDirectory,
        name: str = "transparency-project",
        budget: float = 1000.0,
        encoding: Encoding = Encoding.CODEBOOK,
        placement: Placement = Placement.IN_AD_TEXT,
        bid_cap_cpm: float = 10.0,
        codebook: Optional[Codebook] = None,
        website_domain: Optional[str] = None,
    ):
        self.platform = platform
        self.name = name
        self.default_encoding = encoding
        self.default_placement = placement
        self.bid_cap_cpm = bid_cap_cpm
        self.account = platform.create_ad_account(name, budget=budget)
        self.campaign = platform.create_campaign(
            self.account.account_id, name=f"{name}-treads"
        )
        self.page = platform.create_page(
            self.account.account_id, name=f"{name} updates"
        )
        domain = website_domain or f"{name}.example.org"
        if domain in web:
            self.website = web.resolve(domain)
        else:
            self.website = web.create_site(domain, owner=name)
        self.codebook = codebook if codebook is not None else Codebook(salt=name)
        self.optin = OptInManager(
            platform=platform,
            account_id=self.account.account_id,
            website=self.website,
            page_id=self.page.page_id,
        )
        self.treads: List[Tread] = []
        self._value_tables: Dict[str, Tuple[str, ...]] = {}
        self._pixel_audience: Optional[Audience] = None

    # ------------------------------------------------------------------
    # audiences
    # ------------------------------------------------------------------

    def page_audience_term(self) -> str:
        """Targeting term for the page-like opt-in route (the validation's
        route: "connections" targeting has no minimum audience size)."""
        return f"page:{self.page.page_id}"

    def pixel_audience_term(self) -> str:
        """Targeting term for the anonymous-pixel route.

        Creates the website custom audience on first use. Subject to the
        platform's minimum-audience-size gate at ad submission.
        """
        if self._pixel_audience is None:
            self._pixel_audience = self.platform.create_pixel_audience(
                self.account.account_id,
                self.optin.optin_pixel.pixel_id,
                name=f"{self.name} opt-ins",
            )
        return f"audience:{self._pixel_audience.audience_id}"

    # ------------------------------------------------------------------
    # launching
    # ------------------------------------------------------------------

    def launch(self, treads: Sequence[Tread],
               bid_cap_cpm: Optional[float] = None) -> LaunchReport:
        """Render and submit a batch of planned Treads.

        Review rejections are recorded on the Tread (``rejected`` +
        ``review_note``) rather than raised: a provider sweeping 507
        attributes wants the batch outcome, not an exception on ad 14.
        """
        report = LaunchReport()
        bid = bid_cap_cpm if bid_cap_cpm is not None else self.bid_cap_cpm
        with obs_tracing.tracer().span("provider.launch",
                                       provider=self.name,
                                       batch=len(treads)):
            for tread in treads:
                rendered = self._render(tread)
                self._publish_landing(rendered, tread)
                ad = self.platform.submit_ad(
                    account_id=self.account.account_id,
                    campaign_id=self.campaign.campaign_id,
                    creative=rendered.creative,
                    targeting=tread.targeting_text,
                    bid_cap_cpm=bid,
                )
                tread.ad_id = ad.ad_id
                tread.token = rendered.token
                if ad.status is AdStatus.REJECTED:
                    tread.rejected = True
                    tread.review_note = ad.review_note
                report.treads.append(tread)
                self.treads.append(tread)
        launched_c, rejected_c, _ = _obs_provider()
        launched_c.inc(len(report.launched))
        rejected_c.inc(len(report.rejected))
        _log.info("provider %r launched %d treads (%d rejected)",
                  self.name, len(report.launched), len(report.rejected))
        return report

    def _render(self, tread: Tread) -> RenderedCreative:
        return render(
            payload=tread.payload,
            encoding=tread.encoding,
            placement=tread.placement,
            codebook=self.codebook,
            landing_domain=self.website.domain,
        )

    def _publish_landing(self, rendered: RenderedCreative,
                         tread: Tread) -> None:
        if rendered.landing_path is None:
            return
        self.website.add_page(
            rendered.landing_path,
            content=rendered.landing_content or "",
        )
        tread.landing_path = rendered.landing_path

    # -- campaign shapes ------------------------------------------------------

    def launch_partner_sweep(
        self,
        audience_term: Optional[str] = None,
        encoding: Optional[Encoding] = None,
        placement: Optional[Placement] = None,
        include_exclusions: bool = False,
        bid_cap_cpm: Optional[float] = None,
    ) -> LaunchReport:
        """The paper's validation campaign: one Tread per US partner
        category (507 ads) plus the control ad."""
        attributes = self.platform.catalog.partner_attributes(
            self.account.country
        )
        return self.launch_attribute_sweep(
            attributes,
            audience_term=audience_term,
            encoding=encoding,
            placement=placement,
            include_exclusions=include_exclusions,
            bid_cap_cpm=bid_cap_cpm,
        )

    def launch_attribute_sweep(
        self,
        attributes: Sequence[Attribute],
        audience_term: Optional[str] = None,
        encoding: Optional[Encoding] = None,
        placement: Optional[Placement] = None,
        include_exclusions: bool = False,
        include_control: bool = True,
        bid_cap_cpm: Optional[float] = None,
    ) -> LaunchReport:
        """One Tread per binary attribute in ``attributes``."""
        treads = planner.binary_sweep(
            [a for a in attributes if a.kind is AttributeKind.BINARY],
            audience_term or self.page_audience_term(),
            encoding or self.default_encoding,
            placement or self.default_placement,
            include_exclusions=include_exclusions,
            include_control=include_control,
        )
        return self.launch(treads, bid_cap_cpm=bid_cap_cpm)

    def launch_value_reveal(
        self,
        attr_id: str,
        scheme: str = "bitsplit",
        audience_term: Optional[str] = None,
        encoding: Optional[Encoding] = None,
        placement: Optional[Placement] = None,
        bid_cap_cpm: Optional[float] = None,
    ) -> LaunchReport:
        """Reveal a multi-valued attribute via enumeration or bit-split."""
        attribute = self.platform.catalog.get(attr_id)
        term = audience_term or self.page_audience_term()
        enc = encoding or self.default_encoding
        plc = placement or self.default_placement
        if scheme == "bitsplit":
            treads = planner.value_bitsplit(attribute, term, enc, plc)
        elif scheme == "enumeration":
            treads = planner.value_enumeration(attribute, term, enc, plc)
        else:
            raise ProviderError(f"unknown value-reveal scheme {scheme!r}")
        self._value_tables[attr_id] = tuple(attribute.values)
        return self.launch(treads, bid_cap_cpm=bid_cap_cpm)

    #: Synthetic attribute ids for demographic reveals (these live outside
    #: the advertiser catalog — they are profile fields targeted via the
    #: dedicated age/zip predicates).
    AGE_ATTR_ID = "demographic:age"
    ZIP_ATTR_ID = "demographic:zip"

    def launch_age_reveal(
        self,
        min_age: int = 13,
        max_age: int = 109,
        audience_term: Optional[str] = None,
        bid_cap_cpm: Optional[float] = None,
    ) -> LaunchReport:
        """The paper's Scale example made concrete: reveal the user's
        exact age with ceil(log2 m) Treads (m = 97 for ages 13..109).

        Bit b's Tread targets the OR of the single-year age ranges whose
        value index has bit b set; a recipient's received-bit pattern
        reconstructs their age via the published value table.
        """
        if min_age > max_age:
            raise ProviderError("age range inverted")
        from repro.core.bitsplit import bits_needed, values_with_bit

        ages = [str(age) for age in range(min_age, max_age + 1)]
        term = audience_term or self.page_audience_term()
        treads: List[Tread] = []
        for bit_index in range(bits_needed(len(ages))):
            matching = values_with_bit(ages, bit_index)
            clauses = [f"age:{age}-{age}" for age in matching]
            or_term = clauses[0] if len(clauses) == 1 \
                else "(" + " | ".join(clauses) + ")"
            payload = RevealPayload(
                kind=RevealKind.VALUE_BIT,
                attr_id=self.AGE_ATTR_ID,
                bit_index=bit_index,
                bit_value=1,
                display="age",
            )
            treads.append(Tread(
                payload=payload,
                encoding=self.default_encoding,
                placement=self.default_placement,
                targeting_text=f"{or_term} & {term}",
            ))
        self._value_tables[self.AGE_ATTR_ID] = tuple(ages)
        return self.launch(treads, bid_cap_cpm=bid_cap_cpm)

    def launch_location_reveal(
        self,
        zip_codes: Sequence[str],
        audience_term: Optional[str] = None,
        bid_cap_cpm: Optional[float] = None,
    ) -> LaunchReport:
        """Reveal which of ``zip_codes`` the platform locates a user in.

        Section 3.1: "a Tread can reveal whether the attribute is set to a
        particular value for the user (e.g., whether a user is determined
        to have recently visited a particular ZIP code)". One Tread per
        candidate ZIP; each user receives at most one (their own), so the
        per-user cost stays one impression regardless of the candidate
        count.
        """
        if not zip_codes:
            raise ProviderError("need at least one ZIP code")
        term = audience_term or self.page_audience_term()
        treads: List[Tread] = []
        for zip_code in zip_codes:
            payload = RevealPayload(
                kind=RevealKind.VALUE_IS,
                attr_id=self.ZIP_ATTR_ID,
                value=zip_code,
                display="ZIP code",
            )
            treads.append(Tread(
                payload=payload,
                encoding=self.default_encoding,
                placement=self.default_placement,
                targeting_text=f"zip:{zip_code} & {term}",
            ))
        self._value_tables[self.ZIP_ATTR_ID] = tuple(zip_codes)
        return self.launch(treads, bid_cap_cpm=bid_cap_cpm)

    def launch_pii_reveals(
        self,
        bid_cap_cpm: Optional[float] = None,
    ) -> LaunchReport:
        """One Tread per collected PII kind, at a PII audience built from
        the opted-in users' hashes (section 3.1, "Supporting PII")."""
        treads: List[Tread] = []
        for kind in self.optin.pii_kinds():
            batch = self.optin.pii_batch(kind)
            audience = self.platform.create_pii_audience(
                self.account.account_id,
                batch,
                name=f"{self.name} pii:{kind}",
            )
            treads.append(
                planner.pii_reveal_tread(
                    pii_kind=kind,
                    audience_id=audience.audience_id,
                    batch_label=audience.audience_id,
                    encoding=self.default_encoding,
                    placement=self.default_placement,
                )
            )
        return self.launch(treads, bid_cap_cpm=bid_cap_cpm)

    def launch_keyword_reveal(
        self,
        label: str,
        phrases: Sequence[str],
        audience_term: Optional[str] = None,
        bid_cap_cpm: Optional[float] = None,
    ) -> LaunchReport:
        """Reveal membership in a keyword (custom intent) audience.

        Google-style platforms match users to advertiser-supplied phrases
        internally (section 2.1); the platform never tells users they were
        matched. One Tread at ``keyword-audience & opted-in`` reveals it:
        recipients learn the platform considers them to match ``phrases``.
        """
        audience = self.platform.create_keyword_audience(
            self.account.account_id, phrases,
            name=f"{self.name} kw:{label}",
        )
        tread = planner.custom_attribute_tread(
            label=label,
            pixel_audience_id=audience.audience_id,
            attribute_term=audience_term or self.page_audience_term(),
            encoding=self.default_encoding,
            placement=self.default_placement,
        )
        return self.launch([tread], bid_cap_cpm=bid_cap_cpm)

    def launch_custom_attribute(
        self,
        label: str,
        attribute_term: str,
        bid_cap_cpm: Optional[float] = None,
    ) -> LaunchReport:
        """Per-attribute pixel opt-in reveal (section 3.1)."""
        optin = self.optin.custom_optin_page(label)
        audience = self.platform.create_pixel_audience(
            self.account.account_id,
            optin.pixel.pixel_id,
            name=f"{self.name} custom:{label}",
        )
        tread = planner.custom_attribute_tread(
            label=label,
            pixel_audience_id=audience.audience_id,
            attribute_term=attribute_term,
            encoding=self.default_encoding,
            placement=self.default_placement,
        )
        return self.launch([tread], bid_cap_cpm=bid_cap_cpm)

    # ------------------------------------------------------------------
    # what the provider can see afterwards
    # ------------------------------------------------------------------

    def publish_decode_pack(self) -> DecodePack:
        """The subscriber bundle: codebook + value tables + identifiers."""
        _obs_provider()[2].inc()
        return DecodePack(
            provider_name=self.name,
            codebook_snapshot=self.codebook.snapshot(),
            codebook_salt=self.codebook.salt,
            value_tables=dict(self._value_tables),
            account_ids={self.platform.name: self.account.account_id},
            landing_domains=(self.website.domain,),
        )

    def estimate_sweep_cost(
        self,
        attributes: Sequence[Attribute],
        audience_term: Optional[str] = None,
        bid_cap_cpm: Optional[float] = None,
        include_control: bool = True,
    ) -> float:
        """Pre-launch worst-case cost estimate for an attribute sweep.

        Uses the platform's rounded potential-reach numbers (the only
        size signal an advertiser gets) times the bid cap per impression.
        Because small audiences are reported as "below floor", and the
        second-price auction charges at most the cap, the estimate is an
        upper bound — a provider budgeting this much cannot be surprised.
        """
        term = audience_term or self.page_audience_term()
        bid = bid_cap_cpm if bid_cap_cpm is not None else self.bid_cap_cpm
        per_impression = bid / 1000.0
        total = 0.0
        specs = [f"attr:{a.attr_id} & {term}" for a in attributes]
        if include_control:
            specs.append(term)
        for spec_text in specs:
            estimate = self.platform.estimate_spec_reach(
                self.account.account_id, spec_text
            )
            total += estimate.displayed * per_impression
        return total

    def performance_reports(self) -> List[AdPerformanceReport]:
        """Everything the platform tells the provider about its Treads."""
        return self.platform.reports(self.account.account_id)

    def aggregate_attribute_counts(self) -> Dict[str, int]:
        """Per-attribute reach counts, the provider's entire knowledge:
        "the transparency provider can estimate how many of the opted-in
        users have a particular attribute" (section 3.1)."""
        counts: Dict[str, int] = {}
        by_ad = {t.ad_id: t for t in self.treads if t.ad_id}
        for report in self.performance_reports():
            tread = by_ad.get(report.ad_id)
            if tread is None or tread.payload.attr_id is None:
                continue
            if tread.payload.kind is RevealKind.ATTRIBUTE_SET:
                counts[tread.payload.attr_id] = report.reach
        return counts

    def prevalence_estimates(self) -> Dict[str, object]:
        """Per-attribute prevalence with Wilson 95% intervals.

        Provider-side statistics over provider-visible numbers only: the
        denominator is the control ad's reach (the provable count of
        reachable subscribers), the numerator each attribute Tread's
        reach. Empty until a control ad has reached someone.
        """
        from repro.analysis.stats import prevalence_estimate

        control_reach = 0
        by_ad = {t.ad_id: t for t in self.treads if t.ad_id}
        for report in self.performance_reports():
            tread = by_ad.get(report.ad_id)
            if tread is not None and \
                    tread.payload.kind is RevealKind.CONTROL:
                control_reach = max(control_reach, report.reach)
        if control_reach == 0:
            return {}
        return {
            attr_id: prevalence_estimate(min(count, control_reach),
                                         control_reach)
            for attr_id, count in self.aggregate_attribute_counts().items()
        }

    def total_spend(self) -> float:
        return self.platform.invoice(self.account.account_id).total

    def total_impressions(self) -> int:
        return self.platform.invoice(self.account.account_id).impressions

    def run_delivery(self, max_rounds: int = 50,
                     sweep_workers: Optional[int] = None) -> None:
        """Drive the platform until the Tread campaign saturates.

        Runs the platform's batch sweep (:meth:`AdPlatform.run_sweep`);
        ``sweep_workers`` is its worker-count speed hint."""
        with obs_tracing.tracer().span("provider.run_delivery",
                                       max_rounds=max_rounds):
            self.platform.run_sweep(max_rounds=max_rounds,
                                    workers=sweep_workers)
