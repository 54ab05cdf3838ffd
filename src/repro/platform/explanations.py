"""Platform-generated "Why am I seeing this ad?" explanations.

Platforms attach an explanation, *generated by the platform*, to each ad
(paper section 2.2). Prior work cited by the paper ([1]) showed Facebook's
explanations are deliberately incomplete in two ways the Treads argument
depends on, and this module reproduces both:

1. **at most one attribute** is revealed, "even when the advertiser is
   allowed to specify any number" — and it is the most *prevalent*
   (largest-audience) one, i.e. the least specific;
2. **partner (data-broker) attributes are never mentioned**; targeting via
   them yields only a generic explanation.

PII/custom-audience targeting is explained only as "the advertiser wants
to reach people on their customer list", naming neither the list nor which
PII matched (section 2.2: platforms do not reveal "which of their PII
particular advertisers are using").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.platform.ads import Ad, AdInventory
from repro.platform.attributes import AttributeCatalog, AttributeSource
from repro.platform.targeting import (
    AgeBetween,
    GenderIs,
    InAudience,
    InCountry,
    LikesPage,
)
from repro.platform.colstore import ColumnarUserStore
from repro.platform.users import UserProfile


@dataclass(frozen=True)
class AdExplanation:
    """The explanation text plus the structured bits tests assert on."""

    ad_id: str
    text: str
    #: The single attribute id mentioned, if any (never a partner attr).
    revealed_attribute: Optional[str]
    #: Whether custom-audience targeting was acknowledged generically.
    mentions_customer_list: bool
    #: Demographic clauses included (always generic, e.g. "ages 25-34").
    demographic_clauses: Tuple[str, ...]


class ExplanationService:
    """Builds the platform's partial explanations."""

    def __init__(self, catalog: AttributeCatalog, users: ColumnarUserStore,
                 inventory: AdInventory):
        self._catalog = catalog
        self._users = users
        self._inventory = inventory

    def _prevalence(self, attr_id: str) -> int:
        """How many platform users carry an attribute.

        The platform explains with the *most common* attribute — the
        vaguest possible truthful statement ([1]).
        """
        return len(self._users.users_with_attribute(attr_id))

    def explain(self, ad_id: str, user: UserProfile) -> AdExplanation:
        """Explanation for why ``user`` saw ``ad_id``."""
        ad = self._inventory.ad(ad_id)
        spec = ad.targeting

        candidate_ids: List[str] = []
        for attr_id in spec.positively_targeted_attributes():
            attribute = self._catalog.get(attr_id)
            if attribute.source is AttributeSource.PARTNER:
                continue  # never revealed — the gap Treads fills
            if user.has_attribute(attr_id):
                candidate_ids.append(attr_id)

        revealed: Optional[str] = None
        if candidate_ids:
            revealed = max(candidate_ids, key=self._prevalence)

        demographic_clauses = self._demographic_clauses(ad)
        mentions_list = any(
            isinstance(node, (InAudience, LikesPage))
            for node in spec.expr.walk()
        )

        clauses: List[str] = []
        if revealed is not None:
            clauses.append(
                f"you may be interested in {self._catalog.get(revealed).name!r}"
            )
        clauses.extend(demographic_clauses)
        if mentions_list and not clauses:
            clauses.append(
                "the advertiser wants to reach people on their customer list "
                "or people similar to them"
            )
        if not clauses:
            clauses.append(
                "the advertiser wants to reach people like you"
            )
        text = (
            f"You're seeing this ad because " + " and ".join(clauses) + "."
        )
        return AdExplanation(
            ad_id=ad_id,
            text=text,
            revealed_attribute=revealed,
            mentions_customer_list=mentions_list,
            demographic_clauses=tuple(demographic_clauses),
        )

    def _demographic_clauses(self, ad: Ad) -> List[str]:
        clauses: List[str] = []
        for node in ad.targeting.expr.walk():
            if isinstance(node, AgeBetween):
                clauses.append(
                    f"you're between the ages of {node.min_age} and "
                    f"{node.max_age}"
                )
            elif isinstance(node, InCountry):
                clauses.append(f"you live in {node.country}")
            elif isinstance(node, GenderIs):
                clauses.append("your gender matches the ad's audience")
        return clauses
