"""Differential-correlation auditing (the XRay / Sunlight baseline).

Paper section 5: prior outside-in transparency systems "work by
correlating information about users with the ads that they see, in order
to determine whether ads are targeted and how. ... they can also be
challenging to deploy, requiring either a large diverse population to
sign-up ... or a large number of (fake) control accounts ... to make
statistically significant claims."

The auditor here is a faithful miniature of that methodology: it creates
``k`` control accounts whose attribute assignments it fully controls,
lets delivery run, and then — for each observed ad — infers the targeted
attribute as the one whose presence best separates receivers from
non-receivers. Benchmark E8 traces inference accuracy against ``k`` and
sets it beside Treads' exact, single-account reveal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.platform.attributes import Attribute
from repro.platform.colstore import UserView
from repro.platform.platform import AdPlatform


@dataclass(frozen=True)
class InferenceOutcome:
    """The auditor's verdict for one ad."""

    ad_id: str
    inferred_attr_id: Optional[str]
    #: Separation score of the winning hypothesis in [0, 1].
    confidence: float


class CorrelationAuditor:
    """An XRay/Sunlight-style auditor running fake control accounts."""

    def __init__(self, platform: AdPlatform, seed: int = 13):
        self._platform = platform
        self._rng = random.Random(seed)
        self.controls: List[UserView] = []
        #: Auditor-side ground truth: user_id -> set of planted attr ids.
        self.planted: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------

    def create_controls(
        self,
        count: int,
        attribute_pool: Sequence[Attribute],
        set_probability: float = 0.5,
    ) -> List[UserView]:
        """Create ``count`` fake accounts with random known attributes.

        Each control independently gets each pool attribute with
        ``set_probability`` — the randomized design the correlation test
        needs for identifiability.
        """
        created = []
        for _ in range(count):
            user = self._platform.register_user(
                age=self._rng.randint(21, 60),
                gender=self._rng.choice(("male", "female")),
            )
            mine: Set[str] = set()
            for attribute in attribute_pool:
                if self._rng.random() < set_probability:
                    user.set_attribute(attribute)
                    mine.add(attribute.attr_id)
            self.planted[user.user_id] = mine
            self.controls.append(user)
            created.append(user)
        return created

    # ------------------------------------------------------------------

    def receivers_of(self, ad_id: str) -> Set[str]:
        """Which control accounts saw an ad (auditor-observable: the
        auditor owns these accounts and reads their feeds)."""
        receivers = set()
        for control in self.controls:
            feed = self._platform.feed(control.user_id)
            if any(delivered.ad_id == ad_id for delivered in feed):
                receivers.add(control.user_id)
        return receivers

    def infer_targeting(
        self,
        ad_id: str,
        hypothesis_pool: Sequence[Attribute],
    ) -> InferenceOutcome:
        """Best-separating-attribute inference for one ad.

        For each hypothesis attribute, score how well "control received ad
        iff control has attribute" matches observations (balanced
        accuracy). Noise — auction losses among receivers-to-be — makes
        the rule imperfect, which is why few controls yield ambiguous
        verdicts.
        """
        receivers = self.receivers_of(ad_id)
        best_attr: Optional[str] = None
        best_score = -1.0
        for attribute in hypothesis_pool:
            have = {
                user_id for user_id, attrs in self.planted.items()
                if attribute.attr_id in attrs
            }
            lack = set(self.planted) - have
            true_pos = len(receivers & have)
            true_neg = len(lack - receivers)
            sensitivity = true_pos / len(have) if have else 0.0
            specificity = true_neg / len(lack) if lack else 0.0
            score = (sensitivity + specificity) / 2.0
            # Deterministic tie-break by id keeps runs reproducible; a tie
            # is genuine ambiguity and typically a wrong answer at small k.
            if score > best_score or (
                score == best_score
                and best_attr is not None
                and attribute.attr_id < best_attr
            ):
                best_attr = attribute.attr_id
                best_score = score
        return InferenceOutcome(
            ad_id=ad_id,
            inferred_attr_id=best_attr,
            confidence=max(best_score, 0.0),
        )

    def accuracy(
        self,
        ads_truth: Dict[str, str],
        hypothesis_pool: Sequence[Attribute],
    ) -> float:
        """Fraction of ads whose targeted attribute was inferred right.

        ``ads_truth`` maps ad_id -> truly targeted attr_id (experiment
        harness ground truth).
        """
        if not ads_truth:
            return 0.0
        correct = 0
        for ad_id, truth in ads_truth.items():
            outcome = self.infer_targeting(ad_id, hypothesis_pool)
            if outcome.inferred_attr_id == truth:
                correct += 1
        return correct / len(ads_truth)

    @property
    def accounts_used(self) -> int:
        """Deployment cost in fake accounts (Treads: one real account)."""
        return len(self.controls)

    def significance(self, ad_id: str, attr_id: str) -> float:
        """Fisher-exact p-value for "ad delivery depends on attribute".

        Sunlight's whole contribution (paper section 5) is attaching
        statistical confidence to such claims — which "requir[es] ... a
        large number of (fake) control accounts to make statistically
        significant claims". The 2x2 table is (has attribute) x (received
        ad) over the control population; with one or two controls the
        p-value cannot drop below conventional thresholds no matter how
        clean the data, which is exactly the deployment-cost point.
        """
        from scipy.stats import fisher_exact

        receivers = self.receivers_of(ad_id)
        have = {user_id for user_id, attrs in self.planted.items()
                if attr_id in attrs}
        lack = set(self.planted) - have
        table = [
            [len(receivers & have), len(have - receivers)],
            [len(receivers & lack), len(lack - receivers)],
        ]
        _, p_value = fisher_exact(table, alternative="greater")
        return float(p_value)

    def significant_inferences(
        self,
        ads_truth: Dict[str, str],
        hypothesis_pool: Sequence[Attribute],
        alpha: float = 0.05,
    ) -> int:
        """How many ads get a CORRECT inference that is also significant
        at level ``alpha`` — the Sunlight-style success criterion."""
        count = 0
        for ad_id, truth in ads_truth.items():
            outcome = self.infer_targeting(ad_id, hypothesis_pool)
            if outcome.inferred_attr_id != truth:
                continue
            if self.significance(ad_id, truth) <= alpha:
                count += 1
        return count
