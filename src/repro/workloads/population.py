"""Population generation: personas -> platform users + broker records.

The builder creates platform users from personas, attaches synthetic PII,
sets platform-computed attributes directly (the platform "computes" them
from activity, which the simulation abstracts), and writes data-broker
records keyed by the same PII. Calling :meth:`PopulationBuilder.finalize`
runs the broker ingest pipeline, which PII-matches records onto users and
sets their partner attributes — the exact pipeline the paper's Treads make
visible.

Everything is driven by one seeded ``random.Random``, so populations are
reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.platform.attributes import Attribute, AttributeKind
from repro.platform.colstore import UserView
from repro.platform.databroker import IngestReport
from repro.platform.platform import AdPlatform
from repro.workloads.personas import Persona

_ZIP_POOL = tuple(f"{z:05d}" for z in range(10001, 10051))


class _CatalogPools:
    """The catalog's attribute pools for one spawn call.

    Scanning the ~1,100-attribute catalog costs more than the user it
    feeds, so each :class:`PopulationBuilder` spawn call takes the pools
    once: the binary platform attributes, the multi attributes, and per
    persona-family tuple the partner attributes split into the persona's
    families and the rest (both in catalog order). They are never kept
    across calls, because the catalog may change between calls.
    """

    __slots__ = ("country", "binary", "multi", "_partner", "_splits")

    def __init__(self, platform: AdPlatform) -> None:
        catalog = platform.catalog
        self.country = country = platform.config.country
        self.binary = [
            attribute
            for attribute in catalog.platform_attributes(country)
            if attribute.kind is AttributeKind.BINARY
        ]
        self.multi = catalog.multi_attributes(country)
        self._partner = catalog.partner_attributes(country)
        self._splits: Dict[Tuple[str, ...],
                           Tuple[List[Attribute], List[Attribute]]] = {}

    def partner_split(self, families: Tuple[str, ...]
                      ) -> Tuple[List[Attribute], List[Attribute]]:
        """(in ``families``, not in them) — shared lists; copy before
        shuffling."""
        split = self._splits.get(families)
        if split is None:
            preferred: List[Attribute] = []
            rest: List[Attribute] = []
            for attribute in self._partner:
                if attribute.attr_id.startswith(families):
                    preferred.append(attribute)
                else:
                    rest.append(attribute)
            split = self._splits[families] = (preferred, rest)
        return split


@dataclass
class PopulationBuilder:
    """Builds a persona-mixed population on one platform.

    Each ``spawn``/``spawn_mix``/``spawn_stream`` call reads the
    catalog's attribute pools once (not once per user), so attributes
    added to or removed from the catalog take effect from the next call.
    """

    platform: AdPlatform
    seed: int = 42
    broker_name: str = "Acxiom"

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self._record_counter = 0
        #: user_id -> persona name (simulation-level ground truth).
        self.persona_of: Dict[str, str] = {}

    # ------------------------------------------------------------------

    def spawn(self, persona: Persona, count: int = 1) -> List[UserView]:
        """Create ``count`` users of one persona (broker records staged,
        not yet ingested — call :meth:`finalize`)."""
        pools = _CatalogPools(self.platform)
        return [self._spawn_one(persona, pools) for _ in range(count)]

    def spawn_mix(
        self,
        personas: Sequence[Persona],
        count: int,
        weights: Optional[Sequence[float]] = None,
    ) -> List[UserView]:
        """Create ``count`` users drawn from a persona mix."""
        chosen = self._rng.choices(
            list(personas), weights=list(weights) if weights else None,
            k=count,
        )
        pools = _CatalogPools(self.platform)
        return [self._spawn_one(persona, pools) for persona in chosen]

    def spawn_stream(
        self,
        personas: Sequence[Persona],
        count: int,
        weights: Optional[Sequence[float]] = None,
        chunk_size: int = 10_000,
        track_personas: bool = False,
    ) -> Iterator[List[str]]:
        """Create ``count`` users from a persona mix, yielding user-id
        chunks instead of materializing profile objects.

        This is the bounded-memory path for million-user populations:
        each chunk holds ``chunk_size`` id strings, never a list of
        profiles, and persona ground truth is skipped unless
        ``track_personas`` is set (a million-entry ``persona_of`` dict
        defeats the point). Against a columnar user store the per-user
        cost is one appended row; the flyweight views created along the
        way are garbage the moment the chunk is yielded.

        The population is deterministic in ``(seed, chunk_size)``. It
        matches ``spawn_mix`` exactly when one chunk covers the whole
        count; smaller chunks interleave the persona draws and per-user
        draws differently, which reorders the RNG stream (still
        reproducible, just not draw-for-draw identical to the batch
        path).
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        pool = list(personas)
        weight_list = list(weights) if weights else None
        pools = _CatalogPools(self.platform)
        remaining = count
        while remaining > 0:
            take = min(chunk_size, remaining)
            chosen = self._rng.choices(pool, weights=weight_list, k=take)
            chunk = []
            for persona in chosen:
                user = self._spawn_one(persona, pools,
                                       track=track_personas)
                chunk.append(user.user_id)
            yield chunk
            remaining -= take

    def finalize(self) -> List[IngestReport]:
        """Run the broker ingest pipeline; returns per-broker reports."""
        return self.platform.ingest_brokers()

    # ------------------------------------------------------------------

    def _spawn_one(self, persona: Persona, pools: _CatalogPools,
                   track: bool = True) -> UserView:
        rng = self._rng
        user = self.platform.register_user(
            country=pools.country,
            age=rng.randint(*persona.age_range),
            gender=rng.choice(persona.genders),
            zip_code=rng.choice(_ZIP_POOL),
        )
        if track:
            self.persona_of[user.user_id] = persona.name
        pii = self._attach_pii(user, persona)
        self._set_platform_attributes(user, persona, pools)
        if rng.random() < persona.broker_coverage:
            self._stage_broker_record(persona, pii, pools)
        return user

    def _attach_pii(
        self, user: UserView, persona: Persona
    ) -> List[Tuple[str, str]]:
        """Synthesize raw PII and register it with the platform.

        The raw values are derived from the user id, so tests can
        re-derive them; the platform stores only hashes. Every user id
        gets its own phone (``+1617555XXXX`` below 10,000 users, then
        counting on), so a broker record never matches a stranger.
        """
        suffix = user.user_id.rsplit("-", 1)[-1]
        raw_values = {
            "email": f"user{suffix}@example.com",
            "phone": f"+1617{5550000 + int(suffix):07d}",
            "first_name": f"First{suffix}",
            "last_name": f"Last{suffix}",
            "zip": user.zip_code,
        }
        attached = []
        for kind in persona.pii_kinds:
            value = raw_values[kind]
            self.platform.users.attach_pii(user.user_id, kind, value)
            attached.append((kind, value))
        return attached

    def _set_platform_attributes(self, user: UserView, persona: Persona,
                                 pools: _CatalogPools) -> None:
        rng = self._rng
        binary_pool = pools.binary
        count = rng.randint(*persona.platform_attr_range)
        count = min(count, len(binary_pool))
        for attribute in rng.sample(binary_pool, count):
            user.set_attribute(attribute)
        for attribute in pools.multi:
            user.set_attribute(attribute, rng.choice(attribute.values))

    def _stage_broker_record(
        self,
        persona: Persona,
        pii: List[Tuple[str, str]],
        pools: _CatalogPools,
    ) -> None:
        """Write one broker record carrying this persona's partner attrs."""
        rng = self._rng
        count = rng.randint(*persona.partner_attr_range)
        if count == 0 or not pii:
            return
        chosen = self._choose_partner_attributes(persona, count, pools)
        if not chosen:
            return
        broker = self.platform.brokers.broker(self.broker_name)
        self._record_counter += 1
        broker.add_record(
            record_id=f"rec-{self.seed}-{self._record_counter:06d}",
            raw_pii=pii,
            attributes=[(attribute.attr_id, None) for attribute in chosen],
        )

    def _choose_partner_attributes(
        self, persona: Persona, count: int, pools: _CatalogPools
    ) -> List[Attribute]:
        """Prefer the persona's families; avoid contradictory picks within
        one exclusive family (one net-worth band, not three)."""
        rng = self._rng
        preferred, rest = pools.partner_split(persona.partner_families)
        preferred = list(preferred)
        rest = list(rest)
        rng.shuffle(preferred)
        rng.shuffle(rest)
        chosen: List[Attribute] = []
        used_exclusive: set = set()
        for attribute in preferred + rest:
            if len(chosen) >= count:
                break
            family = _exclusive_family(attribute.attr_id)
            if family is not None:
                if family in used_exclusive:
                    continue
                used_exclusive.add(family)
            chosen.append(attribute)
        return chosen


#: Families where a consumer realistically holds exactly one value.
_EXCLUSIVE_FAMILIES = ("pc-networth", "pc-income", "pc-hometype",
                       "pc-homevalue", "pc-jobrole")


def _exclusive_family(attr_id: str) -> Optional[str]:
    for family in _EXCLUSIVE_FAMILIES:
        if attr_id.startswith(family):
            return family
    return None


def ground_truth_partner_attrs(
    platform: AdPlatform, user_ids: Sequence[str]
) -> Dict[str, set]:
    """Simulation-level ground truth: user_id -> set partner attr ids.

    Used only for scoring reveals — never by any provider/advertiser code.
    """
    partner_ids = {
        attribute.attr_id
        for attribute in platform.catalog.partner_attributes()
    }
    truth: Dict[str, set] = {}
    for user_id in user_ids:
        profile = platform.users.get(user_id)
        truth[user_id] = set(profile.binary_attrs) & partner_ids
    return truth
