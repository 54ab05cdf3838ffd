"""Audiences: PII-based, pixel-based, and page-engagement.

An *audience* is "the resulting set of users" of some targeting criteria
(paper section 2.1). Three audience kinds matter for Treads:

* **PII custom audiences** — the advertiser uploads hashed PII; the
  platform matches it to users internally (``PII-based targeting``). The
  advertiser never learns which hashes matched.
* **Website (pixel) custom audiences** — everyone who fired one of the
  advertiser's tracking pixels. This is the paper's anonymous opt-in.
* **Page audiences** — users who liked one of the advertiser's pages; the
  paper's validation used exactly this ("had the two U.S.-based authors
  sign-up by liking a Facebook page").

Platforms impose a **minimum size** on uploaded/custom audiences before
ads may run against them, precisely to frustrate single-user targeting.
Page-connection targeting historically had no such gate — which is *why*
the validation in the paper opted users in via a page like rather than a
two-person custom audience. The simulator reproduces that asymmetry.

Advertisers only ever see a **rounded reach estimate**
(:class:`ReachEstimate`), never a member list.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import AudienceError, AudienceTooSmallError, StoreError
from repro.platform import bitset
from repro.platform.attributes import AttributeCatalog
from repro.platform.colstore import ColumnarUserStore
from repro.platform.pii import PIIRecord, validate_upload
from repro.platform.pixels import PixelRegistry
from repro.platform.targeting import (
    TargetingSpec, evaluate_packed, lower_spec,
)
from repro.store.records import (
    AudienceDelta,
    ChangeRecord,
    record_from_dict,
    record_to_dict,
)
from repro.store.store import MemoryStore, StateStore


class AudienceKind(enum.Enum):
    PII = "pii"
    PIXEL = "pixel"
    PAGE = "page"
    #: Google-style "custom intent/affinity": the advertiser supplies
    #: keyword phrases and the platform internally matches users (paper
    #: section 2.1).
    KEYWORD = "keyword"
    #: Expansion of a seed audience to "people similar to them" — the
    #: phrasing platform explanations use for customer-list targeting.
    LOOKALIKE = "lookalike"


@dataclass(frozen=True)
class ReachEstimate:
    """What the platform tells an advertiser about an audience's size.

    ``displayed`` is rounded; ``is_floor`` marks "below N" answers for
    small audiences (real platforms report e.g. "Below 1,000" rather than
    an exact small count — one of the aggregation behaviours the Treads
    privacy analysis relies on).
    """

    displayed: int
    is_floor: bool = False

    def __str__(self) -> str:
        if self.is_floor:
            return f"below {self.displayed}"
        return f"~{self.displayed}"


def round_reach(true_size: int, floor: int = 1000, quantum: int = 50) -> ReachEstimate:
    """Round a true audience size the way platforms do.

    Sizes under ``floor`` are reported only as "below floor"; larger sizes
    are rounded to the nearest ``quantum``.
    """
    if true_size < floor:
        return ReachEstimate(displayed=floor, is_floor=True)
    rounded = int(round(true_size / quantum)) * quantum
    return ReachEstimate(displayed=rounded)


@dataclass
class Audience:
    """One audience owned by one advertiser account.

    Membership is resolved lazily for dynamic kinds (pixel, page) so the
    audience always reflects the latest activity; PII audiences are frozen
    at upload-match time, like real customer-list audiences.
    """

    audience_id: str
    owner_account_id: str
    kind: AudienceKind
    name: str = ""
    #: PII audiences: matched user ids, frozen at creation (internal).
    _matched_user_ids: Set[str] = field(default_factory=set, repr=False)
    #: Pixel audiences: the sourcing pixel.
    pixel_id: Optional[str] = None
    #: Page audiences: the sourcing page.
    page_id: Optional[str] = None
    #: Keyword audiences: the advertiser's phrases (what Google calls a
    #: custom intent/affinity definition).
    phrases: Tuple[str, ...] = ()
    #: Lookalike audiences: the seed audience and the minimum number of
    #: shared binary attributes for a user to count as "similar".
    seed_audience_id: Optional[str] = None
    similarity_threshold: int = 0


class AudienceRegistry:
    """Platform-internal audience store and membership resolver.

    A :class:`~repro.store.store.StateOwner`: every audience creation is
    journaled as an :class:`~repro.store.records.AudienceDelta` carrying
    the audience's full config (and, for frozen PII audiences, its
    matched member ids), so a registry can be rebuilt from its journal
    alone. Replaying an identical delta onto a registry that already
    holds the audience is a no-op — a replayed journal may legitimately
    re-describe audiences a rebuilt world already created.
    """

    store_name = "audiences"
    handled_kinds: Tuple[str, ...] = (AudienceDelta.kind,)

    def __init__(
        self,
        users: ColumnarUserStore,
        pixels: PixelRegistry,
        catalog: Optional[AttributeCatalog] = None,
        min_custom_audience_size: int = 20,
        reach_floor: int = 1000,
        reach_quantum: int = 50,
        store: Optional[StateStore] = None,
    ):
        self._users = users
        self._pixels = pixels
        self._catalog = catalog
        self._store = store if store is not None else MemoryStore()
        self._store.attach(self)
        self._audiences: Dict[str, Audience] = {}
        self.min_custom_audience_size = min_custom_audience_size
        self.reach_floor = reach_floor
        self.reach_quantum = reach_quantum
        #: audience_id -> ((users epoch, pixels seq), member count).
        self._count_cache: Dict[str, Tuple[Tuple[int, int], int]] = {}
        #: audience_id -> ((users epoch, pixels seq), member bitset).
        #: The materialized mask itself, shared by reach estimates and
        #: every targeting program's audience leaves
        #: (repro.platform.targeting).
        self._bitset_cache: Dict[str, Tuple[Tuple[int, int], np.ndarray]] = {}

    @property
    def store(self) -> StateStore:
        return self._store

    # -- creation ----------------------------------------------------------

    def create_pii_audience(
        self,
        audience_id: str,
        owner_account_id: str,
        records: Sequence[PIIRecord],
        name: str = "",
    ) -> Audience:
        """Match an upload of hashed PII into a frozen audience.

        The advertiser receives the audience handle and (on request) a
        rounded reach — never the per-record match outcome.
        """
        unique = validate_upload(records)
        matched: Set[str] = set()
        for record in unique:
            matched |= self._users.users_matching_pii(record.kind, record.digest)
        return self._register(
            Audience(
                audience_id=audience_id,
                owner_account_id=owner_account_id,
                kind=AudienceKind.PII,
                name=name,
                _matched_user_ids=matched,
            )
        )

    def create_pixel_audience(
        self,
        audience_id: str,
        owner_account_id: str,
        pixel_id: str,
        name: str = "",
    ) -> Audience:
        """Audience of visitors who fired one of the account's pixels."""
        pixel = self._pixels.get(pixel_id)
        if pixel.owner_account_id != owner_account_id:
            raise AudienceError(
                f"pixel {pixel_id!r} belongs to another advertiser"
            )
        return self._register(
            Audience(
                audience_id=audience_id,
                owner_account_id=owner_account_id,
                kind=AudienceKind.PIXEL,
                name=name,
                pixel_id=pixel_id,
            )
        )

    def create_page_audience(
        self,
        audience_id: str,
        owner_account_id: str,
        page_id: str,
        name: str = "",
    ) -> Audience:
        """Audience of users who liked a page ("connections" targeting)."""
        return self._register(
            Audience(
                audience_id=audience_id,
                owner_account_id=owner_account_id,
                kind=AudienceKind.PAGE,
                name=name,
                page_id=page_id,
            )
        )

    def create_keyword_audience(
        self,
        audience_id: str,
        owner_account_id: str,
        phrases: Sequence[str],
        name: str = "",
    ) -> Audience:
        """Custom intent/affinity audience from keyword phrases.

        "advertisers can specify a series of phrases or URLs that describe
        the users they want to target, which are then internally used by
        Google to create an audience of matching users" (paper section
        2.1). Matching is platform-internal: a user belongs iff any of
        their attributes' names/categories match any phrase. The
        advertiser never learns which attribute matched whom.
        """
        cleaned = tuple(p.strip() for p in phrases if p.strip())
        if not cleaned:
            raise AudienceError("keyword audience needs at least one phrase")
        if self._catalog is None:
            raise AudienceError(
                "this platform does not support keyword audiences "
                "(no catalog wired)"
            )
        return self._register(
            Audience(
                audience_id=audience_id,
                owner_account_id=owner_account_id,
                kind=AudienceKind.KEYWORD,
                name=name,
                phrases=cleaned,
            )
        )

    def _register(self, audience: Audience) -> Audience:
        if audience.audience_id in self._audiences:
            raise AudienceError(
                f"duplicate audience id {audience.audience_id!r}"
            )
        self._store.append(self._delta_for(audience))
        self._audiences[audience.audience_id] = audience
        return audience

    # -- state owner -------------------------------------------------------

    @staticmethod
    def _delta_for(audience: Audience) -> AudienceDelta:
        """The journal record fully describing one audience. Member ids
        are sorted so equal audiences yield byte-identical records."""
        return AudienceDelta(
            audience_id=audience.audience_id,
            owner_account_id=audience.owner_account_id,
            audience_kind=audience.kind.value,
            name=audience.name,
            member_ids=tuple(sorted(audience._matched_user_ids)),
            pixel_id=audience.pixel_id or "",
            page_id=audience.page_id or "",
            phrases=tuple(audience.phrases),
            seed_audience_id=audience.seed_audience_id or "",
            similarity_threshold=audience.similarity_threshold,
        )

    @staticmethod
    def _audience_from_delta(delta: AudienceDelta) -> Audience:
        try:
            kind = AudienceKind(delta.audience_kind)
        except ValueError:
            raise StoreError(
                f"unknown audience kind {delta.audience_kind!r} in "
                f"delta for {delta.audience_id!r}") from None
        return Audience(
            audience_id=delta.audience_id,
            owner_account_id=delta.owner_account_id,
            kind=kind,
            name=delta.name,
            _matched_user_ids=set(delta.member_ids),
            pixel_id=delta.pixel_id or None,
            page_id=delta.page_id or None,
            phrases=tuple(delta.phrases),
            seed_audience_id=delta.seed_audience_id or None,
            similarity_threshold=delta.similarity_threshold,
        )

    def apply_record(self, record: ChangeRecord) -> None:
        """Fold one journaled delta in — idempotently: an identical
        delta for an audience we already hold is skipped, a conflicting
        one is an error."""
        if not isinstance(record, AudienceDelta):
            raise StoreError(
                f"audiences cannot apply record kind {record.kind!r}")
        existing = self._audiences.get(record.audience_id)
        if existing is not None:
            if self._delta_for(existing) == record:
                return
            raise StoreError(
                f"conflicting audience_delta for {record.audience_id!r}")
        self._audiences[record.audience_id] = (
            self._audience_from_delta(record))

    def state_dump(self) -> Dict[str, Any]:
        return {
            "audiences": [
                record_to_dict(self._delta_for(audience))
                for audience in self._audiences.values()
            ],
        }

    def state_load(self, state: Dict[str, Any]) -> None:
        self._audiences = {}
        for data in state.get("audiences", []):
            delta = record_from_dict(dict(data))
            if not isinstance(delta, AudienceDelta):
                raise StoreError(
                    f"audience dump holds a {delta.kind!r} record")
            self._audiences[delta.audience_id] = (
                self._audience_from_delta(delta))

    def create_lookalike_audience(
        self,
        audience_id: str,
        owner_account_id: str,
        seed_audience_id: str,
        similarity_threshold: int = 3,
        name: str = "",
    ) -> Audience:
        """"People similar to" a seed audience the advertiser owns.

        Platform-internal similarity: a user belongs iff they share at
        least ``similarity_threshold`` binary attributes with any seed
        member. The advertiser supplies only the seed handle — it never
        sees the expansion logic's inputs or outputs, mirroring real
        lookalike products.
        """
        seed = self.get(seed_audience_id)
        if seed.owner_account_id != owner_account_id:
            raise AudienceError(
                f"seed audience {seed_audience_id!r} belongs to another "
                "advertiser"
            )
        if similarity_threshold < 1:
            raise AudienceError("similarity threshold must be >= 1")
        return self._register(
            Audience(
                audience_id=audience_id,
                owner_account_id=owner_account_id,
                kind=AudienceKind.LOOKALIKE,
                name=name,
                seed_audience_id=seed_audience_id,
                similarity_threshold=similarity_threshold,
            )
        )

    # -- resolution (platform-internal) -------------------------------------

    def get(self, audience_id: str) -> Audience:
        try:
            return self._audiences[audience_id]
        except KeyError:
            raise AudienceError(f"unknown audience {audience_id!r}") from None

    def members(self, audience_id: str) -> Set[str]:
        """Current member user ids. PLATFORM-INTERNAL — never shown to
        advertisers; delivery and reach estimation consume this."""
        audience = self.get(audience_id)
        if audience.kind is AudienceKind.PII:
            return set(audience._matched_user_ids)
        if audience.kind is AudienceKind.PIXEL:
            assert audience.pixel_id is not None
            return self._pixels.visitors(audience.pixel_id)
        return self._users.rows_to_ids(self.member_bitset_cached(audience_id))

    def member_bitset(self, audience_id: str) -> np.ndarray:
        """Membership as a bitset over the user store's rows.

        Dynamic kinds are column algebra: page audiences are one column
        extraction, keyword audiences one masked pass per attribute word
        (:meth:`~repro.platform.colstore.ColumnarUserStore.any_attribute_bitset`),
        lookalikes a vectorized popcount of shared attributes against
        each seed row — no per-profile Python loop.
        """
        store = self._users
        nrows = len(store)
        audience = self.get(audience_id)
        if audience.kind is AudienceKind.PII:
            rows = [store.row_of(uid) for uid in audience._matched_user_ids]
            return bitset.from_indices(
                [r for r in rows if r is not None], nrows)
        if audience.kind is AudienceKind.PIXEL:
            assert audience.pixel_id is not None
            rows = [store.row_of(uid)
                    for uid in self._pixels.visitors(audience.pixel_id)]
            return bitset.from_indices(
                [r for r in rows if r is not None], nrows)
        if audience.kind is AudienceKind.PAGE:
            assert audience.page_id is not None
            return store.page_bitset(audience.page_id)
        if audience.kind is AudienceKind.KEYWORD:
            assert self._catalog is not None
            return store.any_attribute_bitset(
                {attribute.attr_id for phrase in audience.phrases
                 for attribute in self._catalog.search(phrase)})
        assert audience.seed_audience_id is not None
        return self._lookalike_bitset(audience, nrows)

    @property
    def mutation_key(self) -> Tuple[int, int]:
        """``(users.mutation_epoch, pixels.mutation_seq)``: changes with
        every store-API mutation (attributes, page likes, new rows, PII
        attached) and every pixel fire — what membership, and so every
        targeting spec's match, can depend on."""
        return self._users.mutation_epoch, self._pixels.mutation_seq

    def member_bitset_cached(self, audience_id: str) -> np.ndarray:
        """:meth:`member_bitset`, memoized against world mutations.

        Keyed on :attr:`mutation_key` exactly like the count cache (and
        the delivery engine's candidate lists), so any store-API mutation
        or pixel fire invalidates the mask.
        This is the resolver the batch sweep and reach estimation share:
        the same materialized audience answers every row-range
        evaluation until the world actually changes. Callers must not
        mutate the returned array.
        """
        key = self.mutation_key
        cached = self._bitset_cache.get(audience_id)
        if cached is not None and cached[0] == key:
            return cached[1]
        bits = self.member_bitset(audience_id)
        self._bitset_cache[audience_id] = (key, bits)
        return bits

    def _lookalike_bitset(self, audience: Audience,
                          nrows: int) -> np.ndarray:
        """Vectorized lookalike expansion over the attribute matrix.

        For each seed row, AND its attribute bitset against every user's
        row and popcount — users sharing >= threshold binary attributes
        with any seed member join. Seed members themselves are included
        (real lookalikes exclude them, but for Treads purposes inclusion
        is harmless and the exclusion is one NOT-term away in
        targeting).
        """
        seed_bits = self.member_bitset(audience.seed_audience_id)
        cols = self._users.columns
        matrix = cols.attr_bits[:nrows]
        threshold = audience.similarity_threshold
        mask = np.zeros(nrows, dtype=bool)
        for seed_row in bitset.iter_indices(seed_bits):
            row_bits = matrix[seed_row]
            if bitset.popcount(row_bits) < threshold:
                continue
            shared = bitset.row_popcounts(matrix & row_bits)
            mask |= shared >= threshold
        packed = np.packbits(mask.astype(np.uint8), bitorder="little")
        out = bitset.make_bitset(nrows)
        out.view(np.uint8)[: packed.size] = packed
        return bitset.union(out, seed_bits)

    def is_member(self, audience_id: str, user_id: str) -> bool:
        """The :data:`~repro.platform.targeting.AudienceResolver` hook:
        one bit probe of the (cached) member bitset."""
        audience = self.get(audience_id)
        if audience.kind is AudienceKind.PII:
            return user_id in audience._matched_user_ids
        row = self._users.row_of(user_id)
        return row is not None and bitset.test_bit(
            self.member_bitset_cached(audience_id), row)

    def check_runnable(self, audience_id: str) -> None:
        """Enforce the minimum-size gate for custom (PII/pixel) audiences.

        Page audiences are exempt — the asymmetry the paper's validation
        exploited to reach a two-person audience.
        """
        audience = self.get(audience_id)
        if audience.kind is AudienceKind.PAGE:
            return
        size = self.membership_count(audience_id)
        if size < self.min_custom_audience_size:
            raise AudienceTooSmallError(
                f"audience {audience_id!r} has {size} members; platform "
                f"minimum is {self.min_custom_audience_size}"
            )

    def membership_count(self, audience_id: str) -> int:
        """Current member count, cached against the world's mutation state.

        PII audiences are frozen, so their count is just the set's size.
        Dynamic kinds key a cached count on ``(users.mutation_epoch,
        pixels.mutation_seq)`` — valid as long as mutations flow through
        the store APIs (``set_attribute`` on a registered profile,
        ``like_page``, ``attach_pii``, pixel fires), which bump those
        counters. Dynamic kinds count via popcount of the member bitset,
        so a repeated reach probe of an unchanged world is O(1).
        """
        audience = self.get(audience_id)
        if audience.kind is AudienceKind.PII:
            return len(audience._matched_user_ids)
        key = self.mutation_key
        cached = self._count_cache.get(audience_id)
        if cached is not None and cached[0] == key:
            return cached[1]
        # One materialization serves both: the popcount here and any
        # targeting program's audience leaves reuse the same bitset.
        count = bitset.popcount(self.member_bitset_cached(audience_id))
        self._count_cache[audience_id] = (key, count)
        return count

    def count_matching(self, spec: TargetingSpec) -> int:
        """How many users match ``spec`` (platform-internal).

        One packed mask evaluation over every row, counted by popcount
        (:func:`~repro.platform.targeting.evaluate_packed`); a spec the
        lowerer refuses is counted with ``Expr.matches`` instead.
        Serves the potential-reach preview and the delivery engine's
        narrow-targeting defense.
        """
        users = self._users
        program = lower_spec(spec)
        if program is None:
            return sum(1 for view in users
                       if spec.matches(view, self.is_member))
        return bitset.popcount(evaluate_packed(
            [program], users.columns, 0, len(users),
            self.member_bitset_cached))

    # -- advertiser-facing -------------------------------------------------

    def estimated_reach(self, audience_id: str) -> ReachEstimate:
        """Rounded potential reach, the only size signal advertisers get.

        Served from :meth:`membership_count`'s epoch-keyed cache — the
        advertiser polling reach in a loop no longer re-materializes the
        audience each time."""
        return round_reach(
            self.membership_count(audience_id),
            floor=self.reach_floor,
            quantum=self.reach_quantum,
        )

    def audiences_owned_by(self, account_id: str) -> List[Audience]:
        return [a for a in self._audiences.values()
                if a.owner_account_id == account_id]
