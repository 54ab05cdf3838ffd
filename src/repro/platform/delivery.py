"""The ad delivery engine.

Delivery stitches everything together: as users browse, their sessions
expose ad slots; for each slot the engine collects the active ads whose
targeting the user satisfies (the deliver-iff-match contract), auctions
the slot against ambient competing demand, charges the winner, and places
the winning creative in the user's feed.

The per-user **frequency cap** is fixed at one impression per ad per
user — how a transparency provider would configure Tread campaigns: each
Tread needs to reach each matching user exactly once, which is what makes
the paper's per-attribute cost exactly one CPM-priced impression. One
*shown* bitset per ad (bit = user row) is the cap, the unique reach and
the per-pair record at once, in both delivery modes.

Performance model (see docs/api_tour.md, "Performance model"): eligibility
runs against an **inverted candidate index** — ads are bucketed under one
attribute/page their spec *requires*
(:func:`repro.platform.targeting.required_anchors`), keyed by the user
store's integer codes, so a slot only evaluates ads reachable from the
user's own attribute and page bits. Each candidate's spec is the
**row backend** of its lowered program
(:meth:`repro.platform.targeting.MaskProgram.bind`): a mask compare on
the row's packed words for every Tread shape, instead of re-walking the
spec's AST. Reporting reads (per-ad impressions, clicks, unique reach)
are maintained incrementally at delivery time instead of scanning the
logs.

State model (PR 4, see docs/state.md): the engine is a
:class:`~repro.store.store.StateOwner`. Every impression and click is a
journal record — ``Impression`` *is*
:class:`repro.store.records.ImpressionRecorded` and ``Click`` *is*
:class:`repro.store.records.ClickRecorded` — appended to the engine's
:class:`~repro.store.store.StateStore` at commit time and then folded
into the in-memory structures by one shared ``_apply_*`` path. Replay,
snapshot restore, and shard migration reuse that same fold, minus the
journaling and obs emission that only the live path performs.
"""

from __future__ import annotations

import itertools
import logging
import numbers
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

import numpy as np

from repro.errors import StoreError
from repro.obs import tracing as obs_tracing
from repro.obs.metrics import MetricsRegistry, registry as obs_registry
from repro.platform import bitset
from repro.platform.ads import Ad, AdImage, AdInventory, AdStatus
from repro.platform.auction import (
    AuctionOutcome,
    CompetingBidDraw,
    observe_auctions,
    run_auction,
)
from repro.platform.audiences import AudienceRegistry
from repro.platform.billing import BillingLedger
from repro.platform.colstore import ColumnarUserStore, UserColumns, UserView
from repro.platform.targeting import bind_key, lower_spec, required_anchors
from repro.store.records import (
    ChangeRecord,
    ClickRecorded,
    ImpressionRecorded,
    record_from_dict,
    record_to_dict,
)
from repro.store.store import MemoryStore, StateStore

_log = logging.getLogger("repro.platform.delivery")

#: Platform-internal record of one delivered impression — the journal
#: record *is* the log entry (see the state-model note above).
Impression = ImpressionRecorded

#: Platform-internal record of one ad click.
Click = ClickRecorded


def _collect_buckets(anchored: int, buckets_by_code: Dict[int, list],
                     out: List[list]) -> None:
    """Append the bucket of every set bit (code) of ``anchored``."""
    while anchored:
        low = anchored & -anchored
        out.append(buckets_by_code[low.bit_length() - 1])
        anchored ^= low


def _records_of(state: Dict[str, Any], section: str,
                kind: type) -> List[ChangeRecord]:
    """Parse one section of an exported delivery state, refusing any
    record of another kind."""
    records = [record_from_dict(dict(data))
               for data in state.get(section, [])]
    for record in records:
        if not isinstance(record, kind):
            raise StoreError(
                f"delivery state holds a {record.kind!r} record in its "
                f"{section} section")
    return records


def check_sweep_args(max_rounds: int) -> None:
    """Validate the sweep knob shared by the single-process and the
    partitioned sweep (the latter checks before forking)."""
    if not isinstance(max_rounds, numbers.Integral) or max_rounds < 0:
        raise ValueError("max_rounds must be a non-negative integer")


#: Rows per block while :class:`SweepLists` is built. It bounds the
#: build's transients whatever the range size: the block's packed copy
#: (512 bytes per candidate) and a few 8-byte integers per bit set in it.
_LIST_BLOCK_ROWS = 4096


class SweepLists:
    """Per-row candidate lists: the sweep rounds' auction kernel.

    ``avail`` is a packed ``(entries x words)`` matrix whose bit ``r`` of
    row ``e`` says entry ``e`` is available to row ``r``;
    ``candidates`` lists the round's entries in auction-priority order
    and ``accounts[k]`` is the account of ``candidates[k]``. Each of the
    ``nrows`` (at least one) rows gets the list of its available candidates (entry
    indices, priority order) in one CSR, plus, per list position, the
    offset to the next position held by another account and the number
    of distinct accounts from there to the row's end — 5 bytes a pair
    for the Treads campaign (2-byte entry and offset, 1-byte count).

    Across rounds a row's winner is its next undelivered candidate: a
    won slot caps exactly that (entry, row) pair, so :meth:`advance`
    moves the row's pointer past it and everything behind the pointer
    is still available. The lists hold only while the candidate set
    does; the sweep builds new ones when it changes.
    """

    def __init__(self, avail: np.ndarray, candidates: Sequence[int],
                 accounts: Sequence[int], nrows: int) -> None:
        candidates = np.asarray(candidates, dtype=np.int64)
        codes, accounts = np.unique(np.asarray(accounts),
                                    return_inverse=True)
        cand_parts: List[np.ndarray] = []
        skip_parts: List[np.ndarray] = []
        distinct_parts: List[np.ndarray] = []
        counts = np.zeros(nrows, dtype=np.int64)
        for r0 in range(0, nrows, _LIST_BLOCK_ROWS):
            nb = min(nrows - r0, _LIST_BLOCK_ROWS)
            w0 = r0 // bitset.WORD_BITS
            block = avail[candidates, w0:w0 + bitset.words_for(nb)]
            row, pos = _set_bits(block.view(np.uint8), nb)
            row_counts = np.bincount(row, minlength=nb)
            counts[r0:r0 + nb] = row_counts
            acct = accounts[pos]
            cand_parts.append(candidates[pos].astype(
                np.min_scalar_type(len(avail))))
            skip_parts.append(_next_other_account(row, acct).astype(
                np.min_scalar_type(len(candidates))))
            distinct_parts.append(
                _accounts_to_row_end(row, acct, row_counts,
                                     len(codes)).astype(
                    np.min_scalar_type(len(codes))))
        self.cand = np.concatenate(cand_parts)
        self.skip = np.concatenate(skip_parts)
        self.distinct = np.concatenate(distinct_parts)
        self.end = np.cumsum(counts)
        self.ptr = self.end - counts

    def auction(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                               np.ndarray]:
        """The current round's per-row selection: ``(rows, winner,
        runner, contenders)`` over the ascending rows with a candidate
        left — the winner's entry index, the best other account's entry
        index (-1 when none), and how many accounts have one."""
        rows = np.flatnonzero(self.ptr < self.end)
        at = self.ptr[rows]
        winner = self.cand[at].astype(np.int64)
        nxt = at + self.skip[at]
        has = nxt < self.end[rows]
        runner = np.full(rows.size, -1, dtype=np.int64)
        runner[has] = self.cand[nxt[has]]
        return rows, winner, runner, self.distinct[at]

    def advance(self, rows: np.ndarray) -> None:
        """The winners of ``rows`` were delivered: step past them."""
        self.ptr[rows] += 1


def _set_bits(block: np.ndarray, nrows: int
              ) -> Tuple[np.ndarray, np.ndarray]:
    """Every set bit of a packed ``(candidates x bytes)`` block as
    ``(row, candidate position)`` pairs in (row, position) order, rows
    below ``nrows`` (at most 65,536) only."""
    width = block.shape[1]
    flat = block.reshape(-1)
    at = np.flatnonzero(flat)
    bits = np.flatnonzero(np.unpackbits(flat[at][:, None], axis=1,
                                        bitorder="little"))
    at = at[bits >> 3]
    pos = at // width
    row = ((at - pos * width) << 3) + (bits & 7)
    keep = row < nrows
    row, pos = row[keep].astype(np.uint16), pos[keep]
    # Stable by row, so positions stay ascending within each row (a
    # 16-bit key sorts by radix).
    order = np.argsort(row, kind="stable")
    return row[order], pos[order]


def _next_other_account(row: np.ndarray, acct: np.ndarray) -> np.ndarray:
    """Per pair of a CSR in (row, priority) order, the offset to the
    next pair of the same row held by another account — or to the
    row's end when none is: the end of its run of one account."""
    first = np.ones(len(row), dtype=bool)
    first[1:] = (row[1:] != row[:-1]) | (acct[1:] != acct[:-1])
    run_starts = np.append(np.flatnonzero(first), len(row))
    return run_starts[np.cumsum(first)] - np.arange(len(row))


def _accounts_to_row_end(row: np.ndarray, acct: np.ndarray,
                         row_counts: np.ndarray,
                         n_accounts: int) -> np.ndarray:
    """Per pair of a CSR in (row, priority) order, how many distinct
    accounts hold a pair from it to the row's end: a suffix count of
    each (row, account)'s last pair."""
    key = row.astype(np.int64) * n_accounts + acct
    # A narrow key (rows of one block x accounts) sorts by radix.
    by_key = np.argsort(
        key.astype(np.min_scalar_type(_LIST_BLOCK_ROWS * n_accounts)),
        kind="stable")
    sorted_key = key[by_key]
    ends = np.ones(len(row), dtype=bool)
    ends[:-1] = sorted_key[1:] != sorted_key[:-1]
    last = np.zeros(len(row) + 1, dtype=np.int64)
    last[by_key[ends]] = 1
    suffix = np.cumsum(last[::-1])[::-1]
    return suffix[:-1] - suffix[np.cumsum(row_counts)[row]]


class _SweepWins:
    """A sweep range's wins since their last fold into engine state.

    ``delivered`` is a packed ``(entries x words)`` matrix (bit ``r`` of
    row ``e``: entry ``e`` won row ``r``), ``counts`` the impressions per
    entry, ``order`` the entries in first-win order. ``spent`` (kept when
    ``priced``: a parallel worker's delta) is each entry's price sum
    with the association the delta has always had — per round a left
    fold over the entry's wins in row order, added to the running sum.
    """

    def __init__(self, shape: Tuple[int, int], priced: bool) -> None:
        self.shape = shape
        self.priced = priced
        self.reset()

    def reset(self) -> None:
        # A fresh matrix, not a zeroed one: a delta may hold rows of it.
        self.delivered = np.zeros(self.shape, dtype=np.uint64)
        self.counts = np.zeros(self.shape[0], dtype=np.int64)
        self.spent = np.zeros(self.shape[0])
        self.order: List[int] = []

    def record(self, rows: np.ndarray, cand: np.ndarray,
               price: np.ndarray) -> None:
        """Add one round's wins: ``cand[j]`` won range row ``rows[j]``
        at ``price[j]``, rows ascending."""
        round_counts = np.bincount(cand, minlength=self.shape[0])
        self.order.extend(np.flatnonzero(
            round_counts * (self.counts == 0)).tolist())
        self.counts += round_counts
        words = self.shape[1]
        np.bitwise_or.at(
            self.delivered.reshape(-1),
            cand * words + rows // bitset.WORD_BITS,
            np.left_shift(np.uint64(1),
                          (rows % bitset.WORD_BITS).astype(np.uint64)))
        if self.priced:
            # A narrow key sorts by radix.
            by_cand = np.argsort(
                cand.astype(np.min_scalar_type(self.shape[0])),
                kind="stable")
            grouped = cand[by_cand]
            starts = np.flatnonzero(
                np.append(True, grouped[1:] != grouped[:-1]))
            ends = np.append(starts[1:], len(cand))
            prices = price[by_cand]
            for c, a, b in zip(grouped[starts].tolist(), starts.tolist(),
                               ends.tolist()):
                self.spent[c] += float(np.add.accumulate(prices[a:b])[-1])

    def clear_from(self, avail: np.ndarray) -> None:
        """Remove the recorded wins from an availability matrix."""
        if self.order:
            avail &= ~self.delivered


@dataclass(frozen=True)
class DeliveredAd:
    """What lands in a user's feed: the creative plus a handle for the
    "Why am I seeing this?" explanation. The user never sees the bid,
    the price, or the full targeting spec (the platform's explanation is
    deliberately partial — see :mod:`repro.platform.explanations`).

    ``image`` is a shared read-only view of the rendered creative image —
    users see ad images, so a Tread-decoding browser extension can scan
    their pixels. Creative pixels are immutable post-render, so one frozen
    buffer serves every impression (no per-impression deep copy).
    """

    ad_id: str
    account_id: str
    headline: str
    body: str
    image: Optional["AdImage"]
    landing_url: Optional[str]
    impression_seq: int

    @property
    def has_image(self) -> bool:
        return self.image is not None


@dataclass
class DeliveryStats:
    """Counters for one delivery run."""

    slots: int = 0
    filled_by_tracked_ads: int = 0
    lost_to_competition: int = 0
    no_eligible_ad: int = 0


#: Process-wide engine id sequence for engines constructed without an
#: explicit ``engine_id`` (debuggability: shard-owned engines name the
#: shard instead).
_ENGINE_IDS = itertools.count()


class DeliveryEngine:
    """Serves ad slots for browsing users.

    ``users`` is the platform's user store: its rows key the per-ad
    shown bitsets that hold the frequency cap (one impression per ad
    per user), so every impression's user must be known to it.
    ``compact`` decides one thing only — whether the impression log,
    click log and feeds are kept beside those bitsets.

    Thread ownership
    ----------------
    An engine instance is **single-owner**: all mutating calls
    (``serve_slot``, the run loops, ``record_click``, ``import_state``)
    must come from one thread at a time. The engine takes no locks —
    the serving layer (:mod:`repro.serve`) gives each shard its own
    engine plus a shard lock and routes each user to exactly one shard,
    which is what makes lock-free per-engine state safe. Shared *read*
    structure (the inventory's ad list, lowered programs from the
    process-wide lowering cache) is safe across engines because bound
    row programs are pure functions; everything mutable — match caches,
    caps, feeds, logs, reporting views — is per-instance, created in
    ``__init__`` and never shared. ``engine_id`` names the instance in
    logs and :meth:`snapshot_stats` so shard-owned engines stay
    debuggable.
    """

    store_name = "delivery"
    handled_kinds: Tuple[str, ...] = (
        ImpressionRecorded.kind, ClickRecorded.kind,
    )

    def __init__(
        self,
        inventory: AdInventory,
        audiences: AudienceRegistry,
        ledger: BillingLedger,
        competing_draw: CompetingBidDraw,
        users: ColumnarUserStore,
        floor_price_cpm: float = 0.0,
        min_match_count: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        engine_id: Optional[str] = None,
        store: Optional[StateStore] = None,
        compact: bool = False,
    ):
        if min_match_count < 0:
            raise ValueError("min match count cannot be negative")
        self.engine_id = (engine_id if engine_id is not None
                          else f"engine-{next(_ENGINE_IDS)}")
        self._store = store if store is not None else MemoryStore()
        self._store.attach(self)
        self._inventory = inventory
        self._audiences = audiences
        self._ledger = ledger
        self._competing_draw = competing_draw
        self.floor_price = floor_price_cpm / 1000.0
        self.min_match_count = min_match_count
        #: The platform's user store: rows key the shown bitsets, and the
        #: narrow-targeting defense and the batch sweep read it.
        self._user_store = users
        self._match_count_cache: Dict[str, int] = {}
        self._impression_seq = 0
        #: Million-user memory mode: the per-impression logs and feeds
        #: are not kept. Cap, reach and counts are the same either way;
        #: the APIs that *are* the per-impression state raise StoreError
        #: instead of lying.
        self._compact = compact
        #: ad_id -> bitset of user rows already shown (the cap state).
        self._shown_bits: Dict[str, np.ndarray] = {}
        self._impression_count = 0
        self._impression_count_by_ad: Dict[str, int] = {}
        self._click_count = 0
        self._impressions: List[Impression] = []
        self._clicks: List[Click] = []
        self._feeds: Dict[str, List[DeliveredAd]] = defaultdict(list)
        # -- inverted candidate index (see _ensure_index) ------------------
        self._indexed_ad_count = 0
        #: attr_id -> [(ad, account, bid, program)] for ads whose spec
        #: requires that attribute (``program`` is the spec's
        #: MaskProgram, None when the lowerer refused it).
        self._index_by_attr: Dict[str, List[tuple]] = {}
        #: page_id -> same, for ads anchored on a required page like.
        self._index_by_page: Dict[str, List[tuple]] = {}
        #: Ads with no attribute/page anchor — evaluated for every slot.
        self._index_general: List[tuple] = []
        # -- code-keyed buckets of bound entries (see _sync_code_maps) -----
        self._code_maps_key: Optional[tuple] = None
        self._attr_code_buckets: Dict[int, List[tuple]] = {}
        self._attr_anchor_mask = 0
        self._page_code_buckets: Dict[int, List[tuple]] = {}
        self._page_anchor_mask = 0
        self._general_bound: List[tuple] = []
        #: Per-run cache: user_id -> index entries whose spec matches the
        #: user. Match outcomes are static for the duration of one
        #: synchronous run (profiles, likes, and memberships cannot change
        #: mid-loop), so each (user, ad) pair is evaluated once per run
        #: instead of once per slot. None outside runs — a one-off
        #: serve_slot must see live state.
        self._match_cache: Optional[Dict[str, List[tuple]]] = None
        # -- indexed reporting views ---------------------------------------
        self._clicks_by_ad: Dict[str, int] = {}
        # -- observability -------------------------------------------------
        # Instruments resolve once, at construction (pass ``metrics`` or
        # swap the global registry *before* building the platform); the
        # per-slot cost is then a bound-method call, a no-op under
        # NULL_REGISTRY.
        reg = metrics if metrics is not None else obs_registry()
        # Hot paths branch on this flag instead of calling into null
        # instruments: when metrics are off, one attribute read per
        # event instead of a method call (bench_obs_overhead.py).
        self._obs_on = reg.enabled
        self._obs_slots = reg.counter("delivery.slots_served")
        self._obs_impressions = reg.counter("delivery.impressions_delivered")
        self._obs_cache_hits = reg.counter("delivery.match_cache_hits")
        self._obs_cache_misses = reg.counter("delivery.match_cache_misses")
        self._obs_bucket_size = reg.histogram(
            "delivery.candidate_bucket_size")
        self._obs_cap_rejections = reg.counter(
            "delivery.frequency_cap_rejections")
        self._obs_pruned = reg.counter("delivery.saturation_pruned")
        self._obs_clicks = reg.counter("delivery.clicks_recorded")
        self._obs_sweep_rounds = reg.counter("delivery.sweep_rounds")
        self._obs_sweep_fallback_specs = reg.counter(
            "delivery.sweep_fallback_specs")
        self._obs_sweep_budget_rounds = reg.counter(
            "delivery.sweep_budget_fallback_rounds")

    # -- eligibility ---------------------------------------------------------

    def _matches_enough_users(self, ad: Ad) -> bool:
        """Narrow-targeting defense: an ad whose full spec matches fewer
        than ``min_match_count`` users is withheld from every auction.

        The match count is snapshot once per ad (profiles are effectively
        static within a campaign run); this is the platform-side
        countermeasure to single-user delivery/billing inference (paper
        section 5) and is OFF by default, as on 2018 platforms.
        """
        if self.min_match_count <= 0:
            return True
        cached = self._match_count_cache.get(ad.ad_id)
        if cached is None:
            cached = self._audiences.count_matching(ad.targeting)
            self._match_count_cache[ad.ad_id] = cached
        return cached >= self.min_match_count

    def _ensure_index(self) -> None:
        """Bring the inverted candidate index up to date.

        Each ad is lowered once and bucketed under exactly one *required*
        anchor — an attribute (preferred: most selective), else a page
        like, else the always-evaluated general bucket. Ads are never
        removed from the inventory, so maintenance is incremental: only
        ads added since the last sync are indexed. Status flips (pause,
        un-pause, review outcomes) and budget exhaustion need no index
        surgery — they are re-checked per candidate at evaluation time,
        so the index can never serve a stale verdict.
        """
        count = self._inventory.ad_count()
        if count == self._indexed_ad_count:
            return
        for ad in self._inventory.ads()[self._indexed_ad_count:]:
            account = self._inventory.account(ad.account_id)
            entry = (ad, account, ad.bid_per_impression,
                     lower_spec(ad.targeting))
            attrs, pages, _ = required_anchors(ad.targeting.expr)
            if attrs:
                self._index_by_attr.setdefault(min(attrs), []).append(entry)
            elif pages:
                self._index_by_page.setdefault(min(pages), []).append(entry)
            else:
                self._index_general.append(entry)
        self._indexed_ad_count = count

    def _bound_entry(self, entry: tuple, store: ColumnarUserStore,
                     cols: UserColumns) -> tuple:
        """``(ad, account, bid, attr_mask, page_mask, residual)``: an
        index entry with its spec bound to the store's current codes. A
        spec the lowerer refused evaluates ``Expr.matches`` on the row's
        view."""
        ad, account, bid, program = entry
        if program is not None:
            return (ad, account, bid) + program.bind(cols)
        expr, resolver = ad.targeting.expr, self._audiences.is_member

        def reference(row, aw, pw, bits):
            return expr.matches(UserView(store, row), resolver)

        return ad, account, bid, 0, 0, reference

    def _sync_code_maps(self, store: ColumnarUserStore) -> None:
        """Key the anchor buckets by the store's integer codes, binding
        every entry's row program to those same codes.

        Rebuilt whenever new ads arrive or the store interns new
        attribute/page codes or multi columns — all visible in the key
        below — so a bound program never sees stale codes. Ads anchored
        on an attribute that has a multi column join the general bucket
        (a set bit alone would not witness the anchor).
        """
        cols = store.columns
        key = (store, self._indexed_ad_count) + bind_key(cols)
        if self._code_maps_key == key:
            return

        def bound(bucket: List[tuple]) -> List[tuple]:
            return [self._bound_entry(entry, store, cols)
                    for entry in bucket]

        attr_map: Dict[int, List[tuple]] = {}
        general = bound(self._index_general)
        for attr_id, bucket in self._index_by_attr.items():
            code = cols.attrs.get(attr_id)
            if attr_id in cols.multi_cols:
                general.extend(bound(bucket))
            elif code is not None:
                attr_map[code] = bound(bucket)
        page_map: Dict[int, List[tuple]] = {}
        for page_id, bucket in self._index_by_page.items():
            code = cols.pages.get(page_id)
            if code is not None:
                page_map[code] = bound(bucket)
        self._attr_code_buckets = attr_map
        self._attr_anchor_mask = sum(1 << code for code in attr_map)
        self._page_code_buckets = page_map
        self._page_anchor_mask = sum(1 << code for code in page_map)
        self._general_bound = general
        self._code_maps_key = key

    def _matched_entries(self, user: UserView) -> List[tuple]:
        """Bound index entries whose *targeting* matches ``user``.

        Spec match minus the ads already shown to the user (the cap of
        1, read from the per-ad shown bitsets and counted into
        ``delivery.frequency_cap_rejections``) — the other dynamic
        conditions (status, budget, min-match defense) are applied by
        the caller per slot.
        The row's attribute and page words are read once; candidate
        buckets come from the set bits of ``words & anchor_mask``, and
        each candidate's bound program is a mask compare (plus its
        residual, if any). Inside a run the result is cached per user
        (matches are static for the run's duration); outside runs it is
        computed live.
        """
        cache = self._match_cache
        if cache is not None:
            cached = cache.get(user.user_id)
            if cached is not None:
                if self._obs_on:
                    self._obs_cache_hits.inc()
                return cached
        if self._obs_on:
            self._obs_cache_misses.inc()
        store = user.store
        self._sync_code_maps(store)
        cols = store.columns
        row = user.row
        aw, pw = cols.row_words(row)
        buckets: List[List[tuple]] = []
        _collect_buckets(aw & self._attr_anchor_mask,
                         self._attr_code_buckets, buckets)
        _collect_buckets(pw & self._page_anchor_mask,
                         self._page_code_buckets, buckets)
        if self._general_bound:
            buckets.append(self._general_bound)
        bits = self._audiences.member_bitset_cached
        matched: List[tuple] = []
        candidates = 0
        for bucket in buckets:
            candidates += len(bucket)
            for entry in bucket:
                _, _, _, am, pm, residual = entry
                if aw & am == am and pw & pm == pm and (
                        residual is None or residual(row, aw, pw, bits)):
                    matched.append(entry)
        if self._obs_on:
            self._obs_bucket_size.observe(candidates)
        if matched and self._shown_bits:
            # Within a session the cache pruning in _mark_shown keeps the
            # list current, so the slot path needs no cap check at all.
            # ndarray.item, not bitset.test_bit: this runs once per
            # matched entry, and test_bit's numpy scalar ops cost about
            # ten times more per call.
            shown = self._shown_bits
            word, bit = row >> 6, 1 << (row & 63)
            kept: List[tuple] = []
            for entry in matched:
                ad_bits = shown.get(entry[0].ad_id)
                if ad_bits is None or word >= len(ad_bits) or \
                        not ad_bits.item(word) & bit:
                    kept.append(entry)
            if self._obs_on and len(kept) < len(matched):
                self._obs_cap_rejections.inc(len(matched) - len(kept))
            matched = kept
        if cache is not None:
            cache[user.user_id] = matched
        return matched

    def _slot_contenders(self, user: UserView) -> Tuple[List[Ad], bool]:
        """Eligible ads for one slot, already deduplicated per account.

        Returns ``(contenders, had_eligible)``. The auction only ever
        considers each account's best eligible ad (same bid/ad-id
        ordering as :func:`repro.platform.auction.run_auction`), so the
        dedup happens here, during the one pass over matched entries —
        the auction then runs on the handful of per-account champions
        instead of re-scanning the full eligible list. ``had_eligible``
        feeds the run-loop stats (lost-to-competition vs no-eligible-ad)
        without a second eligibility evaluation.
        """
        self._ensure_index()
        check_min_match = self.min_match_count > 0
        active = AdStatus.ACTIVE
        best: Dict[str, tuple] = {}
        for entry in self._matched_entries(user):
            ad, account, bid = entry[0], entry[1], entry[2]
            if ad.status is not active:
                continue
            if account.budget + 1e-12 < bid:  # inlined Account.can_afford
                continue
            if check_min_match and not self._matches_enough_users(ad):
                continue
            held = best.get(ad.account_id)
            if held is None or bid > held[0] or \
                    (bid == held[0] and ad.ad_id < held[1].ad_id):
                best[ad.account_id] = (bid, ad)
        return [pair[1] for pair in best.values()], bool(best)

    # -- slot serving --------------------------------------------------------

    def serve_slot(self, user: UserView) -> AuctionOutcome:
        """Auction one ad slot in ``user``'s session; deliver the winner."""
        with obs_tracing.tracer().span("serve_slot", user_id=user.user_id):
            contenders, _ = self._slot_contenders(user)
            return self._auction_slot(user, contenders)

    def _auction_slot(self, user: UserView,
                      eligible: Sequence[Ad]) -> AuctionOutcome:
        """Auction one slot against a pre-computed eligible list.

        The run loops thread their eligibility result through here so
        each slot evaluates eligibility exactly once (previously the
        stats paths re-evaluated it after the auction).
        """
        if self._obs_on:
            self._obs_slots.inc()
        outcome = run_auction(
            eligible,
            competing_bid=self._competing_draw(),
            floor_price=self.floor_price,
        )
        if outcome.winner is not None:
            self._deliver(outcome.winner, user, outcome.price)
        return outcome

    def _deliver(self, ad: Ad, user: UserView, price: float) -> None:
        """Live delivery: charge, journal, fold, emit obs signals."""
        seq = self._impression_seq
        # The charge commits before the impression exists anywhere; a
        # raised BudgetError leaves the journal without a trace of this
        # slot. journal=False: the ImpressionRecorded appended below is
        # the journal entry for the whole delivery — impression and
        # charge are one atomic event with one record, and replay
        # re-derives the debit from it (apply_record below).
        self._ledger.charge_impression(
            ad_id=ad.ad_id,
            account_id=ad.account_id,
            amount=price,
            impression_seq=seq,
            journal=False,
        )
        impression = Impression(seq=seq, ad_id=ad.ad_id,
                                account_id=ad.account_id,
                                user_id=user.user_id, price=price)
        self._store.append(impression)
        self._apply_impression(impression, ad)
        if self._obs_on:
            self._obs_impressions.inc()

    def _apply_impression(self, impression: Impression,
                          ad: Optional[Ad] = None) -> None:
        """Fold one impression into every in-memory structure.

        Shared by the live path, snapshot restore, migration import, and
        journal replay — the non-live callers pass no ``ad`` (it is
        re-read from the shared inventory) and run with no match cache,
        so the live-only pruning below is naturally inert for them.
        """
        if ad is None:
            ad = self._inventory.ad(impression.ad_id)
        self._mark_shown(impression, ad)
        if not self._compact:
            self._log_impression(impression, ad)

    def _log_impression(self, impression: Impression, ad: Ad) -> None:
        """The full-mode half of the fold: the impression log and the
        user's feed (compact engines keep neither)."""
        self._impressions.append(impression)
        creative = ad.creative
        self._feeds[impression.user_id].append(
            DeliveredAd(
                ad_id=impression.ad_id,
                account_id=impression.account_id,
                headline=creative.headline,
                body=creative.body,
                image=(creative.image.frozen()
                       if creative.image is not None else None),
                landing_url=(
                    str(creative.landing_url) if creative.landing_url else None
                ),
                impression_seq=impression.seq,
            )
        )

    def _mark_shown(self, impression: Impression, ad: Ad) -> None:
        """The fold both modes share: one bit and three counters.

        Setting the user's bit in the ad's shown bitset *is* the cap
        state, the reach set, and the per-pair record all at once (the
        cap is 1, so they coincide).
        """
        users = self._user_store
        row = users.row_of(impression.user_id)
        if row is None:
            raise StoreError(
                f"{self.engine_id}: impression for unknown user "
                f"{impression.user_id!r}")
        bits = self._shown_bits.get(impression.ad_id)
        if bits is None:
            bits = bitset.make_bitset(len(users))
            self._shown_bits[impression.ad_id] = bits
        if row >= bits.shape[0] * bitset.WORD_BITS:
            bits = bitset.ensure_width(bits, row + 1)
            self._shown_bits[impression.ad_id] = bits
        bitset.set_bit(bits, row)
        self._impression_count += 1
        self._impression_count_by_ad[impression.ad_id] = (
            self._impression_count_by_ad.get(impression.ad_id, 0) + 1)
        if impression.seq >= self._impression_seq:
            self._impression_seq = impression.seq + 1
        # Caps are monotone within a run, so a just-capped ad can be
        # pruned from the user's cached match list — later slots then
        # scan only still-deliverable entries.
        cache = self._match_cache
        if cache is not None:
            matched = cache.get(impression.user_id)
            if matched is not None:
                if self._obs_on:
                    self._obs_pruned.inc()
                cache[impression.user_id] = [
                    entry for entry in matched if entry[0] is not ad
                ]

    @contextmanager
    def serving_session(self) -> Iterator["DeliveryEngine"]:
        """Match cache for a multi-slot serving window.

        Inside the ``with`` block, ``(user, ad)`` spec matches are
        evaluated once per user — the fast-path state the run loops
        install (audience memberships come from the registry's
        epoch-keyed bitset cache either way). Valid across any window in
        which profiles, likes, and audience memberships do not change
        (one run loop; one serve-layer batch window). Re-entrant:
        nesting installs a fresh cache and restores the outer one on
        exit. The caller owns the engine for the duration (see the class
        docstring's thread-ownership note).
        """
        outer = self._match_cache
        self._match_cache = {}
        try:
            yield self
        finally:
            self._match_cache = outer

    def _serve_round(self, users: Iterable[UserView],
                     stats: DeliveryStats,
                     saturating: bool) -> Tuple[bool, List[UserView]]:
        """Serve one slot to each of ``users`` in order, tallied into
        ``stats`` — the per-slot body of :meth:`run_sessions` and of
        the sweep's budget-fallback round.

        ``saturating`` is the campaign mode: a user with nothing
        eligible is dropped without an auction (no competing bid is
        drawn) and without counting a slot. Returns whether any slot
        was filled, plus the users that still had an eligible ad (the
        next saturation round's rotation; empty unless ``saturating``).
        """
        trc = obs_tracing.tracer()
        progressed = False
        still_active: List[UserView] = []
        for user in users:
            with trc.span("serve_slot", user_id=user.user_id):
                contenders, had_eligible = self._slot_contenders(user)
                if saturating:
                    if not had_eligible:
                        continue
                    still_active.append(user)
                outcome = self._auction_slot(user, contenders)
            stats.slots += 1
            if outcome.won:
                stats.filled_by_tracked_ads += 1
                progressed = True
            elif had_eligible and (saturating or outcome.competing_bid > 0):
                stats.lost_to_competition += 1
            else:
                stats.no_eligible_ad += 1
        return progressed, still_active

    def run_sessions(
        self,
        users: Sequence[UserView],
        slots_per_user: int,
    ) -> DeliveryStats:
        """Serve ``slots_per_user`` ad slots for each user, round-robin.

        Round-robin (rather than user-at-a-time) interleaves demand the way
        concurrent browsing would, which matters when budgets run out
        mid-run.
        """
        stats = DeliveryStats()
        with self.serving_session(), \
                obs_tracing.tracer().span("delivery.run_sessions",
                                          users=len(users),
                                          slots_per_user=slots_per_user):
            for _ in range(slots_per_user):
                self._serve_round(users, stats, saturating=False)
        _log.info(
            "run_sessions: %d slots (%d filled, %d lost, %d empty) "
            "for %d users",
            stats.slots, stats.filled_by_tracked_ads,
            stats.lost_to_competition, stats.no_eligible_ad, len(users),
        )
        return stats

    # -- batch sweep ---------------------------------------------------------
    #
    # The one saturation loop (the Treads campaign mode): eligibility is
    # evaluated for a whole row range at once via the range backend of
    # each spec's mask program (repro.platform.targeting.lower_spec).
    # The rounds then walk per-row candidate lists (SweepLists): a row's
    # winner is its next undelivered candidate in priority order, so a
    # round reads one list position per row instead of re-running an
    # auction over the packed matrix. Each round bills in one
    # order-exact fold and records its wins in a delivered matrix; the
    # shown bitsets and counters (and a parallel worker's delta) absorb
    # that matrix once per sweep. Semantics — winners, prices, stats,
    # reports — are identical to saturating the same rows one slot at a
    # time (pinned by tests/integration/test_columnar_equivalence.py);
    # the two escape hatches back to the per-slot path are per-spec
    # (unlowerable Expr -> Expr.matches per row fills that ad's mask) and
    # per-round (an account budget that could flip eligibility mid-round
    # replays the round through serve_slot's exact code path).

    def sweep_slots(
        self,
        rows: Optional[Tuple[int, int]] = None,
        *,
        max_rounds: int = 50,
        _collect_delta: bool = False,
    ):
        """Saturate delivery over a columnar row range, vectorized.

        ``rows`` is a ``(start, stop)`` half-open row range (default:
        the whole store); ``start`` must be 64-aligned so bitset state
        slices word-cleanly. Beyond the packed eligibility matrix, the
        range's state is its candidate lists (about 5 bytes per
        eligible (user, ad) pair) and a delivered matrix the size of the
        eligibility one; list building works in bounded row blocks.
        Returns the same :class:`DeliveryStats` that saturating the
        range one slot at a time would have produced.

        ``_collect_delta`` is the parallel partitioner's hook
        (:mod:`repro.platform.parsweep`): the sweep then also returns a
        per-ad ``{ad_id: (account_id, start_word, words, count,
        price_sum)}`` fold that a compact parent engine can absorb with
        :meth:`absorb_sweep_delta`.
        """
        cols = self._user_store.columns
        check_sweep_args(max_rounds)
        start, stop = (0, cols.count) if rows is None else rows
        if start % bitset.WORD_BITS:
            raise ValueError(
                f"sweep range must start on a {bitset.WORD_BITS}-bit "
                f"boundary, got {start}")
        if not 0 <= start <= stop <= cols.count:
            raise ValueError(
                f"sweep range [{start}, {stop}) outside the store's "
                f"{cols.count} rows")
        stats = DeliveryStats()
        delta: Optional[Dict[str, tuple]] = {} if _collect_delta else None
        with self.serving_session():
            self._run_sweep(stats, cols, start, stop, max_rounds, delta)
        _log.info(
            "sweep_slots[%d:%d]: %d slots (%d filled, %d lost)",
            start, stop, stats.slots, stats.filled_by_tracked_ads,
            stats.lost_to_competition,
        )
        if _collect_delta:
            return stats, delta
        return stats

    def _sweep_candidates(self) -> List[tuple]:
        """Every indexed entry once, in global auction-priority order.

        Sorting by (bid desc, ad id asc) makes "first eligible
        candidate" coincide with the scalar path's winner (per-account
        champions, then top-2 — both use exactly this order), so each
        user's winner is the head of its candidate list
        (:class:`SweepLists`).
        """
        self._ensure_index()
        entries: List[tuple] = []
        for bucket in self._index_by_attr.values():
            entries.extend(bucket)
        for bucket in self._index_by_page.values():
            entries.extend(bucket)
        entries.extend(self._index_general)
        if self.min_match_count > 0:
            entries = [e for e in entries
                       if self._matches_enough_users(e[0])]
        entries.sort(key=lambda e: (-e[2], e[0].ad_id))
        return entries

    def _sweep_eligibility(self, entries: List[tuple], cols: Any,
                           start: int, stop: int) -> np.ndarray:
        """Per-candidate packed eligibility over rows [start, stop).

        Bit ``r`` of row ``i`` (relative to ``start``) says entry ``i``'s
        spec matches store row ``start + r``. Lowered specs evaluate as
        one mask program; unlowerable specs fall back to ``Expr.matches``
        on each row's view (counted by ``delivery.sweep_fallback_specs``).
        """
        n = stop - start
        avail = np.zeros((len(entries), bitset.words_for(n)),
                         dtype=np.uint64)
        bits_resolver = self._audiences.member_bitset_cached
        fallbacks = 0
        for i, entry in enumerate(entries):
            spec = entry[0].targeting
            program = lower_spec(spec)
            if program is not None:
                flags = program.evaluate(cols, start, stop,
                                         resolver=bits_resolver)
            else:
                fallbacks += 1
                resolver = self._audiences.is_member
                store = self._user_store
                flags = np.zeros(n, dtype=bool)
                for r in range(start, stop):
                    if spec.matches(UserView(store, r), resolver):
                        flags[r - start] = True
            avail[i] = bitset.pack_bools(flags)
        if self._obs_on and fallbacks:
            self._obs_sweep_fallback_specs.inc(fallbacks)
        return avail

    def _sweep_subtract_shown(self, avail: np.ndarray,
                              entries: List[tuple],
                              start: int, stop: int) -> None:
        """Remove already-shown (capped) pairs from the availability
        matrix. Idempotent — also the resync after a scalar fallback
        round delivered through the per-impression path."""
        range_words = avail.shape[1]
        word0 = start // bitset.WORD_BITS
        for i, entry in enumerate(entries):
            shown = self._shown_bits.get(entry[0].ad_id)
            if shown is None:
                continue
            part = shown[word0:word0 + range_words]
            if part.size:
                avail[i, :part.size] &= ~part

    def _run_sweep(self, stats: DeliveryStats, cols: Any, start: int,
                   stop: int, max_rounds: int,
                   delta: Optional[Dict[str, tuple]]) -> None:
        n = stop - start
        if n == 0:
            return
        entries = self._sweep_candidates()
        if not entries:
            return
        avail = self._sweep_eligibility(entries, cols, start, stop)
        self._sweep_subtract_shown(avail, entries, start, stop)
        account_index: Dict[str, int] = {}
        acct_idx = np.empty(len(entries), dtype=np.int64)
        for i, entry in enumerate(entries):
            acct_idx[i] = account_index.setdefault(
                entry[0].account_id, len(account_index))
        bids = np.array([e[2] for e in entries], dtype=np.float64)
        active = AdStatus.ACTIVE
        draw = self._competing_draw
        constant = getattr(draw, "constant", None)
        floor = self.floor_price
        obs_on = self._obs_on
        wins = _SweepWins(avail.shape, priced=delta is not None)
        lists: Optional[SweepLists] = None
        lists_for: Optional[List[int]] = None

        try:
            for _ in range(max_rounds):
                # Round candidates: the dynamic checks the scalar slot
                # path applies per user, hoisted — status and
                # affordability are user-independent, so one pass per
                # round suffices. A certified round leaves every one
                # affordable, so the lists built for them carry over.
                rc = [i for i, e in enumerate(entries)
                      if e[0].status is active
                      and e[1].budget + 1e-12 >= e[2]]
                if not rc:
                    break
                if rc != lists_for:
                    wins.clear_from(avail)
                    lists = SweepLists(avail, rc, acct_idx[rc], n)
                    lists_for = rc

                # Phase A: per-row winner/runner-up selection, the head
                # of each row's list. Both are draw-independent (the
                # competing bid only decides win/lose and price), so no
                # RNG is consumed before the budget certificate — a
                # fallback round must replay with a virgin draw stream.
                rel_rows, wcand, rcand, contenders = lists.auction()
                if not rel_rows.size:
                    # No user in range has any eligible candidate left:
                    # the per-slot loop would drop every user and stop.
                    # Nothing is counted (dropped users never reach the
                    # auction).
                    break
                runner = np.where(rcand >= 0, bids[rcand], 0.0)
                slots = len(rel_rows)
                winner_bids = bids[wcand]

                # Phase B: the budget certificate. The vector round
                # assumed eligibility fixed at round start; that is
                # exactly the scalar outcome unless some account's
                # budget could cross below a candidate's bid mid-round.
                # Bound each win's charge (the exact price under a
                # constant draw, the winner's bid otherwise), sum per
                # account, and require every round candidate to remain
                # affordable under full planned spend — budgets are
                # monotone, so passing the worst case certifies every
                # intermediate state.
                if constant is not None:
                    bound = np.minimum(
                        np.maximum(np.maximum(runner, constant), floor),
                        winner_bids)
                else:
                    bound = winner_bids
                planned = np.bincount(acct_idx[wcand], weights=bound,
                                      minlength=len(account_index))
                certified = all(
                    entries[i][1].budget - planned[acct_idx[i]] + 1e-12
                    >= entries[i][2]
                    for i in rc
                )
                if not certified:
                    if delta is not None:
                        raise StoreError(
                            f"{self.engine_id}: budget flip inside a "
                            "partitioned sweep range; run the sweep "
                            "single-process (sweep_slots) so the scalar "
                            "fallback can replay the round exactly")
                    if obs_on:
                        self._obs_sweep_budget_rounds.inc()
                    # Exact scalar replay of this round: the same
                    # per-user code path serve_slot uses, over
                    # every row in range (users with nothing eligible
                    # contribute nothing, matching the per-slot loop's
                    # drop-from-rotation). It reads the shown bitsets as
                    # the cap, so the vector rounds' wins fold in first;
                    # the lists are rebuilt from what it leaves. The
                    # session match cache may hold entries the vector
                    # rounds never pruned — drop it wholesale.
                    self._sweep_fold(entries, start, wins, delta)
                    if self._match_cache is not None:
                        self._match_cache.clear()
                    store = self._user_store
                    progressed, _ = self._serve_round(
                        (UserView(store, r) for r in range(start, stop)),
                        stats, saturating=True)
                    self._sweep_subtract_shown(avail, entries, start, stop)
                    lists_for = None
                    if not progressed:
                        break
                    continue

                # Phase C: decide, count, and apply in bulk. Draws
                # happen here, one per auctioned user in ascending row
                # order — the exact sequence the per-slot loop consumes.
                if constant is not None:
                    competing = np.full(slots, constant)
                else:
                    competing = np.fromiter(
                        (draw() for _ in range(slots)),
                        dtype=np.float64, count=slots)
                won = (winner_bids > competing) & (winner_bids >= floor)
                price = np.minimum(
                    np.maximum(np.maximum(runner, competing), floor),
                    winner_bids)
                won_count = int(won.sum())
                stats.slots += slots
                stats.filled_by_tracked_ads += won_count
                stats.lost_to_competition += slots - won_count
                if obs_on:
                    self._obs_slots.inc(slots)
                    self._obs_sweep_rounds.inc()
                observe_auctions(contenders, price[won], slots - won_count)
                if won_count == 0:
                    break
                # A lost slot keeps its candidate for the next round.
                lists.advance(rel_rows[won])
                self._sweep_apply(entries, start, rel_rows[won],
                                  wcand[won], price[won], wins)
        finally:
            self._sweep_fold(entries, start, wins, delta)

    def _sweep_apply(self, entries: List[tuple], start: int,
                     rel_rows: np.ndarray, wcand: np.ndarray,
                     price: np.ndarray, wins: "_SweepWins") -> None:
        """Bill and record one vector round's wins, the same way in both
        modes: one billing run, the impression records (the scalar
        loop's seq, user, price and row order) to the journal and, in
        full mode, to the log and feeds, and the wins into ``wins`` for
        the shown-bitset fold (:meth:`_sweep_fold`)."""
        users = self._user_store
        count = len(rel_rows)
        seq_base = self._impression_seq
        # One order-exact billing fold for the whole round: budgets and
        # spend accumulate in delivery (row) order, exactly as per-
        # impression charges would.
        round_cands = np.flatnonzero(
            np.bincount(wcand, minlength=len(entries)))
        slot = np.empty(len(entries), dtype=np.int64)
        slot[round_cands] = np.arange(len(round_cands))
        self._ledger.charge_impression_run(
            [(entries[c][0].ad_id, entries[c][0].account_id)
             for c in round_cands.tolist()],
            slot[wcand], price)
        journal = not self._store.discards_records
        log = not self._compact
        if journal or log:
            # Charge first, then journal and log, as _deliver does.
            for j in range(count):
                ad = entries[int(wcand[j])][0]
                impression = Impression(
                    seq=seq_base + j, ad_id=ad.ad_id,
                    account_id=ad.account_id,
                    user_id=users.id_of(start + int(rel_rows[j])),
                    price=float(price[j]))
                if journal:
                    self._store.append(impression)
                if log:
                    self._log_impression(impression, ad)
        if not journal:
            self._store.note_discarded(count)
        wins.record(rel_rows, wcand, price)
        self._impression_count += count
        self._impression_seq = seq_base + count
        if self._obs_on:
            self._obs_impressions.inc(count)

    def _sweep_fold(self, entries: List[tuple], start: int,
                    wins: "_SweepWins",
                    delta: Optional[Dict[str, tuple]]) -> None:
        """Fold the wins recorded since the last fold into the shown
        bitsets and per-ad counts (ads in first-win order, as per-round
        folds would insert them) and, for a parallel worker, into its
        delta. A worker folds once: it never runs a fallback round."""
        word0 = start // bitset.WORD_BITS
        for cand in wins.order:
            ad = entries[cand][0]
            words = wins.delivered[cand]
            count = int(wins.counts[cand])
            self._or_shown(ad.ad_id, word0, words, count)
            if delta is not None:
                delta[ad.ad_id] = (ad.account_id, word0, words, count,
                                   float(wins.spent[cand]))
        wins.reset()

    def _or_shown(self, ad_id: str, word0: int, words: np.ndarray,
                  count: int) -> None:
        """Bulk twin of :meth:`_mark_shown`'s bit and per-ad count: OR
        ``words`` into the ad's shown bitset from word ``word0`` on and
        count ``count`` impressions of the ad."""
        shown = self._shown_bits.get(ad_id)
        if shown is None:
            shown = bitset.make_bitset(len(self._user_store))
        shown = bitset.ensure_width(
            shown, (word0 + len(words)) * bitset.WORD_BITS)
        shown[word0:word0 + len(words)] |= words
        self._shown_bits[ad_id] = shown
        self._impression_count_by_ad[ad_id] = (
            self._impression_count_by_ad.get(ad_id, 0) + count)

    def absorb_sweep_delta(self, delta: Dict[str, tuple]) -> None:
        """Fold a partitioned sweep's per-ad results into this engine.

        The parent side of :mod:`repro.platform.parsweep`: each value is
        the ``(account_id, start_word, words, count, price_sum)`` tuple
        a worker's ``sweep_slots(..., _collect_delta=True)`` produced
        for a disjoint row range. Ads fold in sorted id order so the
        merge is deterministic regardless of worker arrival order.
        """
        if not self._compact:
            raise StoreError(
                f"{self.engine_id}: sweep deltas fold into compact "
                "engines only")
        total = 0
        for ad_id in sorted(delta):
            account_id, start_word, words, count, price_sum = delta[ad_id]
            self._or_shown(ad_id, start_word, words, count)
            self._ledger.charge_impressions_bulk(
                ad_id, account_id, price_sum, count)
            total += count
        if total:
            self._impression_count += total
            self._impression_seq += total
            if self._store.discards_records:
                self._store.note_discarded(total)
            if self._obs_on:
                self._obs_impressions.inc(total)

    # -- views ---------------------------------------------------------------

    def _require_full_logs(self, operation: str) -> None:
        if self._compact:
            raise StoreError(
                f"{self.engine_id}: compact delivery does not retain "
                f"per-impression state ({operation})")

    def feed(self, user_id: str) -> List[DeliveredAd]:
        """The ads a user has seen, in delivery order (user-visible)."""
        self._require_full_logs("feed")
        return list(self._feeds.get(user_id, ()))

    def impressions(self) -> List[Impression]:
        """Platform-internal impression log (reporting reads this)."""
        self._require_full_logs("impressions")
        return list(self._impressions)

    def impression_count(self) -> int:
        """Total delivered impressions (works in both modes)."""
        return self._impression_count

    def impression_count_for_ad(self, ad_id: str) -> int:
        return self._impression_count_by_ad.get(ad_id, 0)

    def delivered_ads(self) -> List[str]:
        """Ids of the ads with at least one impression (both modes)."""
        return list(self._impression_count_by_ad)

    def record_click(self, user_id: str, ad_id: str) -> None:
        """Record a click; only users who actually received the ad can
        click it (anything else is a caller bug, not ad traffic)."""
        row = self._user_store.row_of(user_id)
        bits = self._shown_bits.get(ad_id)
        if row is None or bits is None or not bitset.test_bit(bits, row):
            raise ValueError(
                f"user {user_id!r} never received ad {ad_id!r}"
            )
        click = Click(ad_id=ad_id, user_id=user_id,
                      click_seq=self._click_count)
        self._store.append(click)
        self._apply_click(click)
        self._obs_clicks.inc()

    def _apply_click(self, click: Click) -> None:
        """Fold one click into the log and the per-ad view (shared by
        the live path, restore, import, and replay)."""
        if not self._compact:
            self._clicks.append(click)
        self._click_count += 1
        self._clicks_by_ad[click.ad_id] = (
            self._clicks_by_ad.get(click.ad_id, 0) + 1
        )

    def clicks(self) -> List[Click]:
        """Platform-internal click log, in click order."""
        self._require_full_logs("clicks")
        return list(self._clicks)

    def clicks_for_ad(self, ad_id: str) -> int:
        return self._clicks_by_ad.get(ad_id, 0)

    def unique_reach(self, ad_id: str) -> Set[str]:
        """Distinct users reached by an ad (platform-internal)."""
        bits = self._shown_bits.get(ad_id)
        if bits is None:
            return set()
        return self._user_store.rows_to_ids(bits)

    def reach_count(self, ad_id: str) -> int:
        """Number of distinct users reached — one popcount, no set
        copy."""
        bits = self._shown_bits.get(ad_id)
        return 0 if bits is None else bitset.popcount(bits)

    # -- state snapshot / migration ------------------------------------------

    def snapshot_stats(self) -> Dict[str, object]:
        """Debug snapshot of this engine's accumulated state.

        Cheap (counts only, no copies) and assertion-friendly: the
        serving layer surfaces one per shard, keyed by ``engine_id``, so
        an imbalanced or double-delivering shard is visible at a glance.
        """
        shown = list(self._shown_bits.values())
        reached = bitset.union_all(shown, len(self._user_store))
        return {
            "engine_id": self.engine_id,
            "impressions": self._impression_count,
            "clicks": self._click_count,
            "users_with_feeds": len(self._feeds),
            "users_reached": bitset.popcount(reached),
            "ads_delivered": len(self._shown_bits),
            "capped_pairs": sum(bitset.popcount(bits) for bits in shown),
            "indexed_ads": self._indexed_ad_count,
            "in_session": self._match_cache is not None,
        }

    @property
    def store(self) -> StateStore:
        return self._store

    def _require_out_of_session(self, operation: str) -> None:
        if self._match_cache is not None:
            raise StoreError(
                f"{self.engine_id}: cannot {operation} inside a "
                "serving session"
            )

    def export_state(
        self, user_ids: Optional[Set[str]] = None
    ) -> Dict[str, Any]:
        """Export per-user delivery state, optionally for a user subset.

        Everything exported is per-user, so exporting the users a shard
        is giving up and importing them elsewhere preserves every
        engine-level invariant (deliver-once via the shown bitsets,
        exact reporting via the logs). The export is JSON-safe — impressions
        and clicks as their journal-record dicts — because it is also
        the engine's snapshot section (see :meth:`state_dump`). Shown
        bitsets and feeds are not exported: import rebuilds both from
        the impressions (and the shared inventory).
        """
        self._require_full_logs("export state")
        if user_ids is None:
            impressions: List[Impression] = self._impressions
            clicks: List[Click] = self._clicks
        else:
            impressions = [i for i in self._impressions
                           if i.user_id in user_ids]
            clicks = [c for c in self._clicks if c.user_id in user_ids]
        return {
            "impressions": [record_to_dict(i) for i in impressions],
            "clicks": [record_to_dict(c) for c in clicks],
        }

    def import_state(self, state: Dict[str, Any]) -> None:
        """Merge exported per-user state into this engine, journaling it.

        The migration hook behind :meth:`repro.serve.ShardRouter.rebalance`:
        each imported impression/click is appended to this engine's
        store (the receiving journal must account for every unit of
        state it holds, or crash recovery after a migration would lose
        it) and folded through the same ``_apply_*`` path as live
        delivery, so every read answers as if this engine had delivered
        the imported impressions itself. Must not be called mid-session
        (single-owner rule; the serving layer only migrates between
        serving windows).
        """
        self._require_out_of_session("import state")
        self._require_full_logs("import state")
        self._fold_state(state, journal=True)

    def _fold_state(self, state: Dict[str, Any], journal: bool) -> None:
        """Fold an exported state in, all or nothing: every record is
        checked (its kind; a known user for every impression) before
        any is journaled or folded, so refused input leaves neither the
        journal nor the engine changed."""
        if state.get("extra_caps"):
            # Dumps once carried an (always empty) ``extra_caps`` list of
            # cap counts beyond what the impressions imply; no engine
            # ever wrote a non-empty one, so one is foreign input.
            raise StoreError(
                "delivery state carries cap counts beyond its "
                "impressions (extra_caps); every cap must come from an "
                "impression record")
        impressions = _records_of(state, "impressions", ImpressionRecorded)
        clicks = _records_of(state, "clicks", ClickRecorded)
        for record in impressions:
            if self._user_store.row_of(record.user_id) is None:
                raise StoreError(
                    f"{self.engine_id}: impression for unknown user "
                    f"{record.user_id!r}")
        for record in impressions:
            if journal:
                self._store.append(record)
            self._apply_impression(record)
        for record in clicks:
            if journal:
                self._store.append(record)
            self._apply_click(record)

    # -- state owner ---------------------------------------------------------

    def state_dump(self) -> Dict[str, Any]:
        dump = self.export_state()
        dump["impression_seq"] = self._impression_seq
        return dump

    def state_load(self, state: Dict[str, Any]) -> None:
        """Replace all mutable delivery state with a prior dump.

        Unlike :meth:`import_state` this is the restore path: nothing is
        journaled (the records behind this dump are already in the
        journal, before the snapshot point), and existing state is
        discarded first.
        """
        self._require_out_of_session("load state")
        self._impression_seq = 0
        self._impressions = []
        self._clicks = []
        self._feeds = defaultdict(list)
        self._clicks_by_ad = {}
        self._shown_bits = {}
        self._impression_count = 0
        self._impression_count_by_ad = {}
        self._click_count = 0
        self._fold_state(state, journal=False)
        seq = state.get("impression_seq")
        if isinstance(seq, int) and seq > self._impression_seq:
            self._impression_seq = seq

    def apply_record(self, record: ChangeRecord) -> None:
        """Replay one journal record (no journaling, no obs).

        An impression record implies its charge (see ``_deliver``), so
        replaying one re-debits the ledger first — matching the live
        order — then folds the impression. Snapshot restore does NOT
        come through here: the ledger's own dump carries its aggregates
        and budgets, so only journal replay re-derives charges.
        """
        if isinstance(record, ImpressionRecorded):
            self._ledger.apply_implied_charge(
                ad_id=record.ad_id,
                account_id=record.account_id,
                amount=record.price,
                impression_seq=record.seq,
            )
            self._apply_impression(record)
        elif isinstance(record, ClickRecorded):
            self._apply_click(record)
        else:
            raise StoreError(
                f"delivery cannot apply record kind {record.kind!r}")
