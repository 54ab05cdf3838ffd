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

Performance model (see docs/api_tour.md, "Performance model"): one
eligibility kernel serves every slot, online or in a campaign. Each
spec is lowered once (:func:`repro.platform.targeting.lower_spec`) and
evaluated by its range backend over a block of rows at a time; a slot
then reads its row's **candidate list** — the spec-matched ads in
auction-priority order — and skips what is capped, inactive or
unaffordable. The lists are rebuilt only when an ad arrives or the
world the specs read changes. Reporting reads (per-ad impressions,
clicks, unique reach) are maintained incrementally at delivery time
instead of scanning the logs.

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
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Dict, Iterable, List, NamedTuple, Optional,
    Sequence, Set, Tuple,
)

import numpy as np

from repro.errors import StoreError
from repro.obs import tracing as obs_tracing
from repro.obs.metrics import MetricsRegistry, registry as obs_registry
from repro.platform import bitset
from repro.platform.ads import Ad, AdImage, AdInventory, AdStatus
from repro.platform.auction import (
    AuctionOutcome,
    observe_auctions,
    run_auction,
)
from repro.platform.audiences import AudienceRegistry
from repro.platform.billing import BillingLedger
from repro.platform.colstore import ColumnarUserStore, UserView
from repro.platform.targeting import evaluate_packed, lower_spec
from repro.store.records import (
    ChangeRecord,
    ClickRecorded,
    ImpressionRecorded,
    record_from_dict,
    record_to_dict,
)
from repro.store.store import MemoryStore, StateStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.competition import KeyedCompetition

_log = logging.getLogger("repro.platform.delivery")

#: Platform-internal record of one delivered impression — the journal
#: record *is* the log entry (see the state-model note above).
Impression = ImpressionRecorded

#: Platform-internal record of one ad click.
Click = ClickRecorded


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


def budgets_hold(budgets: np.ndarray, planned: np.ndarray,
                 owner: np.ndarray, bids: np.ndarray) -> bool:
    """The sweep's one budget rule: after account ``a`` spends
    ``planned[a]`` of ``budgets[a]``, every candidate (account
    ``owner[i]``, bid ``bids[i]``) is still affordable. Budgets only
    fall, so every state in between passes too: no candidate's
    eligibility flips while that spend is billed."""
    return bool(np.all(budgets[owner] - planned[owner] + 1e-12 >= bids))


#: Rows per block while candidate lists are built (:class:`SweepLists`,
#: and the per-slot lists of :meth:`DeliveryEngine._row_candidates`). It
#: bounds the build's transients whatever the range size: the block's
#: packed copy (512 bytes per candidate) and a few 8-byte integers per
#: bit set in it.
_LIST_BLOCK_ROWS = 4096


class SweepLists:
    """Per-row candidate lists: the sweep rounds' auction kernel.

    ``avail`` is a packed ``(entries x words)`` matrix whose bit ``r`` of
    row ``e`` says entry ``e`` is available to row ``r``;
    ``candidates`` lists the round's entries in auction-priority order
    and ``accounts[k]`` is the account of ``candidates[k]``. Each of the
    ``nrows`` (at least one) rows gets the list of its available
    candidates (entry indices, priority order) in one CSR.

    A list falls into **runs**: stretches of positions held by one
    account. Within a run the runner-up (the best other account's
    candidate, at the start of the row's next run) and the number of
    distinct accounts from there to the row's end never change, so the
    lists keep them once per run — ``run_next``, the entry that starts
    the row's next run (``no_entry`` when none does), and
    ``run_accounts`` — and per position only ``run_at``, its run's index
    within its row (a row's runs are numbered from ``row_run0``). With
    the round each position was delivered in, that is 5 bytes a pair
    and 3 a run for the Treads campaign (2-byte entry and run index,
    1-byte round; 2-byte runner-up and 1-byte count).

    Across rounds a row's winner is its next undelivered candidate: a
    won slot caps exactly that (entry, row) pair, so :meth:`advance`
    moves the row's pointer past it and everything behind the pointer
    is still available. The lists are therefore also the sweep's record
    of its wins: a row delivered the positions in front of its pointer,
    and ``won`` holds the round each position was delivered in
    (``max_rounds`` while it is not). The lists hold only while the
    candidate set does; the sweep folds their wins and builds new ones
    when it changes.

    ``step`` (a :class:`_OneStep`) reads each block's lists and runs as
    they are built, so the one-step delivery under a constant market
    tallies the block while it is still in cache.
    """

    def __init__(self, avail: np.ndarray, candidates: Sequence[int],
                 accounts: Sequence[int], nrows: int, max_rounds: int,
                 step: Optional["_OneStep"] = None) -> None:
        candidates = np.asarray(candidates, dtype=np.int64)
        #: The lists' account codes (ascending caller account values)
        #: and each candidate position's code.
        self.codes, inverse = np.unique(np.asarray(accounts),
                                        return_inverse=True)
        self.accounts = inverse.astype(np.min_scalar_type(len(self.codes)))
        self.no_entry = len(avail)
        # Every per-pair array is allocated once, at its final length
        # (the candidates' bits), and filled block by block.
        pairs = int(bitset.row_popcounts(
            avail[:, :bitset.words_for(nrows)])[candidates].sum())
        self.cand = np.empty(pairs, dtype=np.min_scalar_type(self.no_entry))
        self.run_at = np.empty(pairs,
                               dtype=np.min_scalar_type(len(candidates)))
        self.no_round = max_rounds
        self.won = np.full(pairs, max_rounds,
                           dtype=np.min_scalar_type(max_rounds))
        next_parts: List[np.ndarray] = []
        distinct_parts: List[np.ndarray] = []
        counts = np.zeros(nrows, dtype=np.int64)
        runs = np.zeros(nrows, dtype=np.int64)
        p0 = 0
        for r0 in range(0, nrows, _LIST_BLOCK_ROWS):
            nb = min(nrows - r0, _LIST_BLOCK_ROWS)
            w0 = r0 // bitset.WORD_BITS
            block = avail[candidates, w0:w0 + bitset.words_for(nb)]
            row, pos = _set_bits(block.view(np.uint8), nb)
            p1 = p0 + len(row)
            row_counts = np.bincount(row, minlength=nb)
            acct = self.accounts[pos]
            first = np.ones(len(row), dtype=bool)
            first[1:] = (row[1:] != row[:-1]) | (acct[1:] != acct[:-1])
            starts = np.flatnonzero(first)
            run_row = row[starts]
            row_runs = np.bincount(run_row, minlength=nb)
            run_of = np.cumsum(first, dtype=np.int32) - 1
            cand = self.cand[p0:p1]
            cand[:] = candidates[pos]
            nxt = np.full(len(starts), self.no_entry, dtype=cand.dtype)
            same = np.flatnonzero(run_row[1:] == run_row[:-1])
            nxt[same] = cand[starts[same + 1]]
            distinct = _accounts_to_row_end(run_row, acct[starts], row_runs,
                                            len(self.codes))
            if step is not None:
                step.block(r0, row, pos, acct, row_counts, run_of, starts,
                           nxt, distinct, cand, self.won[p0:p1])
            counts[r0:r0 + nb] = row_counts
            runs[r0:r0 + nb] = row_runs
            self.run_at[p0:p1] = run_of - (np.cumsum(row_runs) - row_runs)[row]
            next_parts.append(nxt)
            distinct_parts.append(
                distinct.astype(np.min_scalar_type(len(self.codes))))
            p0 = p1
        if p0 < pairs:  # bits past nrows, which the lists leave out
            self.cand, self.run_at = self.cand[:p0], self.run_at[:p0]
            self.won = self.won[:p0]
        self.run_next = np.concatenate(next_parts)
        self.run_accounts = np.concatenate(distinct_parts)
        self.row_run0 = (np.cumsum(runs) - runs).astype(
            np.min_scalar_type(runs.sum()))
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
        run = self.row_run0[rows] + self.run_at[at]
        runner = self.run_next[run].astype(np.int64)
        runner[runner == self.no_entry] = -1
        return (rows, self.cand[at].astype(np.int64), runner,
                self.run_accounts[run])

    def advance(self, rows: np.ndarray, round_no: int) -> None:
        """The winners of ``rows`` were delivered in round ``round_no``:
        step past them."""
        at = self.ptr[rows]
        self.won[at] = round_no
        self.ptr[rows] = at + 1

    def delivered_words(self, avail: np.ndarray,
                        entries: np.ndarray) -> np.ndarray:
        """The packed ``(len(entries) x words)`` matrix of what each of
        ``entries`` (entry indices among the lists' candidates)
        delivered: their ``avail`` rows minus the positions still
        undelivered."""
        width = avail.shape[1]
        words = avail[entries]
        slot = np.full(len(avail), -1, dtype=np.int64)
        slot[entries] = np.arange(len(entries))
        pos = np.flatnonzero(self.won == self.no_round)
        owner = slot[self.cand[pos]]
        pos, owner = pos[owner >= 0], owner[owner >= 0]
        if pos.size:
            # Each bit is set, so subtracting it clears it (and takes a
            # faster path than bitwise_and.at).
            row = np.searchsorted(self.end, pos, side="right")
            np.subtract.at(words.reshape(-1), owner * width + (row >> 6),
                           np.left_shift(np.uint64(1),
                                         (row & 63).astype(np.uint64)))
        return words


class _OneStep:
    """The one-step delivery's tallies under the constant competing bid
    ``constant``, gathered block by block while :class:`SweepLists`
    builds (:meth:`DeliveryEngine._sweep_step` certifies and applies
    them).

    Each list position's outcome is fixed: it wins iff its bid beats
    the constant and the floor, at ``min(max(runner-up's bid, constant,
    floor), bid)``. Bids fall along a list, so a row delivers the
    positions before its first losing one, one per round, up to
    ``rounds`` (the rounds left) — ``take`` per row — and from then on
    loses one slot per round. Every price is one of the runner-up's bid
    (0 without one), the constant, the floor and the winner's bid, so it
    is kept as an index into their sorted ``values``: min and max
    commute with the sort, and the tallies stay small integer tables.

    With ``collect`` (a parallel worker) each block also marks its
    delivered positions' rounds in the lists and adds their prices into
    ``by_round``, per (round, entry) a left fold in row order.
    Otherwise it keeps each position's price for the per-round billing.
    """

    def __init__(self, bids: np.ndarray, candidates: Sequence[int],
                 n_accounts: int, constant: float, floor: float,
                 round0: int, max_rounds: int, nrows: int,
                 collect: bool) -> None:
        cap = max(constant, floor)
        values = np.sort(np.append(bids, (0.0, cap)))
        self.values = values[np.append(True, values[1:] != values[:-1])]
        self.width = len(self.values)
        # Per entry its bid's rank; past the last entry (a run with no
        # next run) the rank of the $0 no-runner-up price.
        self.rank = np.searchsorted(
            self.values, np.append(bids, 0.0)).astype(
                np.min_scalar_type(self.width))
        self.cap_rank = int(np.searchsorted(self.values, cap))
        wins = (bids > constant) & (bids >= floor)
        self.loses = None if wins[candidates].all() else ~wins[candidates]
        self.round0 = round0
        self.rounds = max_rounds - round0
        self.take = np.zeros(nrows, dtype=np.int64)
        self.most_winning = 0
        # Rows that reach a losing position: theirs and its run's count.
        self.stuck_rows: List[np.ndarray] = []
        self.stuck_counts: List[np.ndarray] = []
        # Impressions per (account code, price); slots per contender
        # count.
        self.tally = np.zeros(n_accounts * self.width, dtype=np.int64)
        self.contenders = np.zeros(n_accounts + 1, dtype=np.int64)
        self.collect = collect
        self.by_round = (
            np.zeros((min(self.rounds, len(candidates)), len(bids)))
            if collect else None)
        self.price_at: List[np.ndarray] = []

    def block(self, r0: int, row: np.ndarray, pos: np.ndarray,
              acct: np.ndarray, row_counts: np.ndarray,
              run_of: np.ndarray, starts: np.ndarray, nxt: np.ndarray,
              distinct: np.ndarray, cand: np.ndarray,
              won: np.ndarray) -> None:
        """Tally one block of lists (rows from ``r0``), as
        :class:`SweepLists` builds them: ``row``/``pos``/``acct``/
        ``cand`` per pair, ``run_of`` each pair's run in the block,
        ``starts``/``nxt``/``distinct`` per run."""
        row_start = np.cumsum(row_counts) - row_counts
        if self.loses is None:
            winning = row_counts
        else:
            winning = row_counts - np.bincount(
                row[self.loses[pos]], minlength=len(row_counts))
        take = np.minimum(winning, self.rounds)
        self.take[r0:r0 + len(take)] = take
        if len(winning):
            self.most_winning = max(self.most_winning, int(winning.max()))
        stuck = np.flatnonzero(winning < row_counts)
        if stuck.size:
            self.stuck_rows.append(r0 + stuck)
            self.stuck_counts.append(
                distinct[run_of[row_start[stuck] + take[stuck]]])
        offset = np.arange(len(row)) - row_start[row]
        price = np.minimum(
            np.maximum(self.rank[nxt], self.cap_rank)[run_of],
            self.rank[cand])
        if not self.collect:
            self.price_at.append(price)
        if np.array_equal(take, row_counts):
            sel: Any = slice(None)
            per_run = np.diff(starts, append=len(row))
        else:
            sel = np.flatnonzero(offset < take[row])
            per_run = np.bincount(run_of[sel], minlength=len(starts))
            offset, price, acct, cand = (offset[sel], price[sel], acct[sel],
                                         cand[sel])
        # Account codes are narrow integers: widen before multiplying.
        self.tally += np.bincount(acct * np.intp(self.width) + price,
                                  minlength=len(self.tally))
        self.contenders += np.bincount(
            distinct, weights=per_run,
            minlength=len(self.contenders)).astype(np.int64)
        if self.collect:
            won[sel] = self.round0 + offset
            # ufunc.at adds in index order: each (round, entry) cell is
            # a left fold over its prices in row order.
            np.add.at(self.by_round.reshape(-1),
                      offset * self.by_round.shape[1] + cand,
                      self.values[price])

    def finish(self, codes: np.ndarray, n_accounts: int
               ) -> Tuple[int, int, np.ndarray, np.ndarray]:
        """After the last block: ``(rounds, missed, contenders,
        tally)`` — the step's round count (a round runs while the one
        before it won something); the slots lost after rows' last wins;
        the contender histogram, those slots included; and impressions
        per (account, price rank) over ``n_accounts`` accounts, the
        lists' account ``codes`` naming their rows."""
        stuck = (np.concatenate(self.stuck_rows) if self.stuck_rows
                 else np.zeros(0, dtype=np.int64))
        rounds = min(self.rounds, self.most_winning + bool(stuck.size))
        lost = rounds - self.take[stuck]
        contenders = self.contenders
        if stuck.size:
            contenders = contenders + np.bincount(
                np.concatenate(self.stuck_counts), weights=lost,
                minlength=len(contenders)).astype(np.int64)
        tally = np.zeros((n_accounts, self.width), dtype=np.int64)
        tally[codes] = self.tally.reshape(-1, self.width)[:len(codes)]
        return rounds, int(lost.sum()), contenders, tally

    def spend(self) -> np.ndarray:
        """Each entry's spend (``collect``): its per-round folds added
        in round order."""
        spent = np.zeros(self.by_round.shape[1])
        for round_spend in self.by_round[:int(self.take.max())]:
            spent += round_spend
        return spent


def _set_bits(block: np.ndarray, nrows: int
              ) -> Tuple[np.ndarray, np.ndarray]:
    """Every set bit of a packed ``(candidates x bytes)`` block as
    ``(row, candidate position)`` pairs in (row, position) order, rows
    below ``nrows`` (at most 65,536) only."""
    width = block.shape[1]
    flat = block.reshape(-1)
    at = np.flatnonzero(flat)
    # unpackbits writes 0/1, so its bytes view as booleans as they are,
    # and flatnonzero scans booleans several times faster than bytes.
    bits = np.flatnonzero(np.unpackbits(flat[at][:, None], axis=1,
                                        bitorder="little").view(np.bool_))
    at = at[bits >> 3]
    pos = at // width
    row = ((at - pos * width) << 3) + (bits & 7)
    keep = row < nrows
    row, pos = row[keep].astype(np.uint16), pos[keep]
    # Stable by row, so positions stay ascending within each row (a
    # 16-bit key sorts by radix).
    order = np.argsort(row, kind="stable")
    return row[order], pos[order]


def _accounts_to_row_end(row: np.ndarray, acct: np.ndarray,
                         row_counts: np.ndarray,
                         n_accounts: int) -> np.ndarray:
    """Per item of a CSR in (row, priority) order — a list position, or
    a run of them — how many distinct accounts hold an item from it to
    the row's end: a suffix count of each (row, account)'s last item."""
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


class SweepDelta(NamedTuple):
    """A parallel sweep range's wins, as the parent folds them
    (:meth:`DeliveryEngine.absorb_sweep_delta`): one row per ad that won
    in the range, in first-win order. ``words`` is one packed
    ``(ads x range words)`` matrix of the rows each ad delivered, from
    shown-bitset word ``start_word`` on; ``counts`` and ``spent`` are
    each ad's impressions and spend. One matrix, so the whole delta
    crosses a socket as three out-of-band buffers whatever the ad count.
    """

    ad_ids: List[str]
    account_ids: List[str]
    start_word: int
    words: np.ndarray
    counts: np.ndarray
    spent: np.ndarray


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
    process-wide lowering cache) is safe across engines because lowered
    programs are pure functions; everything mutable — candidate lists,
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
        competition: "KeyedCompetition",
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
        #: Slot ``s`` of user row ``r`` meets ``competition.bid(r, s)``.
        self.competition = competition
        #: Per row, its count of slots auctioned here (random markets).
        self._slot_counts = np.zeros(0, dtype=np.int64)
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
        # -- candidates (see _sweep_candidates, _row_candidates) ------------
        #: ``(ad, account, bid)`` per ad that passed the min-match
        #: defense, in auction-priority order (bid desc, ad id asc).
        self._candidates: List[tuple] = []
        self._candidate_ad_count = 0
        #: block index -> (row offsets, candidate indices): one CSR of
        #: each row's spec-matched candidates, in priority order.
        self._row_lists: Dict[int, Tuple[List[int], np.ndarray]] = {}
        self._row_lists_key: Optional[tuple] = None
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
        self._obs_cap_rejections = reg.counter(
            "delivery.frequency_cap_rejections")
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

    def _sweep_candidates(self) -> List[tuple]:
        """The candidate list, brought up to date with the inventory.

        ``(ad, account, bid)`` per ad, in global auction-priority order:
        sorting by (bid desc, ad id asc) makes a row's first eligible
        candidate its winner (per-account champions, then top-2 —
        :func:`repro.platform.auction.run_auction` uses exactly this
        order). Ads are never removed from the inventory, so only ads
        added since the last sync join, and ads the min-match defense
        withholds never do. Status flips and budget exhaustion need no
        list surgery: every slot and every sweep round re-checks them.
        """
        count = self._inventory.ad_count()
        if count != self._candidate_ad_count:
            for ad in self._inventory.ads()[self._candidate_ad_count:]:
                if self._matches_enough_users(ad):
                    self._candidates.append(
                        (ad, self._inventory.account(ad.account_id),
                         ad.bid_per_impression))
            self._candidates.sort(key=lambda e: (-e[2], e[0].ad_id))
            self._candidate_ad_count = count
        return self._candidates

    def _row_candidates(self, row: int) -> List[int]:
        """Indices into :meth:`_sweep_candidates` of the ads whose spec
        matches store row ``row``, in priority order.

        The lists come from the sweep's own eligibility evaluation
        (:meth:`_sweep_eligibility`), built for a block of
        ``_LIST_BLOCK_ROWS`` rows on its first use. They are dropped
        whenever an ad arrives or the world the specs read changes: the
        key is the ad count plus what the audience bitsets key on
        (:attr:`repro.platform.audiences.AudienceRegistry.mutation_key`).
        """
        key = (self._inventory.ad_count(), self._audiences.mutation_key)
        if key != self._row_lists_key:
            self._row_lists = {}
            self._row_lists_key = key
        block, at = divmod(row, _LIST_BLOCK_ROWS)
        lists = self._row_lists.get(block)
        if lists is None:
            entries = self._sweep_candidates()
            start = block * _LIST_BLOCK_ROWS
            n = min(len(self._user_store) - start, _LIST_BLOCK_ROWS)
            avail = self._sweep_eligibility(entries, self._user_store.columns,
                                            start, start + n)
            rows, pos = _set_bits(avail.view(np.uint8), n)
            offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(rows, minlength=n), out=offsets[1:])
            lists = (offsets.tolist(),
                     pos.astype(np.min_scalar_type(len(entries))))
            self._row_lists[block] = lists
        offsets, cand = lists
        return cand[offsets[at]:offsets[at + 1]].tolist()

    def _slot_contenders(self, user: UserView) -> Tuple[List[Ad], bool]:
        """Eligible ads for one slot, one per account.

        Returns ``(contenders, had_eligible)``. Walks the row's candidate
        list and skips what the spec match does not settle: ads already
        shown to the user (the cap of 1, read from the per-ad shown
        bitsets and counted into ``delivery.frequency_cap_rejections``),
        ads not ``ACTIVE``, and ads their account cannot afford. The
        list is in priority order, so the first survivor per account is
        the one ad of that account the auction would consider.
        ``had_eligible`` feeds the run-loop stats (lost-to-competition
        vs no-eligible-ad) without a second evaluation.
        """
        row = user.row
        matched = self._row_candidates(row)
        entries = self._candidates
        shown = self._shown_bits
        word, bit = row >> 6, 1 << (row & 63)
        active = AdStatus.ACTIVE
        accounts: Set[str] = set()
        contenders: List[Ad] = []
        capped = 0
        for i in matched:
            ad, account, bid = entries[i]
            # ndarray.item, not bitset.test_bit: this runs once per
            # matched entry, and test_bit's numpy scalar ops cost about
            # ten times more per call.
            bits = shown.get(ad.ad_id)
            if bits is not None and word < len(bits) and \
                    bits.item(word) & bit:
                capped += 1
            elif (ad.account_id not in accounts and ad.status is active
                  and account.budget + 1e-12 >= bid):  # can_afford
                accounts.add(ad.account_id)
                contenders.append(ad)
        if capped and self._obs_on:
            self._obs_cap_rejections.inc(capped)
        return contenders, bool(contenders)

    # -- slot serving --------------------------------------------------------

    def serve_slot(self, user: UserView,
                   slot: Optional[int] = None) -> AuctionOutcome:
        """Auction ``user``'s slot number ``slot`` (which keys its
        competing bid; by default their next one); deliver the winner."""
        with obs_tracing.tracer().span("serve_slot", user_id=user.user_id):
            contenders, _ = self._slot_contenders(user)
            return self._auction_slot(user, contenders, slot)

    def _auction_slot(self, user: UserView, eligible: Sequence[Ad],
                      slot: Optional[int] = None) -> AuctionOutcome:
        """Auction one slot against a pre-computed eligible list.

        The run loops thread their eligibility result through here so
        each slot evaluates eligibility exactly once (previously the
        stats paths re-evaluated it after the auction).
        """
        if self._obs_on:
            self._obs_slots.inc()
        competing = self.competition.constant
        if competing is None:
            row = user.row
            if slot is None:
                counts = self._row_slot_counts()
                slot = int(counts[row])
                counts[row] = slot + 1
            competing = self.competition.bid(row, slot)
        outcome = run_auction(
            eligible,
            competing_bid=competing,
            floor_price=self.floor_price,
        )
        if outcome.winner is not None:
            self._deliver(outcome.winner, user, outcome.price)
        return outcome

    def _row_slot_counts(self) -> np.ndarray:
        """The per-row slot counters, grown with zeros to the store."""
        grow = len(self._user_store) - len(self._slot_counts)
        if grow > 0:
            self._slot_counts = np.pad(self._slot_counts, (0, grow))
        return self._slot_counts

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
        re-read from the shared inventory).
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
        with obs_tracing.tracer().span("delivery.run_sessions",
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
    # evaluated for a whole row range at once, every candidate's mask
    # program in one packed pass (repro.platform.targeting.evaluate_packed).
    # Delivery then walks per-row candidate lists (SweepLists): a row's
    # winner is its next undelivered candidate in priority order. Under a
    # constant market every remaining round is known as soon as
    # the lists exist — each position wins iff its bid beats the constant
    # and the floor, at a price its run's runner-up fixes — so one step
    # delivers them all, tallied block by block as the lists are built:
    # each row takes its winning list prefix at once, gated by the
    # budget rule (budgets_hold) over the step's exact spend. A random
    # market (or a step that breaks the rule) runs round by round, each
    # round reading one list position per row and drawing its rows'
    # keyed bids in one call. Single-process sweeps bill each round in
    # one order-exact fold; a parallel worker (constant markets only)
    # takes its step unchecked, bills nothing and ships its spend in its
    # delta, which its parent checks against the same rule and bills.
    # The lists record every win (pointer and won round per position),
    # so the shown bitsets and counters — or a worker's delta — absorb
    # them once, from the lists. Semantics — winners, prices,
    # stats, reports — are identical to saturating the same rows one
    # slot at a time (pinned by tests/integration/test_columnar_equivalence.py
    # and tests/platform/test_sweep_delivery.py); the two escape hatches
    # back to the per-slot path are per-spec (unlowerable Expr ->
    # Expr.matches per row fills that ad's mask) and per-round (an
    # account budget that could flip eligibility mid-round replays the
    # round through serve_slot's exact code path).

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
        eligible (user, ad) pair and 3 per run of one account's pairs);
        list building and the one-step delivery work, fused, in
        bounded row blocks. Returns the same
        :class:`DeliveryStats` that saturating the range one slot at a
        time would have produced.

        ``_collect_delta`` is the parallel partitioner's hook
        (:mod:`repro.platform.parsweep`), for constant markets: the
        range then delivers in one step as if no budget binds, bills
        nothing, leaves this engine's shown bitsets alone, and also
        returns the range's :class:`SweepDelta`. The parent checks the
        spend of all ranges' deltas against the budget rule before a
        compact engine absorbs them with :meth:`absorb_sweep_delta`.
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
        delta = self._run_sweep(stats, cols, start, stop, max_rounds,
                                _collect_delta)
        _log.info(
            "sweep_slots[%d:%d]: %d slots (%d filled, %d lost)",
            start, stop, stats.slots, stats.filled_by_tracked_ads,
            stats.lost_to_competition,
        )
        if _collect_delta:
            if delta is None:
                delta = SweepDelta([], [], start // bitset.WORD_BITS,
                                   np.zeros((0, 0), dtype=np.uint64),
                                   np.zeros(0, dtype=np.int64),
                                   np.zeros(0))
            return stats, delta
        return stats

    def _sweep_eligibility(self, entries: List[tuple], cols: Any,
                           start: int, stop: int) -> np.ndarray:
        """Per-candidate packed eligibility over rows [start, stop).

        Bit ``r`` of row ``i`` (relative to ``start``) says entry ``i``'s
        spec matches store row ``start + r``; bits past ``stop`` are
        zero. The lowered specs evaluate in one packed pass
        (:func:`repro.platform.targeting.evaluate_packed`), which
        computes each column read they share once; unlowerable specs
        fall back to ``Expr.matches`` on each row's view (counted by
        ``delivery.sweep_fallback_specs``).
        """
        programs = [lower_spec(entry[0].targeting) for entry in entries]
        lowered = [p for p in programs if p is not None]
        avail = evaluate_packed(lowered, cols, start, stop,
                                self._audiences.member_bitset_cached)
        fallbacks = len(programs) - len(lowered)
        if fallbacks:
            resolver = self._audiences.is_member
            store = self._user_store
            packed = iter(avail)
            avail = np.stack([
                next(packed) if program is not None
                else bitset.from_indices(
                    [r - start for r in range(start, stop)
                     if entry[0].targeting.matches(UserView(store, r),
                                                   resolver)],
                    stop - start)
                for entry, program in zip(entries, programs)])
            if self._obs_on:
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
                   collect: bool) -> Optional[SweepDelta]:
        n = stop - start
        if n == 0:
            return None
        entries = self._sweep_candidates()
        if not entries:
            return None
        avail = self._sweep_eligibility(entries, cols, start, stop)
        self._sweep_subtract_shown(avail, entries, start, stop)
        account_index: Dict[str, int] = {}
        accounts: List[Any] = []
        acct_idx = np.empty(len(entries), dtype=np.int64)
        for i, entry in enumerate(entries):
            if entry[0].account_id not in account_index:
                account_index[entry[0].account_id] = len(accounts)
                accounts.append(entry[1])
            acct_idx[i] = account_index[entry[0].account_id]
        bids = np.array([e[2] for e in entries], dtype=np.float64)
        active = AdStatus.ACTIVE
        constant = self.competition.constant
        floor = self.floor_price
        obs_on = self._obs_on
        spent = np.zeros(len(entries)) if collect else None
        lists: Optional[SweepLists] = None
        lists_for: Optional[List[int]] = None
        delta: Optional[SweepDelta] = None
        round_no = 0

        try:
            while round_no < max_rounds:
                # Round candidates: the dynamic checks the scalar slot
                # path applies per user, hoisted — status and
                # affordability are user-independent, so one pass per
                # round suffices. A certified round leaves every one
                # affordable, so the lists built for them carry over;
                # only a scalar replay round retires them.
                rc = [i for i, e in enumerate(entries)
                      if e[0].status is active
                      and e[1].budget + 1e-12 >= e[2]]
                if not rc:
                    break
                if rc != lists_for:
                    step = None if constant is None else _OneStep(
                        bids, rc, len(accounts), constant, floor, round_no,
                        max_rounds, n, collect)
                    lists = SweepLists(avail, rc, acct_idx[rc], n,
                                       max_rounds, step)
                    lists_for = rc
                    if step is not None and self._sweep_step(
                            lists, step, entries, rc, acct_idx, accounts,
                            bids, stats, start, spent):
                        break

                # Phase A: per-row winner/runner-up selection, the head
                # of each row's list. Both are independent of the
                # competing bid, which only decides win/lose and price.
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

                # Phase B: the round's budget certificate. The vector
                # round assumed eligibility fixed at round start; that
                # is exactly the scalar outcome unless some account's
                # budget could cross below a candidate's bid mid-round.
                # Bound each slot's charge (the exact price under a
                # constant market, the winner's bid otherwise), sum per
                # account, and hold the budget rule under that spend.
                if constant is not None:
                    bound = np.minimum(
                        np.maximum(np.maximum(runner, constant), floor),
                        winner_bids)
                else:
                    bound = winner_bids
                planned = np.bincount(acct_idx[wcand], weights=bound,
                                      minlength=len(account_index))
                if not budgets_hold(
                        np.array([account.budget for account in accounts]),
                        planned, acct_idx[rc], bids[rc]):
                    if obs_on:
                        self._obs_sweep_budget_rounds.inc()
                    # Exact scalar replay of this round: the same
                    # per-user code path serve_slot uses, over
                    # every row in range (users with nothing eligible
                    # contribute nothing, matching the per-slot loop's
                    # drop-from-rotation). It reads the shown bitsets as
                    # the cap, so the lists' wins fold in first; new
                    # lists are built from what it leaves.
                    self._sweep_fold(entries, start, lists, avail)
                    lists = lists_for = None
                    store = self._user_store
                    progressed, _ = self._serve_round(
                        (UserView(store, r) for r in range(start, stop)),
                        stats, saturating=True)
                    self._sweep_subtract_shown(avail, entries, start, stop)
                    round_no += 1
                    if not progressed:
                        break
                    continue

                # Phase C: decide, count, and apply in bulk. Each
                # auctioned row's competing bid is keyed on its next
                # slot index, as in the per-slot loop.
                if constant is not None:
                    competing: Any = constant
                else:
                    keyed = rel_rows + start
                    counts = self._row_slot_counts()
                    competing = self.competition.bids(keyed, counts[keyed])
                    counts[keyed] += 1
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
                observe_auctions(np.bincount(contenders), price[won],
                                 np.ones(won_count, dtype=np.int64),
                                 slots - won_count)
                if won_count == 0:
                    break
                # A lost slot keeps its candidate for the next round.
                lists.advance(rel_rows[won], round_no)
                self._sweep_apply(entries, start, rel_rows[won],
                                  wcand[won], price[won])
                round_no += 1
        finally:
            if lists is not None:
                delta = self._sweep_fold(entries, start, lists, avail,
                                         spent)
        return delta

    def _sweep_step(self, lists: SweepLists, step: _OneStep,
                    entries: List[tuple], rc: List[int],
                    acct_idx: np.ndarray, accounts: List[Any],
                    bids: np.ndarray, stats: DeliveryStats, start: int,
                    spent: Optional[np.ndarray]) -> bool:
        """Deliver every remaining round of the freshly built ``lists``
        in one step, from the tallies ``step`` gathered while building
        them (:class:`_OneStep`); False, with nothing changed, when the
        step's exact spend breaks the budget rule (:func:`budgets_hold`).
        A round runs while the one before it won something, up to
        ``max_rounds``.

        With ``spent`` (a parallel worker) the step is taken unchecked
        and nothing is billed: each entry's spend is added into it with
        the association its delta has always had — per round a left
        fold over the entry's prices in row order, the rounds added in
        order — and the parent checks the rule over every range's spend.
        Otherwise each round's wins bill and journal as a vector round's
        would.
        """
        if not len(lists.cand):
            return True
        rounds, missed, contenders, tally = step.finish(lists.codes,
                                                        len(accounts))
        if spent is None and not budgets_hold(
                np.array([account.budget for account in accounts]),
                tally @ step.values, acct_idx[rc], bids[rc]):
            lists.won[:] = lists.no_round
            return False

        take = step.take
        filled = int(take.sum())
        stats.slots += filled + missed
        stats.filled_by_tracked_ads += filled
        stats.lost_to_competition += missed
        if self._obs_on:
            self._obs_slots.inc(filled + missed)
            self._obs_sweep_rounds.inc(rounds)
        observe_auctions(contenders, step.values, tally.sum(axis=0), missed)
        if spent is None:
            price_at = np.concatenate(step.price_at)
            for offset in range(int(take.max())):
                rows = np.flatnonzero(take > offset)
                pos = lists.ptr[rows]
                self._sweep_apply(entries, start, rows, lists.cand[pos],
                                  step.values[price_at[pos]])
                lists.advance(rows, step.round0 + offset)
            return True
        lists.ptr += take
        spent += step.spend()
        return True

    def _sweep_apply(self, entries: List[tuple], start: int,
                     rel_rows: np.ndarray, wcand: np.ndarray,
                     price: np.ndarray) -> None:
        """Bill and record one round's wins (single-process sweeps; a
        parallel worker's parent bills its delta instead): one billing
        run, and the impression records (the scalar loop's seq, user,
        price and row order) to the journal and, in full mode, to the
        log and feeds. The shown bitsets take the wins later, from the
        lists (:meth:`_sweep_fold`)."""
        users = self._user_store
        count = len(rel_rows)
        seq_base = self._impression_seq
        # One order-exact billing fold for the whole round: budgets and
        # spend accumulate in delivery (row) order, exactly as
        # per-impression charges would.
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
        self._impression_count += count
        self._impression_seq = seq_base + count
        if self._obs_on:
            self._obs_impressions.inc(count)

    def _sweep_fold(self, entries: List[tuple], start: int,
                    lists: SweepLists, avail: np.ndarray,
                    spent: Optional[np.ndarray] = None
                    ) -> Optional[SweepDelta]:
        """Fold the wins ``lists`` recorded into the shown bitsets and
        per-ad counts, ads in first-win order (as per-round folds would
        insert them) — or, for a parallel worker (``spent`` given),
        into its :class:`SweepDelta` instead (None when nothing won)."""
        delivered = lists.won != lists.no_round
        won_cand = lists.cand[delivered]
        if not won_cand.size:
            return None
        counts = np.bincount(won_cand, minlength=len(entries))
        first = np.full(len(entries), lists.no_round, dtype=lists.won.dtype)
        np.minimum.at(first, won_cand, lists.won[delivered])
        # Stable: ties (the same first round) stay in entry order.
        order = np.argsort(first, kind="stable")[:np.count_nonzero(counts)]
        words = lists.delivered_words(avail, order)
        word0 = start // bitset.WORD_BITS
        if spent is not None:
            ads = [entries[c][0] for c in order.tolist()]
            return SweepDelta([ad.ad_id for ad in ads],
                              [ad.account_id for ad in ads], word0, words,
                              counts[order], spent[order])
        for i, (c, count) in enumerate(zip(order.tolist(),
                                           counts[order].tolist())):
            self._or_shown(entries[c][0].ad_id, word0, words[i], count)
        return None

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

    def absorb_sweep_delta(self, delta: SweepDelta) -> None:
        """Fold a partitioned sweep's range results into this engine.

        The parent side of :mod:`repro.platform.parsweep`: ``delta`` is
        the :class:`SweepDelta` a worker's ``sweep_slots(...,
        _collect_delta=True)`` produced for a disjoint row range. Ads
        fold — and bill, one bulk charge each — in sorted id order, so
        the merge is deterministic regardless of worker arrival order.
        """
        if not self._compact:
            raise StoreError(
                f"{self.engine_id}: sweep deltas fold into compact "
                "engines only")
        counts = delta.counts.tolist()
        spent = delta.spent.tolist()
        total = 0
        for i in sorted(range(len(delta.ad_ids)),
                        key=delta.ad_ids.__getitem__):
            ad_id = delta.ad_ids[i]
            self._or_shown(ad_id, delta.start_word, delta.words[i],
                           counts[i])
            self._ledger.charge_impressions_bulk(
                ad_id, delta.account_ids[i], spent[i], counts[i])
            total += counts[i]
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
            "candidate_ads": len(self._candidates),
        }

    @property
    def store(self) -> StateStore:
        return self._store

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
        the imported impressions itself. Single-owner rule: the serving
        layer only migrates between batches.
        """
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
        if self._slot_counts.any():
            dump["slot_counts"] = self._slot_counts.tolist()
        return dump

    def state_load(self, state: Dict[str, Any]) -> None:
        """Replace all mutable delivery state with a prior dump.

        Unlike :meth:`import_state` this is the restore path: nothing is
        journaled (the records behind this dump are already in the
        journal, before the snapshot point), and existing state is
        discarded first.
        """
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
        self._slot_counts = np.array(state.get("slot_counts", []),
                                     dtype=np.int64)

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
