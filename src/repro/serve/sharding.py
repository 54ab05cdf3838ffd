"""User sharding: consistent routing, shard-owned engines, aggregation.

The serving runtime scales by partitioning *users*, not ads: every ad is
visible on every shard (the inventory is read-shared; lowered programs
are pure functions), but each user is owned by exactly one shard, and
all mutable delivery state — frequency caps, feeds, impression logs,
candidate lists — lives in that shard's own :class:`DeliveryEngine`. Since
the deliver-iff-match contract is evaluated per ``(ad, user)`` pair and
every per-pair invariant (cap, match, feed) involves one user, shards
never need to coordinate during serving: the partition *is* the
correctness argument, and it is also why cross-shard aggregation
(:meth:`ShardRouter.aggregate_report`) reproduces the single-engine
answer exactly.

Two deliberate deviations from a single shared engine, both documented
here because they are where "no shared mutable state" costs something:

* **Budgets are enforced per shard.** Each shard sees its own copy of
  every advertiser account (:class:`ShardAccountsView`), so an account
  with budget ``B`` can in the worst case spend up to ``B`` *per
  shard*. Global budget pacing needs cross-shard coordination — exactly
  the kind of hot shared counter this design removes — and real
  platforms solve it with asynchronous budget servers; that is future
  work. :meth:`ShardRouter.total_spend` reports true combined spend.
* **Competing demand is keyed per (user, slot), not drawn in
  sequence.** A stateful RNG would make auction outcomes depend on the
  global order slots happen to be served in, and therefore on the shard
  count. The platform's :class:`~repro.workloads.competition.KeyedCompetition`
  derives each competing bid from ``(seed, user row, slot index)``
  alone, with the slot index from the shard's journaled per-user
  counter, which makes delivery reports byte-identical for 1, 4, or 8
  shards (pinned by ``tests/serve/test_runtime_equivalence.py``).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Set,
)

from repro.errors import StoreError
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.platform.ads import AdAccount, AdInventory
from repro.platform.billing import BillingLedger
from repro.platform.delivery import DeliveryEngine
from repro.platform.platform import AdPlatform
from repro.store.records import ChangeRecord, SlotClaimed
from repro.store.snapshot import Snapshot
from repro.store.store import (
    JournalStore,
    MemoryStore,
    NullStore,
    StateStore,
)
from repro.workloads.competition import KeyedCompetition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.ipc import ServeFrameItem, ServeReplyItem

_log = logging.getLogger("repro.serve.sharding")

#: Builds one shard's state store: ``(shard_index, num_shards) -> store``.
StoreFactory = Callable[[int, int], StateStore]


def shard_journal_path(directory: str, index: int, num_shards: int) -> str:
    """The canonical per-shard journal file. Shard count is part of the
    name so a rebalanced router starts fresh files instead of folding a
    differently-partitioned history into them."""
    return os.path.join(
        directory, f"shard-{index}-of-{num_shards}.journal.jsonl")


def shard_snapshot_path(directory: str, index: int, num_shards: int) -> str:
    """The canonical per-shard snapshot file (see
    :func:`shard_journal_path` on naming)."""
    return os.path.join(
        directory, f"shard-{index}-of-{num_shards}.snapshot.json")


def users_columns_path(directory: str) -> str:
    """The columnar user store's snapshot file in a checkpoint bundle.

    User columns are platform-global (shards partition delivery state,
    not users), so the bundle holds exactly one such file regardless of
    shard count."""
    return os.path.join(directory, "users-columns.json")


def journal_store_factory(directory: str,
                          fsync: bool = False) -> StoreFactory:
    """A :data:`StoreFactory` giving every shard an on-disk JSONL
    write-ahead journal under ``directory``."""
    def factory(index: int, num_shards: int) -> StateStore:
        return JournalStore(
            shard_journal_path(directory, index, num_shards), fsync=fsync)
    return factory


def shard_index(user_id: str, num_shards: int, salt: str = "") -> int:
    """The shard that owns ``user_id`` — stable across processes.

    Uses a keyed blake2b digest rather than the builtin ``hash`` so the
    mapping survives ``PYTHONHASHSEED`` randomization: the same user
    lands on the same shard in every process, which is what lets a
    restarted runtime (or a test re-run) reproduce an earlier run.
    """
    if num_shards < 1:
        raise ValueError("need at least one shard")
    if num_shards == 1:
        return 0
    digest = hashlib.blake2b(
        f"{salt}|{user_id}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % num_shards


class ShardAccountsView:
    """A shard's view of the ad inventory: shared ads, private accounts.

    Ads, pages, and campaigns delegate to the platform's inventory
    (read-only during serving — see the engine's thread-ownership
    note). ``account()`` instead returns a shard-local copy, cloned on
    first access with the account's *current* budget: the delivery
    engine's affordability check and the shard ledger's charges then
    touch only shard-owned state. The copy is the budget-locality
    tradeoff documented in the module docstring.
    """

    def __init__(self, inventory: AdInventory, shard_name: str):
        self._inventory = inventory
        self._shard_name = shard_name
        self._accounts: Dict[str, AdAccount] = {}

    def account(self, account_id: str) -> AdAccount:
        local = self._accounts.get(account_id)
        if local is None:
            origin = self._inventory.account(account_id)
            local = AdAccount(
                account_id=origin.account_id,
                owner_name=origin.owner_name,
                country=origin.country,
                budget=origin.budget,
                campaign_ids=list(origin.campaign_ids),
                page_ids=list(origin.page_ids),
            )
            self._accounts[account_id] = local
        return local

    def local_accounts(self) -> Dict[str, AdAccount]:
        """The shard-local account copies created so far."""
        return dict(self._accounts)

    def __getattr__(self, name: str):
        # Everything not overridden (ads, ad_count, ad, page, campaign,
        # ...) reads the shared inventory.
        return getattr(self._inventory, name)


@dataclass
class Shard:
    """One shard: an engine, its billing ledger, and its owned users.

    ``lock`` serializes delivery passes on the engine (the engine itself
    is lock-free single-owner); ``slot_seq`` is the per-user slot
    counter that keys the competing bids — assigned at admission
    time so the key depends on submission order, never on which worker
    dequeues first.

    The shard is itself a :class:`~repro.store.store.StateOwner` on its
    ``store`` (shared with its engine and ledger): slot claims are
    journaled as :class:`~repro.store.records.SlotClaimed` so a
    recovered shard resumes each user's slot counter — and therefore the
    keyed competition sequence — exactly where the dead shard stopped.
    """

    store_name = "shard"
    handled_kinds = (SlotClaimed.kind,)

    index: int
    engine: DeliveryEngine
    ledger: BillingLedger
    accounts: ShardAccountsView
    store: StateStore
    lock: threading.Lock = field(default_factory=threading.Lock)
    slot_seq: Dict[str, int] = field(default_factory=dict)

    def claim_slots(self, user_id: str, slots: int) -> int:
        """Claim the user's next ``slots`` slot indices (journaled);
        returns the base index. Caller serializes per-shard admission."""
        base = self.slot_seq.get(user_id, 0)
        self.slot_seq[user_id] = base + slots
        self.store.append(SlotClaimed(user_id=user_id, slots=slots))
        return base

    def claim_through(self, user_id: str, target: int) -> None:
        """Journal a claim bringing the user's slot counter up to
        ``target``; a no-op if it is already there.

        The serving claim shape: admission claims happen in the
        runtime's process (so shed requests cost the serving shard
        nothing yet still consume slot keys), and a forked worker
        bridges its own journal-consistent counter to the admission-
        issued base the first time a request for that user actually
        reaches it — gaps left by shed or timed-out requests fold into
        the next served claim, so a recovered worker resumes the exact
        keyed sequence. Where admission claimed on this very shard (the
        thread transport) the counter is already there."""
        current = self.slot_seq.get(user_id, 0)
        if target > current:
            self.slot_seq[user_id] = target
            self.store.append(
                SlotClaimed(user_id=user_id, slots=target - current))

    def serve_batch(self, users: Any, batch: List["ServeFrameItem"]
                    ) -> List["ServeReplyItem"]:
        """Serve one admitted micro-batch; per-request error fencing.

        The one batch function of both serving transports: the thread
        transport calls it on this shard's worker thread, a forked
        worker process on every ``serve`` frame. The batch runs under
        the shard lock, and the store is group-committed before the outcomes are returned — so
        every acknowledgement built from them is already pushed to the
        OS, and a process crash cannot lose acknowledged work.

        Each item carries the submitting request span's context; when
        tracing is on, the per-request ``serve.engine`` span parents
        under it — across a thread or a process boundary alike.
        """
        trc = _tracing.tracer()
        service_hist = _metrics.registry().histogram("serve.service_time_s")
        replies: List["ServeReplyItem"] = []
        with self.lock, \
                trc.span("serve.batch", shard=self.index,
                         batch_size=len(batch)):
            for user_id, base_seq, slots, trace_ctx in batch:
                started = perf_counter()
                span = None
                if trc.enabled:
                    parent = (_tracing.SpanContext(*trace_ctx)
                              if trace_ctx is not None else None)
                    span = trc.begin_span("serve.engine",
                                          parent_context=parent,
                                          user_id=user_id, slots=slots)
                try:
                    self.claim_through(user_id, base_seq + slots)
                    user = users.get(user_id)
                    outcomes = [self.engine.serve_slot(user, base_seq + k)
                                for k in range(slots)]
                    ad_ids = []
                    lost = 0
                    unfilled = 0
                    for outcome in outcomes:
                        if outcome.won:
                            ad_ids.append(outcome.winner.ad_id)
                        elif outcome.competing_bid > 0:
                            lost += 1
                        else:
                            unfilled += 1
                    service_s = perf_counter() - started
                    service_hist.observe(service_s)
                    if span is not None:
                        trc.finish_span(span, served=True)
                    replies.append((True, tuple(ad_ids), lost, unfilled,
                                    None, service_s))
                except Exception as exc:  # noqa: BLE001 - per-request fence
                    if span is not None:
                        trc.finish_span(span, served=False)
                    replies.append((False, (), 0, 0,
                                    f"{type(exc).__name__}: {exc}",
                                    perf_counter() - started))
        self.store.flush()
        return replies

    # -- state owner -------------------------------------------------------

    def state_dump(self) -> Dict[str, Any]:
        return {"slot_seq": dict(self.slot_seq)}

    def state_load(self, state: Dict[str, Any]) -> None:
        self.slot_seq = {
            str(user_id): int(seq)
            for user_id, seq in state.get("slot_seq", {}).items()
        }

    def apply_record(self, record: ChangeRecord) -> None:
        if not isinstance(record, SlotClaimed):
            raise StoreError(
                f"shard cannot apply record kind {record.kind!r}")
        self.slot_seq[record.user_id] = (
            self.slot_seq.get(record.user_id, 0) + record.slots
        )


class ShardRouter:
    """Consistently hashes users onto shard-owned delivery engines.

    Built over one :class:`~repro.platform.platform.AdPlatform`: the
    catalog, user store, audience registry, and ad inventory stay
    shared (read-only during serving), while each shard gets its own
    engine, ledger and account view; the shards' engines share the
    competing-demand model, by default the platform's. The router is
    also the reporting plane: every per-ad aggregate is the merge of
    disjoint per-shard answers, so the totals agree with a single
    engine having served everything (``tests/serve/``).
    """

    def __init__(
        self,
        platform: AdPlatform,
        num_shards: int = 4,
        competition: Optional[KeyedCompetition] = None,
        salt: str = "",
        store_factory: Optional[StoreFactory] = None,
    ):
        if num_shards < 1:
            raise ValueError("need at least one shard")
        self.platform = platform
        self.competition = (competition if competition is not None
                            else platform.delivery.competition)
        self.salt = salt
        #: Builds each shard's state store; default is in-memory. Pass
        #: :func:`journal_store_factory` for per-shard on-disk WAL
        #: journals (what :class:`repro.serve.ServingRuntime` does when
        #: configured with a ``journal_dir``).
        self._store_factory: StoreFactory = (
            store_factory
            if store_factory is not None
            else (lambda index, total: MemoryStore())
        )
        #: Ledgers of shards retired by rebalance(); their charges are
        #: part of total spend but no longer receive new ones.
        self._retired_ledgers: List[BillingLedger] = []
        self.shards: List[Shard] = self._build_shards(num_shards)

    def _build_shard(self, index: int, num_shards: int,
                     store: Optional[StateStore] = None) -> Shard:
        """One fresh shard: its own store, account view, ledger and
        engine; the store has the engine, ledger, and shard attached as
        state owners."""
        if store is None:
            store = self._store_factory(index, num_shards)
        accounts = ShardAccountsView(
            self.platform.inventory, shard_name=f"shard-{index}"
        )
        ledger = BillingLedger(accounts, store=store)
        engine = DeliveryEngine(
            inventory=accounts,
            audiences=self.platform.audiences,
            ledger=ledger,
            competition=self.competition,
            users=self.platform.users,
            floor_price_cpm=self.platform.config.floor_price_cpm,
            min_match_count=(
                self.platform.config.min_delivery_match_count
            ),
            engine_id=f"shard-{index}/{num_shards}",
            store=store,
        )
        shard = Shard(
            index=index,
            engine=engine,
            ledger=ledger,
            accounts=accounts,
            store=store,
        )
        store.attach(shard)
        return shard

    def _build_shards(self, num_shards: int) -> List[Shard]:
        return [self._build_shard(index, num_shards)
                for index in range(num_shards)]

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_index(self, user_id: str) -> int:
        return shard_index(user_id, len(self.shards), salt=self.salt)

    def shard_for(self, user_id: str) -> Shard:
        return self.shards[self.shard_index(user_id)]

    # -- rebalance / checkpoint / recovery ---------------------------------

    def rebalance(self, num_shards: int) -> None:
        """Re-partition users onto ``num_shards`` fresh shards.

        Quiescent-time operation (no serving in flight): exports every
        old shard's per-user delivery state, rebuilds the shard set,
        and imports each user's state into its new owner — the same
        snapshot-shaped dicts (and the same ``_apply_*`` fold) that
        checkpoint/restore and crash recovery use, so migration shares
        their code path and their tests. Frequency caps travel with the
        user, so an ad delivered before the rebalance can never be
        delivered again after it; aggregate reports are unchanged
        because the same records are merely re-homed; imported state is
        re-journaled into the receiving shard's store so recovery after
        a rebalance stays lossless. Retired shard ledgers are kept so
        combined spend stays exact.
        """
        if num_shards < 1:
            raise ValueError("need at least one shard")
        old_shards = self.shards
        for shard in old_shards:
            shard.lock.acquire()
        try:
            exports = [shard.engine.export_state() for shard in old_shards]
            slot_seqs: Dict[str, int] = {}
            for shard in old_shards:
                slot_seqs.update(shard.slot_seq)
            self._retired_ledgers.extend(
                shard.ledger for shard in old_shards
            )
            for shard in old_shards:
                shard.store.close()
            self.shards = self._build_shards(num_shards)
            per_shard: List[Dict[str, Any]] = [
                {"impressions": [], "clicks": []}
                for _ in range(num_shards)
            ]
            total_impressions = 0
            for export in exports:
                for data in export["impressions"]:
                    per_shard[self.shard_index(data["user_id"])][
                        "impressions"].append(data)
                    total_impressions += 1
                for data in export["clicks"]:
                    per_shard[self.shard_index(data["user_id"])][
                        "clicks"].append(data)
            for shard, state in zip(self.shards, per_shard):
                shard.engine.import_state(state)
            for user_id, seq in slot_seqs.items():
                if seq > 0:
                    self.shards[self.shard_index(user_id)] \
                        .claim_slots(user_id, seq)
        finally:
            for shard in old_shards:
                shard.lock.release()
        _log.info("rebalanced %d -> %d shards (%d impressions re-homed)",
                  len(old_shards), num_shards, total_impressions)

    def checkpoint_shards(self, directory: Optional[str] = None,
                          label: str = "") -> List[Snapshot]:
        """Snapshot every shard's store at its current journal position.

        Quiescent-time operation: each shard's lock is held while its
        owners dump. With ``directory``, each snapshot is also written
        to :func:`shard_snapshot_path` next to the shard's journal —
        the bundle :meth:`recover_shard` reads — and the user store's
        column blocks are dumped once to :func:`users_columns_path`
        (users are global, not sharded, so one file covers every shard;
        see :meth:`restore_user_columns`).
        """
        snapshots = []
        for shard in self.shards:
            with shard.lock:
                snapshot = shard.store.checkpoint(
                    label=label or f"shard-{shard.index}")
            if directory is not None:
                snapshot.save(shard_snapshot_path(
                    directory, shard.index, self.num_shards))
            snapshots.append(snapshot)
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            with open(users_columns_path(directory), "w",
                      encoding="utf-8") as fh:
                json.dump(self.platform.users.state_dump(), fh)
        return snapshots

    def restore_user_columns(self, directory: str) -> None:
        """Load the user store dumped by :meth:`checkpoint_shards`.

        The inverse for a fresh platform rehydrating a checkpoint
        bundle: shard state comes back per shard via
        :meth:`recover_shard`; the user columns come back here, in one
        ``state_load`` of the packed blocks. Raises
        :class:`~repro.errors.StoreError` when the bundle has no
        columns file.
        """
        users = self.platform.users
        path = users_columns_path(directory)
        if not os.path.exists(path):
            raise StoreError(
                f"checkpoint bundle {directory!r} has no users-columns "
                f"snapshot")
        with open(path, "r", encoding="utf-8") as fh:
            users.state_load(json.load(fh))

    def recover_shard(self, index: int, directory: str,
                      reopen_journal: bool = True) -> Shard:
        """Rebuild one shard from its on-disk journal (plus snapshot, if
        one was taken) and swap it into the router.

        The crash-recovery path: the replacement shard restores the
        latest snapshot, then replays the journal suffix written after
        it. Budgets come from the snapshot and every post-snapshot
        charge is re-deducted exactly once during replay, so nothing is
        double-charged; caps, feeds, logs, and slot counters land
        exactly where the dead shard left them.

        ``reopen_journal=False`` rebuilds the shard onto a
        record-discarding :class:`~repro.store.store.NullStore` instead
        of re-opening the journal file for append — the process
        backend's shape, where the router's shards are shadows and the
        journal belongs to a worker process that will be re-spawned
        (and seeded from the recovered shadow) on the next start.
        """
        if not 0 <= index < self.num_shards:
            raise ValueError(f"no shard {index} in a "
                             f"{self.num_shards}-shard router")
        journal = shard_journal_path(directory, index, self.num_shards)
        records = JournalStore.read(journal)
        # Re-open the same journal file for the replacement shard: the
        # history stays in place and new appends continue after it.
        store: StateStore = (JournalStore(journal) if reopen_journal
                             else NullStore())
        shard = self._build_shard(index, self.num_shards, store=store)
        replay_from = 0
        snapshot_file = shard_snapshot_path(
            directory, index, self.num_shards)
        if os.path.exists(snapshot_file):
            snapshot = Snapshot.load(snapshot_file)
            store.restore(snapshot)
            replay_from = snapshot.journal_seq
        applied = store.replay(records[replay_from:])
        self.shards[index] = shard
        _log.info(
            "recovered shard %d/%d from %s (snapshot at %d, %d records "
            "replayed)", index, self.num_shards, directory, replay_from,
            applied,
        )
        return shard

    # -- cross-shard aggregation -------------------------------------------

    def impressions_for_ad(self, ad_id: str) -> int:
        return sum(s.engine.impression_count_for_ad(ad_id)
                   for s in self.shards)

    def unique_reach(self, ad_id: str) -> Set[str]:
        """Distinct users reached — the union of disjoint shard sets."""
        reached: Set[str] = set()
        for shard in self.shards:
            reached |= shard.engine.unique_reach(ad_id)
        return reached

    def reach_count(self, ad_id: str) -> int:
        return sum(s.engine.reach_count(ad_id) for s in self.shards)

    def clicks_for_ad(self, ad_id: str) -> int:
        return sum(s.engine.clicks_for_ad(ad_id) for s in self.shards)

    def _all_ledgers(self) -> List[BillingLedger]:
        """Live shard ledgers, then those retired by rebalance()."""
        return [s.ledger for s in self.shards] + self._retired_ledgers

    def spend_for_ad(self, ad_id: str) -> float:
        """Combined spend on one ad across live and retired ledgers."""
        return sum(ledger.spend_for_ad(ad_id)
                   for ledger in self._all_ledgers())

    def feed(self, user_id: str):
        """A user's feed, answered by the owning shard alone."""
        return self.shard_for(user_id).engine.feed(user_id)

    def total_impressions(self) -> int:
        return sum(s.engine.impression_count() for s in self.shards)

    def total_spend(self, account_id: str) -> float:
        """Combined spend across live and retired shard ledgers."""
        return sum(ledger.spend_for_account(account_id)
                   for ledger in self._all_ledgers())

    def aggregate_report(self) -> Dict[str, Dict[str, int]]:
        """Per-ad delivery report merged across shards.

        ``{ad_id: {impressions, reach, clicks}}`` with ads sorted by
        id — a canonical form, so two routers (or a router and a bare
        engine) can be compared byte-for-byte after JSON serialization.
        Only ads with at least one impression appear.
        """
        ad_ids: Set[str] = set()
        for shard in self.shards:
            ad_ids.update(shard.engine.delivered_ads())
        return {
            ad_id: {
                "impressions": self.impressions_for_ad(ad_id),
                "reach": self.reach_count(ad_id),
                "clicks": self.clicks_for_ad(ad_id),
            }
            for ad_id in sorted(ad_ids)
        }

    def snapshot_stats(self) -> List[Dict[str, object]]:
        """Per-shard engine snapshots (debugging / imbalance checks)."""
        return [shard.engine.snapshot_stats() for shard in self.shards]
