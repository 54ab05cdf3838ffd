"""CPM billing: the spend ledger and advertiser invoices.

The transparency provider "must pay the ad platform whenever impressions
of Treads are shown to users" (paper section 3.1, "Cost"). The ledger
records one charge per won impression at the auction's second price; the
cost model in :mod:`repro.core.costs` reads its aggregates to reproduce
the paper's $0.002-per-attribute arithmetic.

A detail the paper leans on: attributes a user does *not* have cost
nothing — the corresponding Treads are never delivered, so no charge is
ever recorded. The ledger makes that observable ("zero per-user cost for
Treads corresponding to targeting parameters that a user does not have").

State model (PR 4): the ledger is a
:class:`~repro.store.store.StateOwner` — ``state_dump`` captures its
aggregates (per-ad and per-account spend and impression counts, each
ad's billing account in first-charge order) plus the account budgets it
governs, and ``apply_record`` folds a journaled charge back in
(deducting budget) without re-emitting obs signals, so replay never
double-counts. The ledger keeps no per-impression log: delivery-path
charges are *implied* by the impression record that lands in the same
journal (``charge_impression(journal=False)``; the delivery engine
re-debits them on replay via :meth:`BillingLedger.apply_implied_charge`);
only direct charges with no impression behind them journal their own
:class:`~repro.store.records.ChargeRecorded` (re-exported here as
``ChargeRecord``). Dumps written before the ledger dropped its charge
log carry a ``charges`` list instead of aggregates; ``state_load``
still folds one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import BudgetError, StoreError
from repro.obs.metrics import registry as obs_registry
from repro.platform.ads import AdInventory
from repro.store.records import ChangeRecord, ChargeRecorded, record_from_dict
from repro.store.store import MemoryStore, StateStore

_log = logging.getLogger("repro.platform.billing")

#: Budgets this close to zero are spent: float dust left by repeated
#: second-price charges must not keep an account formally solvent.
_BUDGET_EPSILON = 1e-9

#: One billed impression — the journal record *is* the ledger entry.
ChargeRecord = ChargeRecorded

#: The aggregate rows of an ad / account never charged.
_NO_AD = (None, 0.0, 0)
_NO_ACCOUNT = (0.0, 0)


def _left_fold(start: float, amounts: np.ndarray) -> float:
    """``start + amounts[0] + amounts[1] + ...``, added left to right."""
    if not amounts.size:
        return start
    return float(np.add.accumulate(
        np.concatenate(([start], amounts)))[-1])


@dataclass
class Invoice:
    """Per-account billing summary."""

    account_id: str
    total: float = 0.0
    impressions: int = 0
    by_ad: Dict[str, float] = field(default_factory=dict)


class BillingLedger:
    """Per-ad and per-account spend and impression aggregates."""

    store_name = "billing"
    handled_kinds: Tuple[str, ...] = (ChargeRecorded.kind,)

    def __init__(self, inventory: AdInventory,
                 store: Optional[StateStore] = None):
        self._inventory = inventory
        self._store = store if store is not None else MemoryStore()
        self._store.attach(self)
        #: ad_id -> [account_id, spend, impressions] and account_id ->
        #: [spend, impressions], both in first-charge order. Each total
        #: adds amounts in charge order, so it is float-identical to a
        #: left-to-right scan of the charges.
        self._by_ad: Dict[str, list] = {}
        self._by_account: Dict[str, list] = {}
        reg = obs_registry()
        self._obs_on = reg.enabled
        self._obs_charged = reg.counter("billing.impressions_charged")
        self._obs_exhausted = reg.counter("billing.budget_exhausted")

    @property
    def store(self) -> StateStore:
        return self._store

    def charge_impression(self, ad_id: str, account_id: str, amount: float,
                          impression_seq: int,
                          journal: bool = True) -> ChargeRecord:
        """Charge one impression to the advertiser's account budget.

        ``journal=False`` is the delivery engine's path: the
        :class:`~repro.store.records.ImpressionRecorded` it journals for
        the same event carries the identical ``(ad, account, price,
        seq)`` tuple, so the charge is *implied* by the impression
        record and replayed from it (one journal record per delivered
        impression, not two). Direct charges with no impression record
        behind them must keep the default and journal themselves.
        """
        account = self._inventory.account(account_id)
        solvent_before = account.budget > _BUDGET_EPSILON
        account.charge(amount)
        record = ChargeRecord(
            ad_id=ad_id,
            account_id=account_id,
            amount=amount,
            impression_seq=impression_seq,
        )
        # Journal only once the charge has committed: the journal is the
        # exact log of mutations that happened, so replaying it cannot
        # invent a charge a raised BudgetError prevented.
        if journal:
            self._store.append(record)
        self._add(ad_id, account_id, amount, 1)
        if self._obs_on:
            self._obs_charged.inc()
        if solvent_before and account.budget <= _BUDGET_EPSILON:
            self._obs_exhausted.inc()
            _log.info("account %s budget exhausted (last charge $%.6f)",
                      account_id, amount)
        return record

    def charge_impression_run(self, ads: Sequence[Tuple[str, str]],
                              ad_index: np.ndarray,
                              amounts: np.ndarray) -> None:
        """Charge a delivery-ordered run of impressions in one fold.

        Impression ``j`` of the run charges ``amounts[j]`` to the
        ``(ad_id, account_id)`` pair ``ads[ad_index[j]]``. The result is
        bit-identical to ``charge_impression(..., journal=False)`` called
        once per impression in run order: every budget and spend total
        is a strict left fold (``np.subtract.accumulate`` /
        ``np.add.accumulate``) over its own charges in run order, which
        is the float association of the sequential calls. Never use a
        pairwise or compensated sum here — it changes bits.

        The whole run is validated (non-negative amounts, no overdraft
        at any step, known accounts) before any state changes, so a
        :class:`~repro.errors.BudgetError` leaves the ledger untouched.
        This is the batch sweep's billing step: one call per sweep
        round. It never journals — the sweep's impression records, when
        kept, imply the charges as on the scalar path.
        """
        amounts = np.asarray(amounts, dtype=np.float64)
        ad_index = np.asarray(ad_index, dtype=np.int64)
        if amounts.shape != ad_index.shape:
            raise ValueError("ad_index and amounts must align")
        if not amounts.size:
            return
        if (amounts < 0).any():
            raise BudgetError("charge must be non-negative")
        # Ads and accounts in first-charge order: the order the
        # sequential calls would first touch (and insert) them. (A
        # narrow key sorts by radix.)
        by_ad = np.argsort(ad_index.astype(np.min_scalar_type(len(ads))),
                           kind="stable")
        starts = np.flatnonzero(np.diff(ad_index[by_ad])) + 1
        groups = np.split(by_ad, starts)
        groups.sort(key=lambda group: group[0])
        account_ids: Dict[str, int] = {}
        account_of_ad = np.empty(len(ads), dtype=np.int64)
        for group in groups:
            k = int(ad_index[group[0]])
            account_of_ad[k] = account_ids.setdefault(
                ads[k][1], len(account_ids))
        account_of_charge = account_of_ad[ad_index]
        accounts = [self._inventory.account(a) for a in account_ids]
        budget_paths = []
        overdraft: Optional[Tuple[int, int, int]] = None
        for a, account in enumerate(accounts):
            rows = np.flatnonzero(account_of_charge == a)
            charged = amounts[rows]
            path = np.subtract.accumulate(
                np.concatenate(([account.budget], charged)))
            over = np.flatnonzero(charged > path[:-1] + 1e-12)
            if over.size and (overdraft is None
                              or rows[over[0]] < overdraft[0]):
                overdraft = (int(rows[over[0]]), a, int(over[0]))
            budget_paths.append((rows, path))
        if overdraft is not None:
            j, a, step = overdraft
            raise BudgetError(
                f"account {accounts[a].account_id!r} cannot pay "
                f"{amounts[j]:.6f}; budget is "
                f"{budget_paths[a][1][step]:.6f}")

        for group in groups:
            ad_id, account_id = ads[int(ad_index[group[0]])]
            row = self._by_ad.setdefault(ad_id, [account_id, 0.0, 0])
            row[1] = _left_fold(row[1], amounts[group])
            row[2] += len(group)
        for account, (rows, path) in zip(accounts, budget_paths):
            account.budget = float(path[-1])
            row = self._by_account.setdefault(account.account_id, [0.0, 0])
            row[0] = _left_fold(row[0], amounts[rows])
            row[1] += len(rows)
        if self._obs_on:
            self._obs_charged.inc(int(amounts.size))
        for account, (rows, path) in zip(accounts, budget_paths):
            crossings = np.flatnonzero((path[:-1] > _BUDGET_EPSILON)
                                       & (path[1:] <= _BUDGET_EPSILON))
            for step in crossings:
                self._obs_exhausted.inc()
                _log.info("account %s budget exhausted (last charge "
                          "$%.6f)", account.account_id,
                          amounts[rows[step]])

    def charge_impressions_bulk(self, ad_id: str, account_id: str,
                                amount_total: float, count: int) -> None:
        """Charge ``count`` impressions of one ad in a single debit.

        The partitioned sweep's merge step (:meth:`~repro.platform.
        delivery.DeliveryEngine.absorb_sweep_delta`): each worker ships
        per-ad spend sums, so priced parallel sweeps match sequential
        billing to float tolerance (zero-price sweeps exactly). It never
        journals.
        """
        if count <= 0:
            raise ValueError("bulk charge needs a positive count")
        account = self._inventory.account(account_id)
        solvent_before = account.budget > _BUDGET_EPSILON
        account.charge(amount_total)
        self._add(ad_id, account_id, amount_total, count)
        if self._obs_on:
            self._obs_charged.inc(count)
        if solvent_before and account.budget <= _BUDGET_EPSILON:
            self._obs_exhausted.inc()
            _log.info("account %s budget exhausted (last charge $%.6f)",
                      account_id, amount_total)

    # -- state owner -------------------------------------------------------

    def _add(self, ad_id: str, account_id: str, amount: float,
             count: int) -> None:
        """Fold ``count`` impressions costing ``amount`` in total into
        the aggregates (shared by the live paths and replay)."""
        ad = self._by_ad.setdefault(ad_id, [account_id, 0.0, 0])
        ad[1] += amount
        ad[2] += count
        account = self._by_account.setdefault(account_id, [0.0, 0])
        account[0] += amount
        account[1] += count

    def apply_record(self, record: ChangeRecord) -> None:
        """Replay one journaled charge: deduct the budget and fold the
        aggregates, with no obs emission and no re-journaling."""
        if not isinstance(record, ChargeRecorded):
            raise StoreError(
                f"billing cannot apply record kind {record.kind!r}")
        self._inventory.account(record.account_id).charge(record.amount)
        self._add(record.ad_id, record.account_id, record.amount, 1)

    def apply_implied_charge(self, ad_id: str, account_id: str,
                             amount: float, impression_seq: int) -> None:
        """Replay the charge implied by a journaled impression.

        The delivery engine calls this from its own ``apply_record``
        when it folds an :class:`ImpressionRecorded` back in — the
        impression *is* the charge's journal entry (see
        :meth:`charge_impression`), so replay must re-debit here or the
        recovered ledger would under-bill."""
        self.apply_record(ChargeRecord(
            ad_id=ad_id,
            account_id=account_id,
            amount=amount,
            impression_seq=impression_seq,
        ))

    def _governed_accounts(self) -> List[Any]:
        """The accounts whose budgets this ledger's charges mutate: the
        shard-local clones when billing against a ShardAccountsView,
        else the full inventory."""
        local = getattr(self._inventory, "local_accounts", None)
        if local is not None:
            return list(local().values())
        return list(self._inventory.accounts())

    def state_dump(self) -> Dict[str, Any]:
        """The aggregates and governed budgets, JSON-safe.

        Lists, not maps, keep first-charge order (snapshots serialise
        with sorted keys): ``ads`` rows are ``[ad_id, account_id,
        spend, impressions]``, ``accounts`` rows ``[account_id, spend,
        impressions]``. Floats round-trip exactly through JSON.
        """
        return {
            "ads": [[ad_id, *row] for ad_id, row in self._by_ad.items()],
            "accounts": [[account_id, *row]
                         for account_id, row in self._by_account.items()],
            "budgets": {
                account.account_id: account.budget
                for account in self._governed_accounts()
            },
        }

    def state_load(self, state: Dict[str, Any]) -> None:
        """Replace the ledger's state with a prior dump: set the
        aggregates, then pin budgets to the dumped values — budgets are
        authoritative in the dump, not re-derived, so a restored ledger
        is exact even mid-exhaustion. A legacy dump's ``charges`` list
        is folded into the aggregates charge by charge."""
        self._by_ad = {}
        self._by_account = {}
        for data in state.get("charges", []):
            record = record_from_dict(dict(data))
            if not isinstance(record, ChargeRecorded):
                raise StoreError(
                    f"billing dump holds a {record.kind!r} record")
            self._add(record.ad_id, record.account_id, record.amount, 1)
        for ad_id, account_id, spend, impressions in state.get("ads", []):
            self._by_ad[ad_id] = [account_id, float(spend), int(impressions)]
        for account_id, spend, impressions in state.get("accounts", []):
            self._by_account[account_id] = [float(spend), int(impressions)]
        for account_id, budget in state.get("budgets", {}).items():
            self._inventory.account(account_id).budget = float(budget)

    # -- reads -------------------------------------------------------------

    def spend_for_ad(self, ad_id: str) -> float:
        return self._by_ad.get(ad_id, _NO_AD)[1]

    def impressions_for_ad(self, ad_id: str) -> int:
        return self._by_ad.get(ad_id, _NO_AD)[2]

    def spend_for_account(self, account_id: str) -> float:
        return self._by_account.get(account_id, _NO_ACCOUNT)[0]

    def charged_accounts(self) -> List[str]:
        """Ids of the accounts charged so far, in first-charge order."""
        return list(self._by_account)

    def effective_cpm(self, ad_id: str) -> float:
        """Realised dollars per thousand impressions for one ad."""
        impressions = self.impressions_for_ad(ad_id)
        if impressions == 0:
            return 0.0
        return 1000.0 * self.spend_for_ad(ad_id) / impressions

    def invoice(self, account_id: str) -> Invoice:
        """The advertiser's billing statement.

        Spend totals are exact — platforms do bill exactly — but note the
        *reporting* layer (not billing) is where reach numbers get
        thresholded; billing reveals per-ad impression counts, which the
        privacy analysis of section 3.1 explicitly grants the provider
        ("access to the performance statistics reported by the advertising
        platform (e.g., for billing purposes)").
        """
        total, impressions = self._by_account.get(account_id, _NO_ACCOUNT)
        return Invoice(
            account_id=account_id, total=total, impressions=impressions,
            by_ad={ad_id: spend
                   for ad_id, (owner, spend, _) in self._by_ad.items()
                   if owner == account_id})
