"""Unit tests for the billing ledger."""

import json

import numpy as np
import pytest

from repro.errors import BudgetError, StoreError
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.platform.ads import AdAccount, AdInventory
from repro.platform.billing import BillingLedger
from repro.store.records import ChargeRecorded, record_to_dict


@pytest.fixture
def inventory():
    inv = AdInventory()
    inv.add_account(AdAccount(account_id="acct-1", owner_name="np",
                              budget=1.0))
    return inv


@pytest.fixture
def ledger(inventory):
    return BillingLedger(inventory)


class TestCharging:
    def test_charge_decrements_budget(self, ledger, inventory):
        ledger.charge_impression("ad-1", "acct-1", 0.002, 0)
        assert inventory.account("acct-1").budget == pytest.approx(0.998)

    def test_charge_beyond_budget_rejected(self, ledger):
        with pytest.raises(BudgetError):
            ledger.charge_impression("ad-1", "acct-1", 2.0, 0)

    def test_per_ad_aggregates(self, ledger):
        ledger.charge_impression("ad-1", "acct-1", 0.002, 0)
        ledger.charge_impression("ad-1", "acct-1", 0.003, 1)
        ledger.charge_impression("ad-2", "acct-1", 0.004, 2)
        assert ledger.spend_for_ad("ad-1") == pytest.approx(0.005)
        assert ledger.impressions_for_ad("ad-1") == 2
        assert ledger.impressions_for_ad("ad-2") == 1

    def test_unknown_ad_zero(self, ledger):
        assert ledger.spend_for_ad("ghost") == 0.0
        assert ledger.impressions_for_ad("ghost") == 0

    def test_effective_cpm(self, ledger):
        ledger.charge_impression("ad-1", "acct-1", 0.002, 0)
        ledger.charge_impression("ad-1", "acct-1", 0.004, 1)
        assert ledger.effective_cpm("ad-1") == pytest.approx(3.0)

    def test_effective_cpm_no_impressions(self, ledger):
        assert ledger.effective_cpm("ad-1") == 0.0


class TestInvoice:
    def test_invoice_totals(self, ledger):
        ledger.charge_impression("ad-1", "acct-1", 0.002, 0)
        ledger.charge_impression("ad-2", "acct-1", 0.003, 1)
        invoice = ledger.invoice("acct-1")
        assert invoice.total == pytest.approx(0.005)
        assert invoice.impressions == 2
        assert invoice.by_ad == {
            "ad-1": pytest.approx(0.002), "ad-2": pytest.approx(0.003)
        }

    def test_invoice_isolated_per_account(self, ledger, inventory):
        inventory.add_account(AdAccount(account_id="acct-2",
                                        owner_name="x", budget=1.0))
        ledger.charge_impression("ad-1", "acct-1", 0.002, 0)
        ledger.charge_impression("ad-9", "acct-2", 0.005, 1)
        assert ledger.invoice("acct-2").total == pytest.approx(0.005)
        assert ledger.spend_for_account("acct-1") == pytest.approx(0.002)

    def test_empty_invoice(self, ledger):
        invoice = ledger.invoice("acct-1")
        assert invoice.total == 0.0
        assert invoice.impressions == 0


class TestImpressionRun:
    """``charge_impression_run`` is bit-identical to sequential charges."""

    ADS = [("ad-1", "acct-1"), ("ad-2", "acct-2"), ("ad-3", "acct-1")]

    @staticmethod
    def _world(budgets):
        registry = MetricsRegistry("billing-run")
        with use_registry(registry):
            inv = AdInventory()
            for account_id, budget in budgets.items():
                inv.add_account(AdAccount(account_id=account_id,
                                          owner_name="x", budget=budget))
            ledger = BillingLedger(inv)
        return inv, ledger, registry

    @staticmethod
    def _observed(inv, ledger, registry):
        return {
            "budgets": {a.account_id: a.budget for a in inv.accounts()},
            "spend_by_ad": {ad: ledger.spend_for_ad(ad)
                            for ad, _ in TestImpressionRun.ADS},
            "impressions_by_ad": {ad: ledger.impressions_for_ad(ad)
                                  for ad, _ in TestImpressionRun.ADS},
            "spend_by_account": {a.account_id:
                                 ledger.spend_for_account(a.account_id)
                                 for a in inv.accounts()},
            "invoices": {a.account_id: (
                ledger.invoice(a.account_id).total,
                ledger.invoice(a.account_id).impressions,
                list(ledger.invoice(a.account_id).by_ad.items()))
                for a in inv.accounts()},
            "charged": registry.counter(
                "billing.impressions_charged").value,
            "exhausted": registry.counter("billing.budget_exhausted").value,
        }

    def _charges(self):
        rng = np.random.default_rng(7)
        # ad-3 is charged first, so invoices list it before ad-1.
        index = np.concatenate(([2], rng.integers(0, 3, size=3000)))
        amounts = rng.uniform(0.0001, 0.02, size=index.size)
        amounts[rng.random(index.size) < 0.1] = 0.0
        return index, amounts

    def _budgets(self, index, amounts):
        # acct-2 can pay exactly its charges plus float dust below the
        # exhaustion epsilon, so the run crosses the epsilon.
        acct2 = 5e-10
        for value in amounts[index == 1]:
            acct2 += float(value)
        return {"acct-1": 100.0, "acct-2": acct2}

    def _sequential(self, budgets, index, amounts):
        inv, ledger, registry = self._world(budgets)
        for j, (k, amount) in enumerate(zip(index, amounts)):
            ad_id, account_id = self.ADS[k]
            ledger.charge_impression(ad_id, account_id, float(amount), j,
                                     journal=False)
        return self._observed(inv, ledger, registry)

    @pytest.mark.parametrize("pieces", [1, 3])
    def test_bit_identical_to_sequential_charges(self, pieces):
        index, amounts = self._charges()
        budgets = self._budgets(index, amounts)
        want = self._sequential(budgets, index, amounts)
        inv, ledger, registry = self._world(budgets)
        for part in np.array_split(np.arange(index.size), pieces):
            ledger.charge_impression_run(self.ADS, index[part],
                                         amounts[part])
        got = self._observed(inv, ledger, registry)
        assert got == want
        assert list(got["invoices"]["acct-1"][2]) == [
            ("ad-3", want["spend_by_ad"]["ad-3"]),
            ("ad-1", want["spend_by_ad"]["ad-1"])]
        assert got["charged"] == index.size
        assert got["exhausted"] == 1
        assert got["budgets"]["acct-2"] <= 1e-9
        # Pairwise summation would have produced different bits, so the
        # equality above really pins the left-to-right fold.
        assert float(np.sum(amounts[index == 0])) != \
            want["spend_by_ad"]["ad-1"]
        assert float(np.sum(amounts[index != 1])) != \
            want["spend_by_account"]["acct-1"]

    @pytest.mark.parametrize("spoil", ["overdraft", "negative"])
    def test_bad_run_raises_and_leaves_ledger_unchanged(self, spoil):
        index, amounts = self._charges()
        budgets = self._budgets(index, amounts)
        inv, ledger, registry = self._world(budgets)
        ledger.charge_impression_run(self.ADS, index[:100], amounts[:100])
        before = self._observed(inv, ledger, registry)
        bad = amounts[100:].copy()
        if spoil == "overdraft":
            bad[-1] = 1.0  # acct-2 is out of money by then
            index = index.copy()
            index[-1] = 1
        else:
            bad[len(bad) // 2] = -0.001
        with pytest.raises(BudgetError):
            ledger.charge_impression_run(self.ADS, index[100:], bad)
        assert self._observed(inv, ledger, registry) == before


class TestStateDump:
    """The ledger's snapshot section: aggregates plus budgets."""

    CHARGES = [("ad-2", "acct-2", 0.003), ("ad-1", "acct-1", 0.002),
               ("ad-2", "acct-2", 0.0011), ("ad-1", "acct-1", 0.1),
               ("ad-3", "acct-1", 0.0)]

    @staticmethod
    def _inventory():
        inv = AdInventory()
        for account_id in ("acct-1", "acct-2"):
            inv.add_account(AdAccount(account_id=account_id,
                                      owner_name="x", budget=1.0))
        return inv

    def _charged(self):
        inv = self._inventory()
        ledger = BillingLedger(inv)
        for seq, (ad_id, account_id, amount) in enumerate(self.CHARGES):
            ledger.charge_impression(ad_id, account_id, amount, seq,
                                     journal=False)
        return inv, ledger

    @staticmethod
    def _observed(inv, ledger):
        ads = ("ad-1", "ad-2", "ad-3")
        return {
            "budgets": {a.account_id: a.budget for a in inv.accounts()},
            "spend_by_ad": {ad: ledger.spend_for_ad(ad) for ad in ads},
            "impressions_by_ad": {ad: ledger.impressions_for_ad(ad)
                                  for ad in ads},
            "charged": ledger.charged_accounts(),
            "invoices": {a.account_id: (
                ledger.invoice(a.account_id).total,
                ledger.invoice(a.account_id).impressions,
                list(ledger.invoice(a.account_id).by_ad.items()))
                for a in inv.accounts()},
        }

    def _restored(self, state):
        inv = self._inventory()
        ledger = BillingLedger(inv)
        ledger.state_load(json.loads(json.dumps(state, sort_keys=True)))
        return inv, ledger

    def test_dump_holds_aggregates_not_charges(self):
        _inv, ledger = self._charged()
        dump = ledger.state_dump()
        assert set(dump) == {"ads", "accounts", "budgets"}
        # one row per ad and per account, in first-charge order
        assert [row[0] for row in dump["ads"]] == ["ad-2", "ad-1", "ad-3"]
        assert [row[0] for row in dump["accounts"]] == ["acct-2", "acct-1"]

    def test_dump_round_trips_exactly_through_json(self):
        inv, ledger = self._charged()
        want = self._observed(inv, ledger)
        got_inv, got = self._restored(ledger.state_dump())
        assert self._observed(got_inv, got) == want
        assert got.state_dump() == ledger.state_dump()

    def test_legacy_charge_list_restores(self):
        # Snapshots written while the ledger kept a charge log carry a
        # "charges" list and no aggregates; they still load.
        inv, ledger = self._charged()
        legacy = {
            "charges": [
                record_to_dict(ChargeRecorded(
                    ad_id=ad_id, account_id=account_id, amount=amount,
                    impression_seq=seq))
                for seq, (ad_id, account_id, amount)
                in enumerate(self.CHARGES)
            ],
            "budgets": ledger.state_dump()["budgets"],
        }
        got_inv, got = self._restored(legacy)
        assert self._observed(got_inv, got) == \
            self._observed(inv, ledger)
        assert got.state_dump() == ledger.state_dump()

    def test_legacy_list_of_another_kind_is_refused(self):
        legacy = {"charges": [{"kind": "click", "ad_id": "ad-1",
                               "user_id": "u", "click_seq": 0}]}
        with pytest.raises(StoreError, match="click"):
            self._restored(legacy)
