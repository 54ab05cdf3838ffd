"""The batch sweep engine: vectorized delivery == scalar delivery.

The integration equivalence suite pins the full 2,000-user partner
sweep; these tests pin the engine-level machinery — precondition
errors, block decomposition, partial row ranges, per-spec matcher
fallback routing, multi-account runner-up pricing, the sweep's
observability counters, and the packed winner-selection kernel against
an unpacked-argmax reference.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry, use_registry
from repro.platform import bitset
from repro.platform.ads import AdCreative
from repro.platform.catalog import build_us_catalog
from repro.platform.delivery import sweep_auction
from repro.platform.platform import AdPlatform, PlatformConfig
from repro.platform.targeting import HasAttr, lower_spec
from repro.workloads.competition import fixed_competition, zero_competition

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - CI without hypothesis
    HAVE_HYPOTHESIS = False


def make_world(compact=False, users=130, n_ads=6, draw=None,
               budget=100.0, accounts=1, store=None):
    """A columnar delivery world with ``accounts`` competing advertisers."""
    platform = AdPlatform(
        config=PlatformConfig(name="sweng", compact_delivery=compact),
        catalog=build_us_catalog(40, 25),
        competing_draw=draw if draw is not None else zero_competition(),
        store=store,
    )
    attrs = platform.catalog.partner_attributes()[:n_ads]
    ads = []
    for a in range(accounts):
        account = platform.create_ad_account(f"adv-{a}", budget=budget)
        campaign = platform.create_campaign(account.account_id, "camp")
        for i, attr in enumerate(attrs):
            ads.append(platform.submit_ad(
                account.account_id, campaign.campaign_id,
                AdCreative("h", f"ref {a}/{attr.attr_id}"),
                f"attr:{attr.attr_id} & country:US",
                bid_cap_cpm=10.0 - a,  # distinct bids across accounts
            ))
    for i in range(users):
        user = platform.register_user(age=20 + i % 50)
        user.set_attribute(attrs[i % len(attrs)])
        if i % 3 == 0:
            user.set_attribute(attrs[(i + 1) % len(attrs)])
    return platform, ads


def engine_state(platform, ads):
    """Canonical observable delivery state for equality comparisons."""
    engine = platform.delivery
    state = {
        "impressions": engine.impression_count(),
        "by_ad": {ad.ad_id: engine.impression_count_for_ad(ad.ad_id)
                  for ad in ads},
        "reach": {ad.ad_id: engine.reach_count(ad.ad_id) for ad in ads},
        "spend": {ad.ad_id: platform.ledger.spend_for_ad(ad.ad_id)
                  for ad in ads},
        "budgets": {ad.account_id: platform.inventory.account(
            ad.account_id).budget for ad in ads},
    }
    return json.dumps(state, sort_keys=True)


class TestPreconditions:
    def test_needs_columnar_store(self):
        """The columnar store is the only one; asking for the removed
        object store fails loudly at construction."""
        with pytest.raises(ValueError, match="columnar"):
            AdPlatform(config=PlatformConfig(name="legacy",
                                             columnar_users=False))

    def test_block_rows_must_be_word_multiple(self):
        platform, _ads = make_world(users=10)
        with pytest.raises(ValueError, match="block_rows"):
            platform.delivery.sweep_slots(block_rows=100)

    def test_range_validation(self):
        platform, _ads = make_world(users=70)
        with pytest.raises(ValueError, match="boundary"):
            platform.delivery.sweep_slots((10, 70))
        with pytest.raises(ValueError, match="outside"):
            platform.delivery.sweep_slots((0, 1000))


class TestBlockDecomposition:
    def test_tiny_blocks_match_one_big_block(self):
        platform_a, ads_a = make_world(users=200)
        platform_b, ads_b = make_world(users=200)
        stats_a = platform_a.delivery.sweep_slots(block_rows=64)
        stats_b = platform_b.delivery.sweep_slots()
        assert stats_a == stats_b
        assert engine_state(platform_a, ads_a) == \
            engine_state(platform_b, ads_b)

    def test_partial_ranges_compose_to_full_sweep(self):
        platform_a, ads_a = make_world(users=150)
        platform_b, ads_b = make_world(users=150)
        platform_a.delivery.sweep_slots((0, 64))
        platform_a.delivery.sweep_slots((64, 150))
        platform_b.delivery.sweep_slots()
        assert engine_state(platform_a, ads_a) == \
            engine_state(platform_b, ads_b)

    def test_empty_range_is_a_noop(self):
        platform, _ads = make_world(users=70)
        stats = platform.delivery.sweep_slots((64, 64))
        assert stats.slots == 0


class TestScalarEquality:
    @pytest.mark.parametrize("compact", [False, True])
    @pytest.mark.parametrize("accounts", [1, 2])
    def test_sweep_equals_scalar_loop(self, compact, accounts):
        platform_a, ads_a = make_world(compact=compact, accounts=accounts)
        platform_b, ads_b = make_world(compact=compact, accounts=accounts)
        stats_sweep = platform_a.run_sweep()
        stats_scalar = platform_b.run_until_saturated()
        assert stats_sweep == stats_scalar
        assert engine_state(platform_a, ads_a) == \
            engine_state(platform_b, ads_b)

    def test_multi_account_second_price_matches(self):
        """Two accounts bidding on the same users: the sweep's runner-up
        column must reproduce the scalar auction's clearing prices."""
        platform_a, ads_a = make_world(accounts=2,
                                       draw=fixed_competition(1.0))
        platform_b, ads_b = make_world(accounts=2,
                                       draw=fixed_competition(1.0))
        platform_a.run_sweep()
        platform_b.run_until_saturated()
        assert engine_state(platform_a, ads_a) == \
            engine_state(platform_b, ads_b)
        # Winner pays the runner-up's bid, not its own: spend exists and
        # reflects second-price, 9 CPM (the losing account's bid).
        winner_spend = sum(platform_a.ledger.spend_for_ad(ad.ad_id)
                           for ad in ads_a
                           if ad.bid_cap_cpm == 10.0)
        winner_count = sum(
            platform_a.delivery.impression_count_for_ad(ad.ad_id)
            for ad in ads_a if ad.bid_cap_cpm == 10.0)
        assert winner_count > 0
        assert winner_spend == pytest.approx(winner_count * 9.0 / 1000.0)

    def test_second_sweep_delivers_nothing(self):
        platform, _ads = make_world()
        first = platform.run_sweep()
        assert first.filled_by_tracked_ads > 0
        second = platform.run_sweep()
        assert second.filled_by_tracked_ads == 0


class TestCompactLedgerState:
    """Billing is modeless: a compact platform's ledger dumps and
    reloads like a full one."""

    def test_compact_ledger_dump_round_trips(self):
        platform, ads = make_world(compact=True, accounts=2,
                                   draw=fixed_competition(1.0))
        platform.run_sweep()
        dump = json.loads(json.dumps(platform.ledger.state_dump(),
                                     sort_keys=True))
        fresh, fresh_ads = make_world(compact=True, accounts=2,
                                      draw=fixed_competition(1.0))
        fresh.ledger.state_load(dump)
        assert fresh.ledger.state_dump() == platform.ledger.state_dump()
        for ad, twin in zip(ads, fresh_ads):
            assert fresh.ledger.spend_for_ad(twin.ad_id) == \
                platform.ledger.spend_for_ad(ad.ad_id) > 0
            assert fresh.ledger.invoice(twin.account_id) == \
                platform.ledger.invoice(ad.account_id)
            assert fresh.inventory.account(twin.account_id).budget == \
                platform.inventory.account(ad.account_id).budget


class OpaquePredicate(HasAttr):
    """Compiles with base semantics but defeats the exact-type lowerer."""


class TestFallbackRouting:
    def _world_with_opaque_spec(self):
        platform, ads = make_world(users=96, n_ads=3)
        account_id = ads[0].account_id
        campaign_id = ads[0].campaign_id
        attr = platform.catalog.partner_attributes()[10]
        for view in platform.users:
            if view.row % 5 == 0:
                view.set_attribute(attr)
        from repro.platform.targeting import TargetingSpec
        opaque = platform.submit_ad(
            account_id, campaign_id, AdCreative("h", "opaque"),
            TargetingSpec(expr=OpaquePredicate(attr.attr_id)),
            bid_cap_cpm=10.0)
        assert opaque.status.value == "active"
        return platform, ads + [opaque]

    def test_unlowerable_spec_falls_back_to_matcher(self):
        # Counters bind to the registry active at engine construction,
        # so the swept world is built inside the registry context.
        with use_registry(MetricsRegistry("sweeptest")) as reg:
            platform_a, ads_a = self._world_with_opaque_spec()
            opaque = ads_a[-1]
            assert lower_spec(opaque.targeting) is None
            platform_a.run_sweep()
            assert reg.counter(
                "delivery.sweep_fallback_specs").value >= 1
            assert reg.counter("delivery.sweep_rounds").value >= 1
        platform_b, ads_b = self._world_with_opaque_spec()
        platform_b.run_until_saturated()
        assert engine_state(platform_a, ads_a) == \
            engine_state(platform_b, ads_b)
        assert platform_a.delivery.impression_count_for_ad(
            ads_a[-1].ad_id) > 0


class TestBudgetFallback:
    def test_budget_flip_round_replays_scalar(self):
        """A budget too small to fund a full round forces the certificate
        down the scalar-replay path; outcomes must still match."""
        with use_registry(MetricsRegistry("sweeptest")) as reg:
            platform_a, ads_a = make_world(budget=0.05,
                                           draw=fixed_competition(5.0))
            platform_a.run_sweep()
            assert reg.counter(
                "delivery.sweep_budget_fallback_rounds").value >= 1
        platform_b, ads_b = make_world(budget=0.05,
                                       draw=fixed_competition(5.0))
        platform_b.run_until_saturated()
        assert engine_state(platform_a, ads_a) == \
            engine_state(platform_b, ads_b)


def reference_auction(avail, candidates, accounts, nrows, block_rows):
    """The sweep's earlier winner selection, kept as the reference: unpack
    each block to one byte per (candidate, row), take the first available
    candidate with an argmax down the candidate axis, mask the winner's
    account out for the runner-up argmax, and count accounts with any
    available candidate."""
    mat_bytes = avail[candidates].view(np.uint8)
    multi_account = len(np.unique(accounts)) > 1
    found = []
    for r0 in range(0, nrows, block_rows):
        nb = min(r0 + block_rows, nrows) - r0
        block = np.unpackbits(
            mat_bytes[:, r0 // 8: r0 // 8 + (nb + 7) // 8],
            axis=1, count=nb, bitorder="little")
        positions = np.arange(nb)
        wpos = block.argmax(axis=0)
        has = block[wpos, positions] == 1
        if not has.any():
            continue
        hrows = np.flatnonzero(has)
        if multi_account:
            winner_acct = accounts[wpos]
            others = np.where(
                accounts[:, None] == winner_acct[None, :], 0, block)
            rpos = others.argmax(axis=0)
            rhas = others[rpos, positions] == 1
            runner = np.where(rhas, rpos, -1)[hrows]
            counts = np.zeros(nb, dtype=np.int64)
            for a in np.unique(accounts):
                counts += block[accounts == a].any(axis=0)
            counts = counts[hrows]
        else:
            runner = np.full(len(hrows), -1)
            counts = np.ones(len(hrows), dtype=np.int64)
        found.append((hrows + r0, wpos[hrows], runner, counts))
    if not found:
        return tuple(np.zeros(0, dtype=np.int64) for _ in range(4))
    return tuple(np.concatenate(part) for part in zip(*found))


def random_round(seed):
    """A random availability matrix and round, as ``_run_sweep`` builds
    them: entries in (bid desc, id asc) priority order — with tied bids —
    a random subset of them in the round, 1-4 accounts, a row count that
    is rarely a word multiple, some rows with nothing available, and a
    block size usually smaller than the range."""
    rng = np.random.default_rng(seed)
    nrows = int(rng.integers(1, 400))
    n_entries = int(rng.integers(1, 14))
    bids = rng.choice([8.0, 9.0, 10.0, 10.0, 12.0], size=n_entries)
    order = np.lexsort((np.arange(n_entries), -bids))
    bids = bids[order]
    entry_accounts = rng.integers(0, int(rng.integers(1, 5)),
                                  size=n_entries)
    density = rng.uniform(0.0, 0.6, size=(n_entries, 1))
    flags = rng.random((n_entries, nrows)) < density
    flags[:, rng.random(nrows) < 0.2] = False  # users with no candidate
    avail = np.stack([bitset.pack_bools(row) for row in flags])
    candidates = np.flatnonzero(rng.random(n_entries) < 0.8)
    if not candidates.size:
        candidates = np.arange(n_entries)
    block_rows = 64 * int(rng.integers(1, 4))
    return (avail, candidates, entry_accounts[candidates], nrows,
            block_rows, bids)


def assert_kernel_matches_reference(seed):
    avail, candidates, accounts, nrows, block_rows, bids = \
        random_round(seed)
    got = sweep_auction(avail, candidates, accounts, nrows, block_rows)
    want = reference_auction(avail, candidates, accounts, nrows,
                             block_rows)
    for name, g, w in zip(("rows", "winner", "runner", "contenders"),
                          got, want):
        assert np.array_equal(g, w), (seed, name, g, w)
    # The prices the sweep derives from the runner-up agree too.
    _rows, _winner, runner, _counts = got
    ref_runner = want[2]
    assert np.array_equal(
        np.where(runner >= 0, bids[candidates[runner]], 0.0),
        np.where(ref_runner >= 0, bids[candidates[ref_runner]], 0.0))


class TestAuctionKernel:
    def test_edge_cases_match_reference(self):
        # One candidate; nobody available; everybody available to every
        # candidate of two accounts; a range spanning several blocks.
        cases = [
            (np.array([[0b1011]], dtype=np.uint64), [0], [0], 4, 64),
            (np.zeros((3, 2), dtype=np.uint64), [0, 1, 2], [0, 1, 0],
             100, 64),
            (np.full((3, 4), np.uint64(2 ** 64 - 1)), [0, 1, 2],
             [1, 1, 0], 256, 128),
        ]
        for avail, candidates, accounts, nrows, block_rows in cases:
            args = (avail, np.array(candidates), np.array(accounts),
                    nrows, block_rows)
            for g, w in zip(sweep_auction(*args), reference_auction(*args)):
                assert np.array_equal(g, w)

    def test_runner_up_is_best_other_account(self):
        # Row 0: candidates 0 (acct 0), 1 (acct 0), 2 (acct 1) -> the
        # runner-up skips the winner's sibling. Row 1: only acct 0.
        avail = np.array([[0b01], [0b11], [0b01]], dtype=np.uint64)
        rows, winner, runner, contenders = sweep_auction(
            avail, np.arange(3), np.array([0, 0, 1]), 2, 64)
        assert rows.tolist() == [0, 1]
        assert winner.tolist() == [0, 1]
        assert runner.tolist() == [2, -1]
        assert contenders.tolist() == [2, 1]

    def test_seeded_random_rounds_match_reference(self):
        for seed in range(60):
            assert_kernel_matches_reference(seed)


if HAVE_HYPOTHESIS:
    class TestAuctionKernelProperty:
        @settings(max_examples=150, deadline=None)
        @given(seed=st.integers(0, 2 ** 32 - 1))
        def test_random_rounds_match_reference(self, seed):
            assert_kernel_matches_reference(seed)
