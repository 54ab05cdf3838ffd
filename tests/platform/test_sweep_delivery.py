"""The batch sweep engine: vectorized delivery == per-slot delivery.

The per-slot side is :func:`tests.platform.scalar_reference.saturate`,
the engine's ``_serve_round`` repeated until saturation.

The integration equivalence suite pins the full 2,000-user partner
sweep; these tests pin the engine-level machinery — precondition
errors, partial row ranges, per-spec matcher fallback routing,
multi-account runner-up pricing, lost slots under a keyed random
market (bit for bit, slot counters included), the one-step delivery
under a constant market (against the round loop too),
budget fallback rounds, the sweep's observability counters, and the per-row
candidate lists, driven round by round, against an unpacked-argmax
reference.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry, use_registry
from repro.platform import bitset
from repro.platform.ads import AdCreative
from repro.platform.catalog import build_us_catalog
from repro.platform.delivery import SweepLists
from repro.platform.platform import AdPlatform, PlatformConfig
from repro.platform.targeting import HasAttr, lower_spec
from repro.store.records import ImpressionRecorded
from repro.store.store import JournalStore
from repro.workloads.competition import (
    KeyedCompetition,
    fixed_competition,
    lognormal_competition,
    zero_competition,
)
from tests.platform.scalar_reference import saturate

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - CI without hypothesis
    HAVE_HYPOTHESIS = False


def make_world(compact=False, users=130, n_ads=6, draw=None,
               budget=100.0, accounts=1, store=None, floor_cpm=0.0):
    """A columnar delivery world with ``accounts`` competing advertisers."""
    platform = AdPlatform(
        config=PlatformConfig(name="sweng", compact_delivery=compact,
                              floor_price_cpm=floor_cpm),
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


class UnlabelledConstant(KeyedCompetition):
    """A constant market that does not say so: its bids are the constant,
    but the sweep cannot tell and runs it round by round."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.constant = None


def ledger_bits(platform, ads):
    """Every ad's spend and account's budget as ``float.hex``."""
    return (
        {ad.ad_id: platform.ledger.spend_for_ad(ad.ad_id).hex()
         for ad in ads},
        {ad.account_id: platform.inventory.account(
            ad.account_id).budget.hex() for ad in ads},
    )


def auction_observations(reg):
    """The slot counter and the auction instruments of ``reg``."""
    return {
        "slots_served": reg.counter("delivery.slots_served").value,
        "contenders": reg.histogram("auction.contenders").bucket_counts(),
        "clearing_price": reg.histogram(
            "auction.clearing_price_cpm").bucket_counts(),
        "won": reg.counter("auction.slots_won").value,
        "lost": reg.counter("auction.slots_lost").value,
    }


class TestPreconditions:
    def test_needs_columnar_store(self):
        """The columnar store is the only one; asking for the removed
        object store fails loudly at construction."""
        with pytest.raises(ValueError, match="columnar"):
            AdPlatform(config=PlatformConfig(name="legacy",
                                             columnar_users=False))

    def test_range_validation(self):
        platform, _ads = make_world(users=70)
        with pytest.raises(ValueError, match="boundary"):
            platform.delivery.sweep_slots((10, 70))
        with pytest.raises(ValueError, match="outside"):
            platform.delivery.sweep_slots((0, 1000))


class TestBlockDecomposition:
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
        stats_scalar = saturate(platform_b)
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
        saturate(platform_b)
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

    @pytest.mark.parametrize("compact", [False, True])
    @pytest.mark.parametrize("accounts", [1, 2])
    def test_lost_slots_keep_their_candidate(self, compact, accounts):
        """A random draw around the bids loses real slots: a losing row
        keeps its candidate for the next round, and the draws go to the
        auctioned rows in ascending order, as in the scalar loop."""
        def world():
            return make_world(compact=compact, accounts=accounts,
                              draw=lognormal_competition(
                                  median_cpm=9.5, seed=5))
        platform_a, ads_a = world()
        platform_b, ads_b = world()
        stats_sweep = platform_a.run_sweep()
        stats_scalar = saturate(platform_b)
        assert stats_sweep.lost_to_competition > 0
        assert stats_sweep == stats_scalar
        assert engine_state(platform_a, ads_a) == \
            engine_state(platform_b, ads_b)

    @pytest.mark.parametrize("compact", [False, True])
    def test_keyed_lognormal_sweep_equals_scalar_bits(self, compact):
        """Under the keyed log-normal market every auctioned row draws
        the bid of its next slot index, one vector call per round: the
        sweep equals the per-slot loop bit for bit (``float.hex`` of
        every spend and budget) and leaves the same slot counters."""
        def world():
            return make_world(compact=compact, accounts=2, users=300,
                              draw=lognormal_competition(
                                  median_cpm=8.0, sigma=0.5, seed=11))
        platform_a, ads_a = world()
        platform_b, ads_b = world()
        # Some rows already served per slot: their counters start ahead.
        for user in list(platform_a.users)[:40:3]:
            platform_a.delivery.serve_slot(user)
        for user in list(platform_b.users)[:40:3]:
            platform_b.delivery.serve_slot(user)
        stats_sweep = platform_a.run_sweep()
        stats_scalar = saturate(platform_b)
        assert stats_sweep.lost_to_competition > 0
        assert stats_sweep == stats_scalar
        assert ledger_bits(platform_a, ads_a) == ledger_bits(platform_b,
                                                             ads_b)
        assert engine_state(platform_a, ads_a) == \
            engine_state(platform_b, ads_b)
        assert np.array_equal(platform_a.delivery._slot_counts,
                              platform_b.delivery._slot_counts)

    def test_slot_counters_survive_a_state_dump(self):
        """A restored engine keys each row's next slot where the dumped
        one would have: one more slot per user on both agrees."""
        def world():
            return make_world(users=60, draw=lognormal_competition(
                median_cpm=9.0, sigma=0.5, seed=3))
        live, _ads = world()
        live.run_delivery(slots_per_user=2)
        dump = json.loads(json.dumps(live.delivery.state_dump()))
        assert dump["slot_counts"] == [2] * 60
        restored, _ads = world()
        restored.delivery.state_load(dump)
        live.run_delivery(slots_per_user=1)
        restored.run_delivery(slots_per_user=1)
        assert restored.delivery.state_dump() == live.delivery.state_dump()

    @pytest.mark.parametrize("draw_cpm, floor_cpm, max_rounds, compact", [
        # The constant beats account 1's bid: once a row has taken
        # account 0's ads it loses a slot in every remaining round.
        (9.5, 0.0, 50, True),
        # So does the floor.
        (1.0, 9.5, 50, True),
        # max_rounds ends the sweep inside the longest lists.
        (9.5, 0.0, 2, True),
        # Full mode with a journal: impression records in the per-slot
        # loop's seq order.
        (1.0, 0.0, 3, False),
    ])
    def test_one_step_equals_rounds_and_scalar_loop(
            self, tmp_path, draw_cpm, floor_cpm, max_rounds, compact):
        """Under a constant draw the sweep delivers all its rounds in one
        step. It must equal the per-slot loop (stats, state, bit-exact
        ledger, journal, slot counter, auction histogram buckets) and the
        round-by-round sweep the same market takes without its constant
        label (all that, plus the round counter)."""
        def run(kind, draw):
            store = (None if compact
                     else JournalStore(str(tmp_path / f"{kind}.jsonl")))
            with use_registry(MetricsRegistry(kind)) as reg:
                platform, ads = make_world(
                    compact=compact, accounts=2, draw=draw,
                    floor_cpm=floor_cpm, store=store)
                if kind == "scalar":
                    stats = saturate(platform, max_rounds=max_rounds)
                else:
                    stats = platform.run_sweep(max_rounds=max_rounds)
                observed = auction_observations(reg)
                rounds = reg.counter("delivery.sweep_rounds").value
            journal = []
            if store is not None:
                journal = [(r.seq, r.ad_id, r.user_id, r.price.hex())
                           for r in store.records()
                           if isinstance(r, ImpressionRecorded)]
                store.close()
            return (stats, engine_state(platform, ads),
                    ledger_bits(platform, ads), journal, observed, rounds)

        draw = fixed_competition(draw_cpm)
        step = run("step", draw)
        rounds = run("rounds", UnlabelledConstant(median_cpm=draw_cpm,
                                                   sigma=0.0))
        scalar = run("scalar", draw)
        assert step[0].filled_by_tracked_ads > 0
        if draw_cpm > 9.0 or floor_cpm > 9.0:
            assert step[0].lost_to_competition > 0
        if not compact:
            assert len(step[3]) == step[0].filled_by_tracked_ads
        assert step[4]["slots_served"] == step[0].slots
        assert step[:5] == scalar[:5]
        assert step == rounds

    def test_fallback_round_mid_sweep_then_vector_rounds(self):
        """One account's budget runs out mid-sweep: that round replays
        through the scalar loop, and the other account keeps delivering
        in vector rounds built from what the replay left."""
        def world():
            platform, ads = make_world(accounts=2,
                                       draw=fixed_competition(1.0))
            # Enough for the first round's wins at the runner-up's
            # 9 CPM (130 users), not for the second round's.
            platform.inventory.account(ads[0].account_id).budget = 1.4
            return platform, ads

        with use_registry(MetricsRegistry("sweeptest")) as reg:
            platform_a, ads_a = world()
            engine = platform_a.delivery
            vector_rounds_at_fallback = []
            serve_round = engine._serve_round

            def traced_serve_round(*args, **kwargs):
                vector_rounds_at_fallback.append(
                    reg.counter("delivery.sweep_rounds").value)
                return serve_round(*args, **kwargs)
            engine._serve_round = traced_serve_round
            stats_sweep = platform_a.run_sweep()
            assert reg.counter(
                "delivery.sweep_budget_fallback_rounds").value >= 1
            assert vector_rounds_at_fallback[0] >= 1
            assert reg.counter("delivery.sweep_rounds").value > \
                vector_rounds_at_fallback[-1]
        platform_b, ads_b = world()
        stats_scalar = saturate(platform_b)
        assert stats_sweep == stats_scalar
        assert engine_state(platform_a, ads_a) == \
            engine_state(platform_b, ads_b)
        late = [ad for ad in ads_a if ad.account_id != ads_a[0].account_id]
        assert sum(platform_a.delivery.impression_count_for_ad(ad.ad_id)
                   for ad in late) > 0


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
        saturate(platform_b)
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
        saturate(platform_b)
        assert engine_state(platform_a, ads_a) == \
            engine_state(platform_b, ads_b)


def reference_auction(avail, candidates, accounts, nrows):
    """The sweep's earlier winner selection, kept as the reference: unpack
    the matrix to one byte per (candidate, row), take the first available
    candidate with an argmax down the candidate axis, mask the winner's
    account out for the runner-up argmax, and count accounts with any
    available candidate. Returns ``(rows, winner, runner, contenders)``
    with winner and runner as positions in ``candidates``."""
    block = np.unpackbits(avail[candidates].view(np.uint8), axis=1,
                          count=nrows, bitorder="little")
    positions = np.arange(nrows)
    wpos = block.argmax(axis=0)
    has = block[wpos, positions] == 1
    hrows = np.flatnonzero(has)
    if len(np.unique(accounts)) > 1:
        winner_acct = accounts[wpos]
        others = np.where(
            accounts[:, None] == winner_acct[None, :], 0, block)
        rpos = others.argmax(axis=0)
        rhas = others[rpos, positions] == 1
        runner = np.where(rhas, rpos, -1)[hrows]
        counts = np.zeros(nrows, dtype=np.int64)
        for a in np.unique(accounts):
            counts += block[accounts == a].any(axis=0)
        counts = counts[hrows]
    else:
        runner = np.full(len(hrows), -1)
        counts = np.ones(len(hrows), dtype=np.int64)
    return hrows, wpos[hrows], runner, counts


def assert_round_matches_reference(lists, avail, delivered, candidates,
                                   entry_accounts, nrows):
    """One round of the lists equals the reference over the matrix with
    the delivered pairs cleared; returns the round."""
    got = lists.auction()
    rows, wpos, rpos, counts = reference_auction(
        avail & ~delivered, candidates, entry_accounts[candidates], nrows)
    want = (rows, candidates[wpos],
            np.where(rpos >= 0, candidates[rpos], -1), counts)
    for name, g, w in zip(("rows", "winner", "runner", "contenders"),
                          got, want):
        assert np.array_equal(g, w), (name, g, w)
    return got


def deliver(delivered, rows, winners):
    for row, entry in zip(rows.tolist(), winners.tolist()):
        delivered[entry, row // 64] |= np.uint64(1 << (row % 64))


def random_world(rng):
    """A random availability matrix as ``_run_sweep`` builds one:
    entries in (bid desc, id asc) priority order — with tied bids — 1-4
    accounts, a row count that is rarely a word multiple, and some rows
    with nothing available."""
    nrows = int(rng.integers(1, 400))
    n_entries = int(rng.integers(1, 14))
    bids = rng.choice([8.0, 9.0, 10.0, 10.0, 12.0], size=n_entries)
    order = np.lexsort((np.arange(n_entries), -bids))
    entry_accounts = rng.integers(0, int(rng.integers(1, 5)),
                                  size=n_entries)[order]
    density = rng.uniform(0.0, 0.6, size=(n_entries, 1))
    flags = rng.random((n_entries, nrows)) < density
    flags[:, rng.random(nrows) < 0.2] = False  # users with no candidate
    avail = np.stack([bitset.from_indices(np.flatnonzero(row), nrows)
                      for row in flags])
    return avail, entry_accounts, nrows


#: The round budget the kernel tests build their lists with.
ROUNDS = 8


def assert_rounds_match_reference(seed):
    """Drive the lists through several rounds — random win/loss masks,
    and one round whose candidate set shrinks, rebuilding the lists from
    the matrix with the delivered pairs cleared, as the sweep does."""
    rng = np.random.default_rng(seed)
    avail, entry_accounts, nrows = random_world(rng)
    n_entries = len(avail)
    candidates = np.flatnonzero(rng.random(n_entries) < 0.8)
    if not candidates.size:
        candidates = np.arange(n_entries)
    delivered = np.zeros_like(avail)
    built = avail
    lists = SweepLists(built, candidates, entry_accounts[candidates], nrows,
                       ROUNDS)
    since_built = np.zeros_like(avail)
    shrink_at = int(rng.integers(1, 5))
    for round_no in range(6):
        if round_no == shrink_at:
            # The sweep stops on an empty candidate set: keep one.
            keep = rng.random(len(candidates)) < 0.7
            keep[0] = True
            candidates = candidates[keep]
            built = avail & ~delivered
            lists = SweepLists(built, candidates,
                               entry_accounts[candidates], nrows, ROUNDS)
            since_built = np.zeros_like(avail)
        rows, winner, _runner, _counts = assert_round_matches_reference(
            lists, avail, delivered, candidates, entry_accounts, nrows)
        won = rng.random(len(rows)) < rng.uniform(0.2, 1.0)
        lists.advance(rows[won], round_no)
        deliver(delivered, rows[won], winner[won])
        deliver(since_built, rows[won], winner[won])
    # The lists' own record of their wins is what was delivered.
    assert np.array_equal(lists.delivered_words(built, candidates),
                          since_built[candidates])


class TestAuctionKernel:
    def test_edge_cases_match_reference(self):
        # One candidate; nobody available; everybody available to every
        # candidate of two accounts over several words — each driven
        # until every row has won all its candidates.
        cases = [
            (np.array([[0b1011]], dtype=np.uint64), [0], [0], 4),
            (np.zeros((3, 2), dtype=np.uint64), [0, 1, 2], [0, 1, 0], 100),
            (np.full((3, 4), np.uint64(2 ** 64 - 1)), [0, 1, 2],
             [1, 1, 0], 256),
        ]
        for avail, candidates, accounts, nrows in cases:
            candidates = np.array(candidates)
            entry_accounts = np.array(accounts)
            delivered = np.zeros_like(avail)
            lists = SweepLists(avail, candidates, entry_accounts, nrows,
                               ROUNDS)
            for round_no in range(len(candidates) + 1):
                rows, winner, _runner, _counts = \
                    assert_round_matches_reference(
                        lists, avail, delivered, candidates,
                        entry_accounts, nrows)
                lists.advance(rows, round_no)
                deliver(delivered, rows, winner)
            assert not lists.auction()[0].size

    def test_runner_up_is_best_other_account(self):
        # Row 0: candidates 0 (acct 0), 1 (acct 0), 2 (acct 1) -> the
        # runner-up skips the winner's sibling. Row 1: only acct 0.
        avail = np.array([[0b01], [0b11], [0b01]], dtype=np.uint64)
        lists = SweepLists(avail, np.arange(3), np.array([0, 0, 1]), 2,
                           ROUNDS)
        rounds = []
        for round_no, won in enumerate(([0, 1], [], [0], [0])):
            rows, winner, runner, contenders = lists.auction()
            rounds.append((rows.tolist(), winner.tolist(),
                           runner.tolist(), contenders.tolist()))
            lists.advance(np.array(won, dtype=np.int64), round_no)
        assert rounds == [
            ([0, 1], [0, 1], [2, -1], [2, 1]),
            # Both advance; row 1 is done. Row 0 then loses a slot and
            # keeps its candidate.
            ([0], [1], [2], [2]),
            ([0], [1], [2], [2]),
            ([0], [2], [-1], [1]),
        ]
        assert not lists.auction()[0].size

    def test_seeded_random_rounds_match_reference(self):
        for seed in range(60):
            assert_rounds_match_reference(seed)


if HAVE_HYPOTHESIS:
    class TestAuctionKernelProperty:
        @settings(max_examples=150, deadline=None)
        @given(seed=st.integers(0, 2 ** 32 - 1))
        def test_random_rounds_match_reference(self, seed):
            assert_rounds_match_reference(seed)
