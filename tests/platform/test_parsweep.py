"""The parallel batch sweep: row partitioning, certificates, merging.

Worker-count equality is tested unconditionally — ``fork`` works on a
single visible core; only the *performance* claims (made in the scale
benchmarks, not here) need real parallel hardware.
"""

from __future__ import annotations

import pytest

from repro.errors import StoreError
from repro.platform import parsweep
from repro.platform.parsweep import (
    certify_budgets,
    parallel_sweep,
    partition_rows,
    visible_cores,
)
from repro.store.store import NullStore
from repro.workloads.competition import (
    fixed_competition,
    lognormal_competition,
)

from tests.platform.test_sweep_delivery import engine_state, make_world


def parallel_world(**kwargs):
    kwargs.setdefault("compact", True)
    kwargs.setdefault("store", NullStore())
    return make_world(**kwargs)


class TestPartitionRows:
    def test_covers_rows_exactly_once(self):
        for nrows in (1, 63, 64, 65, 500, 1_000_003):
            for workers in (1, 2, 3, 4, 7, 16):
                ranges = partition_rows(nrows, workers)
                assert len(ranges) <= workers
                assert ranges[0][0] == 0
                assert ranges[-1][1] == nrows
                for (a_start, a_stop), (b_start, b_stop) in zip(
                        ranges, ranges[1:]):
                    assert a_stop == b_start
                    assert a_start < a_stop

    def test_interior_boundaries_are_word_aligned(self):
        for nrows in (500, 1000, 1_000_003):
            for workers in (2, 3, 4, 7):
                for start, stop in partition_rows(nrows, workers)[:-1]:
                    assert start % 64 == 0
                    assert stop % 64 == 0

    def test_edge_cases(self):
        assert partition_rows(0, 4) == []
        assert partition_rows(10, 1) == [(0, 10)]
        # More workers than words of rows: one range, never empty ones.
        assert partition_rows(10, 16) == [(0, 10)]
        with pytest.raises(ValueError, match="positive"):
            partition_rows(100, 0)

    def test_visible_cores_positive(self):
        assert visible_cores() >= 1


class TestCertificates:
    def test_random_draw_is_rejected(self):
        platform, _ads = parallel_world(draw=lognormal_competition(seed=3))
        with pytest.raises(StoreError, match="constant"):
            certify_budgets(platform.delivery, len(platform.users))

    def test_tight_budget_is_rejected(self):
        platform, _ads = parallel_world(budget=0.05,
                                        draw=fixed_competition(5.0))
        with pytest.raises(StoreError, match="certify"):
            certify_budgets(platform.delivery, len(platform.users))

    def test_solvent_world_certifies(self):
        platform, _ads = parallel_world(budget=100.0,
                                        draw=fixed_competition(5.0))
        certify_budgets(platform.delivery, len(platform.users))

    def test_zero_competition_certifies_any_positive_budget(self):
        # The Treads economics: one account, zero competition, zero
        # floor — the price cap is $0, so any budget certifies.
        platform, _ads = parallel_world(budget=0.01)
        certify_budgets(platform.delivery, len(platform.users))


class TestPreconditions:
    def test_needs_compact_engine(self):
        platform, _ads = make_world(compact=False, store=NullStore())
        with pytest.raises(StoreError, match="compact"):
            parallel_sweep(platform.delivery, workers=2)

    def test_needs_record_discarding_store(self):
        platform, _ads = make_world(compact=True)  # MemoryStore journal
        with pytest.raises(StoreError, match="discarding"):
            parallel_sweep(platform.delivery, workers=2)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kwargs, match", [
        ({"block_rows": 100}, "block_rows must be a positive multiple"),
        ({"block_rows": 0}, "block_rows must be a positive multiple"),
        ({"max_rounds": -1}, "max_rounds must be a non-negative"),
        ({"max_rounds": 2.5}, "max_rounds must be a non-negative"),
    ])
    def test_bad_sweep_arguments_fail_before_forking(
            self, monkeypatch, workers, kwargs, match):
        """One worker and many raise the same ValueError, and the
        parallel path raises it without forking a worker."""
        platform, _ads = parallel_world(users=200)

        def no_fork(*args, **kw):
            raise AssertionError("parallel_sweep forked")
        monkeypatch.setattr(parsweep, "get_context", no_fork)
        with pytest.raises(ValueError, match=match):
            parallel_sweep(platform.delivery, workers=workers, **kwargs)
        assert platform.delivery.impression_count() == 0

    def test_uncertifiable_budget_fails_before_forking(self):
        platform, _ads = parallel_world(budget=0.05, users=200,
                                        draw=fixed_competition(5.0))
        with pytest.raises(StoreError, match="certify"):
            parallel_sweep(platform.delivery, workers=2)


class TestWorkerEquality:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_parallel_matches_single_process(self, workers):
        parallel, ads_parallel = parallel_world(users=500)
        serial, ads_serial = parallel_world(users=500)
        stats_parallel = parallel_sweep(parallel.delivery, workers=workers)
        stats_serial = serial.delivery.sweep_slots()
        assert stats_parallel == stats_serial
        assert engine_state(parallel, ads_parallel) == \
            engine_state(serial, ads_serial)

    def test_parallel_matches_scalar_with_prices(self):
        """Priced sweeps: counts/reach identical; spend folds per-range
        price sums, so it matches scalar billing only to float tolerance
        (the zero-price Treads economics are exactly identical)."""
        parallel, ads_parallel = parallel_world(
            users=300, accounts=2, draw=fixed_competition(1.0))
        scalar, ads_scalar = parallel_world(
            users=300, accounts=2, draw=fixed_competition(1.0))
        parallel_sweep(parallel.delivery, workers=3)
        scalar.run_until_saturated()
        for ad_parallel, ad_scalar in zip(ads_parallel, ads_scalar):
            assert parallel.delivery.impression_count_for_ad(
                ad_parallel.ad_id) == \
                scalar.delivery.impression_count_for_ad(ad_scalar.ad_id)
            assert parallel.delivery.reach_count(ad_parallel.ad_id) == \
                scalar.delivery.reach_count(ad_scalar.ad_id)
            assert parallel.ledger.spend_for_ad(ad_parallel.ad_id) == \
                pytest.approx(scalar.ledger.spend_for_ad(ad_scalar.ad_id))

    def test_platform_run_sweep_routes_workers(self):
        parallel, ads_parallel = parallel_world(users=300)
        serial, ads_serial = parallel_world(users=300)
        parallel.run_sweep(workers=2)
        serial.run_sweep()
        assert engine_state(parallel, ads_parallel) == \
            engine_state(serial, ads_serial)

    def test_one_range_degenerates_to_inprocess_sweep(self):
        platform, _ads = parallel_world(users=60)
        stats = parallel_sweep(platform.delivery, workers=4)
        assert stats.filled_by_tracked_ads > 0
        # A second pass over saturated inventory delivers nothing.
        assert parallel_sweep(platform.delivery,
                              workers=4).filled_by_tracked_ads == 0
