"""Unit tests for the second-price impression auction."""

import pytest

from repro.platform.ads import Ad, AdCreative
from repro.platform.auction import run_auction
from repro.platform.targeting import parse
from repro.workloads.competition import (
    fixed_competition,
    lognormal_competition,
    win_rate,
)


def _ad(ad_id, bid_cpm, account_id=None):
    return Ad(
        ad_id=ad_id, account_id=account_id or f"acct-{ad_id}",
        campaign_id="c", creative=AdCreative("h", "b"),
        targeting=parse("all"), bid_cap_cpm=bid_cpm,
    )


class TestRunAuction:
    def test_highest_bid_wins(self):
        outcome = run_auction([_ad("x", 2.0), _ad("y", 10.0)],
                              competing_bid=0.0)
        assert outcome.winner.ad_id == "y"

    def test_winner_pays_second_price(self):
        outcome = run_auction([_ad("x", 2.0), _ad("y", 10.0)],
                              competing_bid=0.0)
        assert outcome.price == pytest.approx(0.002)

    def test_competing_bid_sets_price(self):
        outcome = run_auction([_ad("y", 10.0)], competing_bid=0.004)
        assert outcome.winner is not None
        assert outcome.price == pytest.approx(0.004)

    def test_competition_outbids(self):
        outcome = run_auction([_ad("x", 2.0)], competing_bid=0.005)
        assert outcome.winner is None
        assert outcome.price == 0.0

    def test_tie_goes_to_competition(self):
        """Equal bid does not beat the competing bid (strict >)."""
        outcome = run_auction([_ad("x", 2.0)], competing_bid=0.002)
        assert outcome.winner is None

    def test_price_never_exceeds_cap(self):
        outcome = run_auction([_ad("x", 2.0), _ad("y", 2.0)],
                              competing_bid=0.0019)
        assert outcome.winner is not None
        assert outcome.price <= outcome.winner.bid_per_impression

    def test_same_account_ads_do_not_self_compete(self):
        """A Tread sweep's sibling ads must not inflate the second price:
        only the best ad per account enters the auction."""
        siblings = [_ad(f"t{i}", 10.0, account_id="provider")
                    for i in range(5)]
        outcome = run_auction(siblings, competing_bid=0.002)
        assert outcome.winner is not None
        assert outcome.price == pytest.approx(0.002)  # market, not $0.01

    def test_deterministic_tie_break_by_id(self):
        outcome = run_auction([_ad("b", 5.0), _ad("a", 5.0)],
                              competing_bid=0.0)
        assert outcome.winner.ad_id == "a"

    def test_floor_price_blocks_low_bids(self):
        outcome = run_auction([_ad("x", 1.0)], competing_bid=0.0,
                              floor_price=0.002)
        assert outcome.winner is None

    def test_floor_price_charged(self):
        outcome = run_auction([_ad("x", 5.0)], competing_bid=0.0,
                              floor_price=0.002)
        assert outcome.price == pytest.approx(0.002)

    def test_empty_eligible_set(self):
        outcome = run_auction([], competing_bid=0.001)
        assert outcome.winner is None

    def test_negative_competition_rejected(self):
        with pytest.raises(ValueError):
            run_auction([_ad("x", 2.0)], competing_bid=-0.1)


class TestWinProbability:
    """A lone bid's win rate over keyed competing bids
    (:func:`repro.workloads.competition.win_rate`)."""

    def test_sure_win_against_fixed_lower(self):
        assert win_rate(10.0, fixed_competition(2.0), trials=100) == 1.0

    def test_sure_loss_against_fixed_higher(self):
        assert win_rate(1.0, fixed_competition(2.0), trials=100) == 0.0

    def test_median_bid_wins_about_half(self):
        """The paper's $2-CPM 'recommended bid' calibration point."""
        rate = win_rate(2.0, lognormal_competition(median_cpm=2.0),
                        trials=20_000)
        assert 0.45 < rate < 0.55

    def test_five_x_bid_nearly_always_wins(self):
        """The validation's 5x elevation ($10 CPM) should essentially
        guarantee delivery."""
        rate = win_rate(10.0, lognormal_competition(median_cpm=2.0),
                        trials=20_000)
        assert rate > 0.98

    def test_invalid_trials_rejected(self):
        with pytest.raises(ValueError):
            win_rate(2.0, fixed_competition(2.0), trials=0)
