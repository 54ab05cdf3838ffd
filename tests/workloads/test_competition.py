"""Tests for the keyed competing-demand model."""

import random

import numpy as np
import pytest

from repro.workloads import competition
from repro.workloads.competition import KeyedCompetition


def _keys(n, seed=0):
    rng = random.Random(seed)
    return ([rng.randrange(2 ** 31) for _ in range(n)],
            [rng.randrange(2 ** 20) for _ in range(n)])


class TestModels:
    def test_fixed(self):
        model = competition.fixed_competition(2.0)
        assert model.bid(0, 0) == pytest.approx(0.002)
        assert model.bid(5, 9) == pytest.approx(0.002)

    def test_zero(self):
        model = competition.zero_competition()
        assert model.bid(3, 1) == 0.0
        assert model.constant == 0.0

    def test_lognormal_median_calibration(self):
        model = competition.lognormal_competition(median_cpm=2.0, seed=1)
        samples = np.sort(model.bids(np.arange(10_001), np.zeros(10_001)))
        median = samples[len(samples) // 2]
        assert median == pytest.approx(0.002, rel=0.1)

    def test_lognormal_reproducible(self):
        a = competition.lognormal_competition(seed=5)
        b = competition.lognormal_competition(seed=5)
        assert [a.bid(0, s) for s in range(10)] == \
            [b.bid(0, s) for s in range(10)]

    def test_peak_offpeak_between_regimes(self):
        model = competition.peak_offpeak_competition(seed=2)
        samples = model.bids(np.arange(5000), np.zeros(5000))
        mean_cpm = 1000 * samples.mean()
        assert 1.0 < mean_cpm < 4.5


class TestKeyedBids:
    @pytest.mark.parametrize("model", [
        KeyedCompetition(seed=7, median_cpm=2.0, sigma=0.5),
        competition.peak_offpeak_competition(seed=31),
    ], ids=["lognormal", "peak-offpeak"])
    def test_scalar_path_equals_vector_kernel_bits(self, model):
        rows, slots = _keys(12_000)
        vector = model.bids(rows, slots)
        assert [model.bid(r, s).hex() for r, s in zip(rows, slots)] == \
            [float(b).hex() for b in vector]

    def test_sigma_zero_is_exactly_the_constant(self):
        model = KeyedCompetition(seed=7, median_cpm=1.0, sigma=0)
        assert model.constant == 1.0 / 1000.0
        assert model.bid(4, 2).hex() == (1.0 / 1000.0).hex() == \
            "0x1.0624dd2f1a9fcp-10"
        assert {b.hex() for b in model.bids([0, 1, 2], [5, 6, 7])} == \
            {"0x1.0624dd2f1a9fcp-10"}

    def test_zero_median_is_no_competition(self):
        model = KeyedCompetition(seed=7, median_cpm=0.0, sigma=0.5)
        assert model.constant == 0.0
        assert model.bid(4, 2) == 0.0
        assert not model.bids([1, 2], [3, 4]).any()

    def test_random_market_has_no_constant(self):
        assert KeyedCompetition(median_cpm=2.0, sigma=0.5).constant is None
        two_regimes = competition.peak_offpeak_competition(sigma=0.0)
        assert two_regimes.constant is None
        assert {b for b in two_regimes.bids(np.arange(200),
                                            np.zeros(200))} == \
            {1.2 / 1000.0, 4.0 / 1000.0}

    def test_order_independent(self):
        model = KeyedCompetition(seed=9)
        rows, slots = _keys(1000, seed=3)
        order = list(range(1000))
        random.Random(4).shuffle(order)
        shuffled = model.bids([rows[i] for i in order],
                              [slots[i] for i in order])
        assert np.array_equal(shuffled, model.bids(rows, slots)[order])

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            KeyedCompetition(median_cpm=-1.0)
        with pytest.raises(ValueError):
            KeyedCompetition(sigma=-0.1)
        with pytest.raises(ValueError):
            KeyedCompetition(peak_fraction=1.5)


class TestWinRates:
    def test_paper_calibration_points(self):
        """$2 CPM wins ~half, $10 CPM (the validation's 5x) wins ~always."""
        model = competition.lognormal_competition(seed=9)
        assert 0.45 < competition.win_rate(2.0, model) < 0.55
        assert competition.win_rate(10.0, model) > 0.98

    def test_win_rate_curve_monotone(self):
        model = competition.lognormal_competition(seed=9)
        curve = competition.win_rate_curve(
            [0.5, 1.0, 2.0, 5.0, 10.0, 20.0], model, trials=5000
        )
        rates = [rate for _, rate in curve]
        assert rates == sorted(rates)
        assert rates[0] < 0.1
        assert rates[-1] > 0.99
