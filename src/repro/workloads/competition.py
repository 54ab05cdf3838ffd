"""The competing-demand model for the impression auction.

The paper's cost and delivery reasoning assumes a market where the
platform's recommended $2 CPM bid wins a typical US impression and a 5x
elevated bid ($10 CPM) wins essentially always (section 3.1). The model
here gives the "strongest competing bid" per impression that
:func:`repro.platform.auction.run_auction` prices against, as a pure
function of ``(seed, user row, slot index)``: whatever process, shard or
sweep round asks, in whatever order.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1, _M2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_TWO_PI = 2.0 * np.pi
_UNIT = 2.0 ** -53
_log, _sqrt, _cos, _exp = np.log, np.sqrt, np.cos, np.exp


def _mix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, in place over ``uint64`` arrays."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_M1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_M2)
    z ^= z >> np.uint64(31)
    return z


def _mix_int(z: int) -> int:
    """:func:`_mix` over one Python int in ``[0, 2**64)``."""
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


class KeyedCompetition:
    """Log-normal competing bids keyed on ``(seed, user row, slot)``.

    A key's bid is ``median_cpm / 1000 * exp(sigma * z)`` dollars, ``z``
    a standard normal by Box-Muller from two uniforms of a splitmix64
    counter hash of ``row << 32 | slot`` (distinct for rows below 2**31
    and slots below 2**32). ``sigma == 0`` is the constant market
    (``exp(0)`` is 1.0, so exactly ``median_cpm / 1000``) and
    ``median_cpm == 0`` no competition; :attr:`constant` names both. With
    ``peak_fraction > 0`` one more keyed uniform puts that share of
    slots in a pricier regime with median ``peak_median_cpm``.

    :meth:`bids` is the kernel over key arrays; :meth:`bid` mirrors it
    for one key with Python ints and the same numpy ufuncs, bit for bit.
    """

    def __init__(self, seed: int = 7, median_cpm: float = 2.0,
                 sigma: float = 0.5, peak_median_cpm: float = 0.0,
                 peak_fraction: float = 0.0):
        if min(median_cpm, peak_median_cpm, sigma) < 0 or \
                not 0.0 <= peak_fraction <= 1.0:
            raise ValueError("negative median or sigma, or a peak "
                             "fraction outside [0, 1]")
        self.sigma = sigma
        self.peak_fraction = peak_fraction
        self._price = median_cpm / 1000.0
        self._peak_price = peak_median_cpm / 1000.0
        self._key = _mix_int(seed & _MASK)
        varies = peak_fraction or (sigma and median_cpm)
        #: The one bid of a constant market, or None when bids vary.
        self.constant: Optional[float] = None if varies else self._price

    def bids(self, rows: Sequence[int], slots: Sequence[int]) -> np.ndarray:
        """The bids (dollars) of the keys ``(rows[i], slots[i])``."""
        key = (np.asarray(rows, dtype=np.uint64) << np.uint64(32)
               | np.asarray(slots, dtype=np.uint64))
        # (2 * key + 1) * _GAMMA + the seed's key, modulo 2**64.
        counter = key * np.uint64(2 * _GAMMA & _MASK) + np.uint64(
            (_GAMMA + self._key) & _MASK)
        h2 = _mix(counter + np.uint64(_GAMMA))
        h1 = _mix(counter)
        u1 = ((h1 >> np.uint64(11)) + np.uint64(1)).astype(np.float64)
        u2 = (h2 >> np.uint64(11)).astype(np.float64)
        z = _sqrt(-2.0 * _log(u1 * _UNIT)) * _cos(_TWO_PI * (u2 * _UNIT))
        scale: Union[float, np.ndarray] = self._price
        if self.peak_fraction:
            u3 = (_mix(h1 ^ h2) >> np.uint64(11)).astype(np.float64)
            scale = np.where(u3 * _UNIT < self.peak_fraction,
                             self._peak_price, self._price)
        return scale * _exp(self.sigma * z)

    def bid(self, row: int, slot: int) -> float:
        """The bid (dollars) of one key: :meth:`bids`, bit for bit."""
        counter = (2 * (row << 32 | slot) + 1) * _GAMMA + self._key
        h1 = _mix_int(counter & _MASK)
        h2 = _mix_int((counter + _GAMMA) & _MASK)
        # A Python float and a numpy float64 round alike: only the
        # ufuncs must be numpy's.
        z = (float(_sqrt(-2.0 * float(_log(((h1 >> 11) + 1) * _UNIT))))
             * float(_cos(_TWO_PI * ((h2 >> 11) * _UNIT))))
        scale = self._price
        if self.peak_fraction and \
                (_mix_int(h1 ^ h2) >> 11) * _UNIT < self.peak_fraction:
            scale = self._peak_price
        return scale * float(_exp(self.sigma * z))


def lognormal_competition(median_cpm: float = 2.0, sigma: float = 0.5,
                          seed: int = 7) -> KeyedCompetition:
    """The paper's calibration: at a $2 CPM median the recommended bid
    breaks even and a $10 CPM bid wins almost always."""
    return KeyedCompetition(seed=seed, median_cpm=median_cpm, sigma=sigma)


def fixed_competition(cpm: float) -> KeyedCompetition:
    """A constant competing bid of ``cpm`` CPM — unit tests use this."""
    return KeyedCompetition(median_cpm=cpm, sigma=0.0)


def zero_competition() -> KeyedCompetition:
    """No ambient demand: with a zero floor every eligible ad wins at the
    runner-up's price, the paper's validation economics."""
    return KeyedCompetition(median_cpm=0.0, sigma=0.0)


def peak_offpeak_competition(offpeak_median_cpm: float = 1.2,
                             peak_median_cpm: float = 4.0,
                             peak_fraction: float = 0.3, sigma: float = 0.4,
                             seed: int = 11) -> KeyedCompetition:
    """A two-regime market: most slots off-peak, some in a pricier peak
    (the bid-cap ablation's demand spikes)."""
    return KeyedCompetition(seed=seed, median_cpm=offpeak_median_cpm,
                            sigma=sigma, peak_median_cpm=peak_median_cpm,
                            peak_fraction=peak_fraction)


def win_rate(bid_cpm: float, model: KeyedCompetition,
             trials: int = 20_000) -> float:
    """The share of ``trials`` keyed slots (rows 0..trials-1, slot 0)
    whose competing bid a lone ``bid_cpm`` bid beats."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    competing = model.bids(np.arange(trials), np.zeros(trials))
    return int(np.count_nonzero(bid_cpm / 1000.0 > competing)) / trials


def win_rate_curve(bids_cpm: Sequence[float], model: KeyedCompetition,
                   trials: int = 20_000) -> List[Tuple[float, float]]:
    """(bid, win rate) points. Every bid meets the same keyed slots, so
    the curve is monotone exactly."""
    return [(bid, win_rate(bid, model, trials=trials)) for bid in bids_cpm]
