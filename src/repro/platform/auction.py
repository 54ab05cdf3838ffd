"""The per-impression ad auction.

Whenever a user's browsing session exposes an ad slot, the platform runs
an auction among the ads whose targeting the user satisfies, plus the
ambient *competing demand* from all other advertisers (one keyed bid per
slot — see :mod:`repro.workloads.competition`). The auction is
second-price with bid caps: the winner pays the maximum of the
runner-up's bid, the competing bid, and the floor price — never more
than its own cap.

This is the mechanism behind the paper's validation detail that matters
for cost: the authors "set the bid cap for each ad to be $10 CPM — five
times its default value of $2 CPM for U.S. users — to increase the chances
of these ads winning the ad auction" (section 3.1). Benchmark E6 sweeps
the bid cap against calibrated competition to reproduce that reasoning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.obs.metrics import bind
from repro.platform.ads import Ad

#: Late-bound auction instruments: resolved against the current metrics
#: registry (identity-checked per call, so registry swaps take effect
#: without a per-auction dict lookup). None while the registry is a
#: no-op, so a disabled process pays one None check per auction instead
#: of four null method calls.
_instruments = bind(lambda reg: (
    reg.histogram("auction.contenders"),
    reg.histogram("auction.clearing_price_cpm"),
    reg.counter("auction.slots_won"),
    reg.counter("auction.slots_lost"),
) if reg.enabled else None)


@dataclass(frozen=True)
class AuctionOutcome:
    """Result of one ad-slot auction.

    ``winner`` is None when ambient competition outbid every eligible ad
    (the slot goes to some unrelated advertiser). ``price`` is the
    per-impression second price the winner pays; 0.0 when there is no
    winner among the eligible ads.
    """

    winner: Optional[Ad]
    price: float
    competing_bid: float

    @property
    def won(self) -> bool:
        return self.winner is not None


def run_auction(
    eligible_ads: Sequence[Ad],
    competing_bid: float,
    floor_price: float = 0.0,
) -> AuctionOutcome:
    """Second-price auction for one impression.

    ``eligible_ads`` are ads whose targeting the user matched and whose
    accounts can still pay. Ties between equal bids are broken by ad id so
    outcomes are deterministic.

    An advertiser never bids against itself: only each account's best ad
    enters the auction, so a Tread sweep's 500 sibling ads do not inflate
    one another's second price (real platforms deduplicate per advertiser
    the same way — without this, a provider would pay its own bid cap
    instead of the market price on every impression).
    """
    instruments = _instruments()
    if instruments is None:
        return _decide(eligible_ads, competing_bid, floor_price)
    contenders, clearing_price, slots_won, slots_lost = instruments
    contenders.observe(len(eligible_ads))
    outcome = _decide(eligible_ads, competing_bid, floor_price)
    if outcome.winner is not None:
        slots_won.inc()
        clearing_price.observe(outcome.price * 1000.0)
    else:
        slots_lost.inc()
    return outcome


def observe_auctions(
    contender_slots,
    prices_won,
    price_wins,
    lost_count: int,
) -> None:
    """Bulk-record a batch of auction outcomes, tallied.

    The batch sweep (:meth:`repro.platform.delivery.DeliveryEngine.
    sweep_slots`) decides thousands of slot auctions per vectorized
    round — a whole row range's at once in its one-step delivery; this
    folds them into the same four instruments :func:`run_auction`
    maintains, in one update. ``contender_slots[k]`` is how many slots
    had ``k`` eligible accounts (an ``np.bincount`` of the per-slot
    counts), ``price_wins[i]`` how many won slots cleared at
    ``prices_won[i]`` dollars, and ``lost_count`` how many slots had no
    tracked winner. No-op while the registry is disabled, same as the
    scalar path.
    """
    instruments = _instruments()
    if instruments is None:
        return
    import numpy as np
    contenders, clearing_price, slots_won, slots_lost = instruments
    contenders.observe_many(np.arange(len(contender_slots)),
                            contender_slots)
    won = int(np.sum(price_wins))
    if won:
        slots_won.inc(won)
        clearing_price.observe_many(
            np.asarray(prices_won, dtype=np.float64) * 1000.0, price_wins)
    if lost_count:
        slots_lost.inc(lost_count)


def _decide(
    eligible_ads: Sequence[Ad],
    competing_bid: float,
    floor_price: float,
) -> AuctionOutcome:
    """The auction decision itself, free of instrumentation."""
    if competing_bid < 0:
        raise ValueError("competing bid cannot be negative")
    # Lone-contender fast path: the delivery engine pre-deduplicates per
    # account, so the common Tread-sweep slot arrives here with exactly
    # one contender — no runner-up, price set by competition/floor alone.
    if len(eligible_ads) == 1:
        only = eligible_ads[0]
        bid = only.bid_per_impression
        if bid <= competing_bid or bid < floor_price:
            return AuctionOutcome(winner=None, price=0.0,
                                  competing_bid=competing_bid)
        return AuctionOutcome(
            winner=only,
            price=min(max(competing_bid, floor_price), bid),
            competing_bid=competing_bid,
        )
    # Single pass, no sorting: keep each account's best (highest bid,
    # ties by ad id) — this runs once per served slot, so it stays O(n).
    best_per_account: dict = {}
    for ad in eligible_ads:
        bid = ad.bid_per_impression
        held = best_per_account.get(ad.account_id)
        if held is None or bid > held[0] or \
                (bid == held[0] and ad.ad_id < held[1].ad_id):
            best_per_account[ad.account_id] = (bid, ad)
    if not best_per_account:
        return AuctionOutcome(winner=None, price=0.0,
                              competing_bid=competing_bid)
    # Top-2 selection among the per-account contenders, same ordering.
    best_bid = -1.0
    best: Optional[Ad] = None
    runner_up = 0.0
    for bid, ad in best_per_account.values():
        if best is None or bid > best_bid or \
                (bid == best_bid and ad.ad_id < best.ad_id):
            if best is not None and best_bid > runner_up:
                runner_up = best_bid
            best_bid, best = bid, ad
        elif bid > runner_up:
            runner_up = bid
    assert best is not None
    if best_bid <= competing_bid or best_bid < floor_price:
        return AuctionOutcome(winner=None, price=0.0,
                              competing_bid=competing_bid)
    price = max(runner_up, competing_bid, floor_price)
    # Second price never exceeds the winner's own cap.
    price = min(price, best_bid)
    return AuctionOutcome(winner=best, price=price,
                          competing_bid=competing_bid)
