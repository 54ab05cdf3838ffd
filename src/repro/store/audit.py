"""Canonical state reports for checkpoint/restore verification.

The CLI's ``checkpoint`` / ``restore`` / ``replay`` commands — and the
crash-recovery tests — all answer the same question: *does this world's
end-state match that world's end-state, byte for byte?* This module
gives them one shared notion of "end-state": a plain, JSON-serialisable
dict covering every aggregate the store layer promises to preserve
(per-ad delivery counts, per-account spend and remaining budget, and
whole-world totals), rendered with sorted keys so equal states always
serialise to equal bytes.

Duck-typed on purpose: ``state_report`` accepts a
:class:`~repro.serve.sharding.ShardRouter` (aggregates across shards),
a single ``Shard``, or an ``AdPlatform`` — anything that exposes
engine/ledger pairs — without importing any of those modules, so
``repro.store`` stays dependency-free below the platform layer.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

__all__ = ["canonical_json", "state_report"]


def _engine_ledger_pairs(target: Any) -> List[Tuple[Any, Any]]:
    """Extract (delivery engine, billing ledger) pairs from ``target``."""
    shards = getattr(target, "shards", None)
    if shards is not None:
        return [(shard.engine, shard.ledger) for shard in shards]
    ledger = getattr(target, "ledger", None)
    engine = getattr(target, "engine", None) or getattr(
        target, "delivery", None)
    if engine is not None and ledger is not None:
        return [(engine, ledger)]
    raise TypeError(
        "state_report needs a router (.shards), a shard "
        "(.engine/.ledger), or a platform (.delivery/.ledger); got "
        f"{type(target).__name__}"
    )


def state_report(target: Any) -> Dict[str, Any]:
    """One canonical, JSON-serialisable summary of delivery + billing
    state, aggregated across however many engine/ledger pairs ``target``
    holds. Two worlds are "the same" iff their reports are equal.

    Read from aggregates only, so compact platforms report too: engine
    counters and shown bitsets (shards own disjoint users, so reaches
    add), and ledger spend — retired ledgers included, as a rebalance
    re-homes impressions but not their charges.
    """
    pairs = _engine_ledger_pairs(target)
    ledgers = [ledger for _, ledger in pairs]
    ledgers.extend(getattr(target, "_retired_ledgers", ()))
    ads: Dict[str, Dict[str, Any]] = {}
    accounts: Dict[str, Dict[str, float]] = {}
    for engine, ledger in pairs:
        for ad_id in engine.delivered_ads():
            row = ads.setdefault(
                ad_id, {"impressions": 0, "clicks": 0, "reach": 0})
            row["impressions"] += engine.impression_count_for_ad(ad_id)
            row["clicks"] += engine.clicks_for_ad(ad_id)
            row["reach"] += engine.reach_count(ad_id)
        # Charged accounts only — they exist, with identical budgets, on
        # the live and the replay path alike. A live run may also clone
        # an account just to read its budget in an auction; replay,
        # which re-applies committed charges only, never does.
        for account_id in ledger.charged_accounts():
            budget = ledger._inventory.account(account_id).budget
            row2 = accounts.setdefault(
                account_id, {"spent": 0.0, "budget": 0.0})
            row2["spent"] += ledger.spend_for_account(account_id)
            row2["budget"] += round(budget, 10)
    total_spend = 0.0
    for ad_id in sorted(ads):
        spend = sum(ledger.spend_for_ad(ad_id) for ledger in ledgers)
        total_spend += spend
        ads[ad_id]["spend"] = round(spend, 10)
    for row2 in accounts.values():
        row2["spent"] = round(row2["spent"], 10)
        row2["budget"] = round(row2["budget"], 10)
    return {
        "ads": ads,
        "accounts": accounts,
        "totals": {
            "impressions": sum(row["impressions"] for row in ads.values()),
            "clicks": sum(row["clicks"] for row in ads.values()),
            "spend": round(total_spend, 10),
        },
    }


def canonical_json(report: Dict[str, Any]) -> str:
    """Stable byte rendering: equal reports → equal strings."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"))
