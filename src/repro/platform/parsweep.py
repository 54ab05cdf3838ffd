"""Parallel batch sweep: one columnar world, row ranges across processes.

The single-process batch sweep
(:meth:`~repro.platform.delivery.DeliveryEngine.sweep_slots`) is column
algebra over one row range; this module partitions the row space itself.
Each forked worker inherits the built platform world by copy-on-write —
catalog, columns, lowered mask programs, and the audience bitsets those
programs read, which the parent builds (or rebuilds, when a mutation
made them stale) before it forks — sweeps its
own disjoint ``(start, stop)`` range in one step without billing, and
ships back one :class:`~repro.platform.delivery.SweepDelta`: a single
``uint64`` matrix of the winning ads' shown-bitset words plus their
impression counts and spend. The parent folds — and bills — the deltas
with :meth:`~repro.platform.delivery.DeliveryEngine.absorb_sweep_delta`
in range order, so the merged engine state is deterministic regardless
of which worker finishes first.

Three preconditions make the partition sound, all checked up front:

* **Compact engine** — deltas are bitset/counter folds; per-impression
  journals cannot be reassembled across forks (a forked
  :class:`~repro.store.store.JournalStore` would even share the parent's
  file descriptor).
* **Constant competing-bid draw** — workers cannot share an RNG stream,
  so every draw must be a known constant
  (:func:`~repro.workloads.competition.zero_competition` /
  :func:`~repro.workloads.competition.fixed_competition`).
* **A budget certificate over the whole sweep** — a worker cannot replay
  another worker's rows, so no account budget may cross an
  affordability threshold anywhere in the sweep. The certificate bounds
  every possible charge by the auction's price cap; the Treads
  economics (zero competition, zero floor, one provider account) bound
  to exactly $0, which is what makes the 1M-row sweep trivially
  certifiable.

Wire plumbing reuses the shard-serving framing
(:class:`repro.serve.ipc.Framer` over a socketpair): one frame out per
worker, carrying its stats and delta.

Metrics a worker records die with it. Its registry is a copy-on-write
copy of the parent's, so ``delivery.slots_served``,
``delivery.sweep_rounds``, ``delivery.sweep_fallback_specs`` and the
``auction.*`` instruments it updates never reach the parent: after a
parallel sweep they read as if the workers' rows had not been swept,
while the returned stats count every slot. What the parent does itself
is counted — ``delivery.impressions_delivered`` and the billing
counters, from absorbing the deltas. (The benchmark harness's traced
sweep adds the workers' counters to the parent's itself, so merging
them here would count them twice; see docs/observability.md.)
"""

from __future__ import annotations

import logging
import os
import socket
from multiprocessing import get_context
from typing import Dict, List, Optional, Tuple

from repro.errors import StoreError
from repro.platform import bitset
from repro.platform.delivery import (
    DeliveryEngine,
    DeliveryStats,
    check_sweep_args,
)
from repro.platform.targeting import lower_spec
from repro.serve.ipc import Framer, WorkerLost

_log = logging.getLogger("repro.platform.parsweep")


def visible_cores() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def partition_rows(nrows: int, workers: int) -> List[Tuple[int, int]]:
    """Split ``nrows`` into at most ``workers`` word-aligned ranges.

    Every range but the last starts and ends on a 64-row boundary, so
    each worker's shown-bitset delta occupies whole words that the
    parent can OR into place without bit shifting.
    """
    if workers <= 0:
        raise ValueError("workers must be positive")
    if nrows <= 0:
        return []
    span = -(-nrows // workers)
    span = ((span + bitset.WORD_BITS - 1)
            // bitset.WORD_BITS) * bitset.WORD_BITS
    ranges = []
    start = 0
    while start < nrows:
        stop = min(start + span, nrows)
        ranges.append((start, stop))
        start = stop
    return ranges


def certify_budgets(engine: DeliveryEngine, nrows: int) -> None:
    """Prove no account budget can flip eligibility during the sweep.

    For each candidate ad the per-impression charge is capped at
    ``min(max(strongest other account's bid, competing constant, floor),
    own bid)`` — the second-price formula's ceiling. Charging that cap
    for every row in the sweep is the worst case; if every candidate
    stays affordable under it, no worker can ever observe a budget
    crossing, and the partitioned rounds are exact. Raises
    :class:`~repro.errors.StoreError` when the bound cannot be
    certified — fall back to the single-process
    :meth:`~repro.platform.delivery.DeliveryEngine.sweep_slots`, whose
    scalar-replay fallback handles budget flips exactly.
    """
    constant = getattr(engine._competing_draw, "constant", None)
    if constant is None:
        raise StoreError(
            "parallel sweep needs a constant competing-bid draw "
            "(fixed_competition / zero_competition); random draws "
            "cannot be split across processes")
    entries = engine._sweep_candidates()
    if not entries:
        return
    floor = engine.floor_price
    by_account: Dict[str, Tuple[object, List[float]]] = {}
    for ad, account, bid in entries:
        by_account.setdefault(account.account_id, (account, []))[1].append(bid)
    for account_id, (account, bids) in by_account.items():
        max_other = max(
            (max(other_bids)
             for other_id, (_a, other_bids) in by_account.items()
             if other_id != account_id),
            default=0.0)
        worst_case = 0.0
        for bid in bids:
            worst_case += min(max(max_other, constant, floor), bid) * nrows
        budget = account.budget  # type: ignore[attr-defined]
        if any(budget - worst_case + 1e-12 < bid for bid in bids):
            raise StoreError(
                f"cannot certify account {account_id!r} stays solvent "
                f"across the sweep (budget ${budget:.2f}, worst-case "
                f"spend ${worst_case:.2f}); run sweep_slots "
                "single-process instead")


def warm_programs(engine: DeliveryEngine) -> None:
    """Lower every candidate's spec and materialize the audience bitsets
    the programs read, before the fork: each worker then inherits both
    by copy-on-write instead of building them for its own range. The
    registry's cache is keyed on the world's mutation state, so a
    bitset a mutation made stale is rebuilt here, once."""
    audiences = engine._audiences
    for ad, _account, _bid in engine._sweep_candidates():
        program = lower_spec(ad.targeting)
        for audience_id in (program.referenced_audiences
                            if program is not None else ()):
            audiences.member_bitset_cached(audience_id)


def parallel_sweep(
    engine: DeliveryEngine,
    workers: Optional[int] = None,
    max_rounds: int = 50,
) -> DeliveryStats:
    """Sweep the whole attached columnar store across forked workers.

    ``workers`` defaults to the visible core count. With one worker (or
    one row range) this degenerates to a plain in-process
    :meth:`~repro.platform.delivery.DeliveryEngine.sweep_slots` call.
    Returns the aggregate :class:`DeliveryStats` across all ranges.
    """
    if workers is None:
        workers = visible_cores()
    if workers <= 0:
        raise ValueError("workers must be positive")
    check_sweep_args(max_rounds)
    users = engine._user_store
    if not engine._compact:
        raise StoreError(
            "parallel sweep needs a compact delivery engine (deltas "
            "are bitset/counter folds, not per-impression journals)")
    if not engine._store.discards_records:
        raise StoreError(
            "parallel sweep needs a record-discarding store (NullStore):"
            " a forked worker cannot append to the parent's journal")
    nrows = len(users)
    ranges = partition_rows(nrows, workers)
    if len(ranges) <= 1:
        return engine.sweep_slots(max_rounds=max_rounds)
    certify_budgets(engine, nrows)
    warm_programs(engine)
    ctx = get_context("fork")
    spawned = []
    for start, stop in ranges:
        parent_sock, child_sock = socket.socketpair()
        process = ctx.Process(
            target=_worker_main,
            args=(child_sock, parent_sock, engine, start, stop,
                  max_rounds),
            name=f"parsweep-{start}-{stop}",
            daemon=True,
        )
        process.start()
        child_sock.close()
        spawned.append((process, Framer(parent_sock), start, stop))
    stats = DeliveryStats()
    deltas = []
    failures = []
    for process, framer, start, stop in spawned:
        try:
            status, payload = framer.recv()
        except WorkerLost as exc:
            failures.append(f"rows [{start}, {stop}): worker lost ({exc})")
            continue
        if status != "ok":
            failures.append(f"rows [{start}, {stop}): {payload}")
            continue
        (slots, filled, lost), delta = payload
        stats.slots += slots
        stats.filled_by_tracked_ads += filled
        stats.lost_to_competition += lost
        deltas.append(delta)
    for process, framer, _start, _stop in spawned:
        framer.close()
        process.join(timeout=30.0)
        if process.is_alive():  # pragma: no cover - defensive
            process.terminate()
            process.join(timeout=30.0)
    if failures:
        raise StoreError(
            "parallel sweep failed: " + "; ".join(failures))
    for delta in deltas:
        engine.absorb_sweep_delta(delta)
    _log.info(
        "parallel_sweep: %d workers, %d slots (%d filled, %d lost)",
        len(spawned), stats.slots, stats.filled_by_tracked_ads,
        stats.lost_to_competition,
    )
    return stats


def _worker_main(child_sock: socket.socket, parent_sock: socket.socket,
                 engine: DeliveryEngine, start: int, stop: int,
                 max_rounds: int) -> None:
    """Forked worker: sweep one row range on COW state, ship the delta.

    The worker's engine and metrics mutations are its own copy-on-write
    pages and die with the process — the delta frame is the only state
    that crosses back. So the worker bills nothing and touches no
    budget: its range is delivered in one step whose certificate reads
    the budgets as they were at the fork, and the parent bills each
    ad's spend once, in
    :meth:`~repro.platform.delivery.DeliveryEngine.absorb_sweep_delta`.
    """
    parent_sock.close()
    framer = Framer(child_sock)
    try:
        try:
            stats, delta = engine.sweep_slots(
                (start, stop), max_rounds=max_rounds, _collect_delta=True)
        except Exception as exc:  # noqa: BLE001 - shipped to the parent
            framer.send(("error", f"{type(exc).__name__}: {exc}"))
            return
        framer.send(("ok", (
            (stats.slots, stats.filled_by_tracked_ads,
             stats.lost_to_competition),
            delta,
        )))
    finally:
        framer.close()
