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

Workers speculate; the parent certifies. A worker delivers its range
as if no budget binds, and its delta carries the range's real spend. The
parent then checks that spend, summed per account over every range, with
the sweep's one budget rule
(:func:`~repro.platform.delivery.budgets_hold`) in
:func:`certify_budgets`. If the rule holds, no budget could have bound
anywhere in the sweep, and the parent bills the deltas; otherwise it
drops them and runs the single-process
:meth:`~repro.platform.delivery.DeliveryEngine.sweep_slots`, whose
rounds handle a binding budget exactly. Worlds that cannot be split
exactly also run single-process: a random market (its rounds bill in
(round, row) order across the whole store), a non-compact engine or a
record-keeping store (per-impression logs and journals cannot be
reassembled across forks), or a store that fits one row range. So the
worker count is only a speed hint: the result is the single-process
sweep's.

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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StoreError
from repro.platform import bitset
from repro.platform.ads import AdStatus
from repro.platform.delivery import (
    DeliveryEngine,
    DeliveryStats,
    SweepDelta,
    budgets_hold,
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


def certify_budgets(engine: DeliveryEngine,
                    deltas: Sequence[SweepDelta]) -> bool:
    """Whether billing ``deltas`` keeps every sweep candidate that is
    live now (active and affordable) affordable. The spend is summed
    per account in the order :meth:`~repro.platform.delivery.
    DeliveryEngine.absorb_sweep_delta` bills it: deltas in range order,
    each one's ads by id."""
    spend: Dict[str, float] = {}
    for delta in deltas:
        spent = delta.spent.tolist()
        for i in sorted(range(len(delta.ad_ids)),
                        key=delta.ad_ids.__getitem__):
            account_id = delta.account_ids[i]
            spend[account_id] = spend.get(account_id, 0.0) + spent[i]
    live = [(account, bid) for ad, account, bid in engine._sweep_candidates()
            if ad.status is AdStatus.ACTIVE and account.can_afford(bid)]
    return budgets_hold(
        np.array([account.budget for account, _bid in live]),
        np.array([spend.get(account.account_id, 0.0)
                  for account, _bid in live]),
        np.arange(len(live)), np.array([bid for _account, bid in live]))


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

    ``workers`` defaults to the visible core count. A world that cannot
    be split exactly (see the module docstring), or one whose workers'
    spend breaks the budget rule, runs the plain in-process
    :meth:`~repro.platform.delivery.DeliveryEngine.sweep_slots`
    instead. Returns the aggregate :class:`DeliveryStats` across all
    ranges; raises :class:`~repro.errors.StoreError`, with nothing
    billed, when a worker fails or is lost.
    """
    if workers is None:
        workers = visible_cores()
    check_sweep_args(max_rounds)
    ranges = partition_rows(len(engine._user_store), workers)
    if (len(ranges) <= 1 or engine.competition.constant is None
            or not engine._compact or not engine._store.discards_records):
        return engine.sweep_slots(max_rounds=max_rounds)
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
    if not certify_budgets(engine, deltas):
        return engine.sweep_slots(max_rounds=max_rounds)
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
    budget: its range is delivered in one step as if no budget binds,
    and the parent certifies the spend and bills each ad's once, in
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
