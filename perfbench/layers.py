"""Per-layer figures from a traced run.

**HTTP workloads.** Each analysed request is matched to its spans by
order: the gateway handles one connection's requests in arrival order,
so the k-th ``POST /v1/serve`` the driver sent is the k-th
``gateway.request`` on ``/v1/serve`` (likewise its parse and write
spans), and control-plane requests — all on the second connection —
match the same way. From there the program's own links lead on:
``serve.request`` is the child of ``gateway.request``; ``serve.queue_wait``
and the worker's ``serve.engine`` are its children; the batch's
``serve.ipc_roundtrip`` is the one on the engine's shard that contains
it. Each request's window, from its due time to its response, is
attributed to the deepest span covering each instant
(:func:`perfbench.reduce.attribute`).

**Sweep.** One window per traced repetition (the ``run_sweep`` call),
attributed over the parent's spans and each worker's spans, depth
taken from nesting within each process.
"""

from __future__ import annotations

import bisect
import json
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from perfbench import common, reduce
from repro.obs.export import prometheus_name
from repro.obs.tracing import Span, load_jsonl_spans

#: (name, unit) of every per-layer metric, in BENCHMARK.json order.
#: Metrics that do not apply to a workload read 0 there.
LAYER_SHARES = (
    "driver.lag", "gateway.http", "gateway.app", "gateway.tenancy",
    "store.tenancy", "store.shard_wal", "serve.runtime", "serve.queue_wait",
    "serve.ipc", "serve.batch", "serve.engine", "platform.serve_slot",
    "parsweep.certify", "targeting.lower", "audiences.mask",
    "delivery.sweep_slots", "delivery.absorb", "sweep.other",
)
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("gateway.http.parse_us", "us"),
    ("gateway.http.write_us", "us"),
    ("gateway.app.handle_us.serve", "us"),
    ("gateway.app.handle_us.mutate", "us"),
    ("gateway.app.handle_us.read", "us"),
    ("gateway.tenancy.mutation_us", "us"),
    ("gateway.mutations_journaled", "count"),
    ("store.tenancy_flush_us", "us"),
    ("store.records_per_req", "records/req"),
    ("store.journal_bytes_per_req", "B/req"),
    ("serve.queue_wait.p50_ms", "ms"),
    ("serve.queue_wait.tail_ms", "ms"),
    ("serve.batch_size.mean", "requests"),
    ("serve.ipc_roundtrip.self_us", "us"),
    ("serve.ipc_bytes_per_req", "B/req"),
    ("serve.requests_shed", "count"),
    ("serve.requests_timeout", "count"),
    ("serve.requests_errored", "count"),
    ("serve.engine_us", "us"),
    ("serve_slot_us", "us"),
    ("delivery.impressions_per_slot", "ratio"),
    ("delivery.cap_rejections_per_slot", "ratio"),
    ("delivery.match_cache_hit_rate", "ratio"),
    ("auction.win_rate", "ratio"),
    ("targeting.compile_cache_hit_rate", "ratio"),
    ("targeting.lower_ms", "ms"),
    ("targeting.lower_fallback_frac", "ratio"),
    ("audiences.mask_ms", "ms"),
    ("parsweep.certify_ms", "ms"),
    ("parsweep.worker_sweep_s.max", "s"),
    ("parsweep.worker_sweep_s.min", "s"),
    ("delivery.absorb_ms", "ms"),
    ("delivery.sweep_rounds", "count"),
    ("delivery.sweep_budget_fallback_rounds", "count"),
    ("delivery.sweep_fallback_specs", "count"),
    ("population.spawn_s", "s"),
    ("colstore.populate_s", "s"),
    ("provider.launch_s", "s"),
    ("unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("driver.lag_ms.tail", "ms"),
    ("read.stale_frac", "ratio"),
) + tuple((f"share.{layer}", "ratio") for layer in LAYER_SHARES)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def load_prometheus(path: str) -> Dict[str, float]:
    """Sample values of a Prometheus text snapshot, by sample name."""
    values: Dict[str, float] = {}
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            if line.strip() and not line.startswith("#"):
                name, _, value = line.rstrip().rpartition(" ")
                values[name] = float(value)
    return values


def load_spans(path: str) -> List[Span]:
    with open(path, encoding="utf-8") as stream:
        return load_jsonl_spans(stream.read())


class _Index:
    """Spans of one lane (one thread's sequence), sorted by start."""

    def __init__(self, spans: Iterable[Span] = ()):
        self.spans = sorted(spans, key=lambda s: s.start_s)
        self.starts = [s.start_s for s in self.spans]

    def containing(self, start: float, end: float) -> Optional[Span]:
        """The span covering [start, end]; spans of a lane never overlap,
        so only the last one to start before ``start`` can."""
        i = bisect.bisect_right(self.starts, start) - 1
        if i >= 0 and self.spans[i].end_s >= end:
            return self.spans[i]
        return None

    def within(self, start: float, end: float) -> List[Span]:
        i = bisect.bisect_left(self.starts, start)
        out = []
        while i < len(self.spans) and self.spans[i].start_s <= end:
            if self.spans[i].end_s <= end:
                out.append(self.spans[i])
            i += 1
        return out


def _in_windows(t: float, windows: Sequence[Tuple[float, float]]) -> bool:
    return any(w0 <= t <= w1 for w0, w1 in windows)


def analyze_gateway(raw: Dict[str, object], workload: str) -> Dict[str, float]:
    """Per-layer figures for one traced HTTP run (see module doc)."""
    files = raw["trace_files"]
    spans = load_spans(files["trace"])
    counters = load_prometheus(files["metrics"])
    with open(files["setup"], encoding="utf-8") as stream:
        setup = json.load(stream)
    # Send order is the order each connection's requests were handled.
    all_ops = sorted((op for ops in raw["phases"].values() for op in ops),
                     key=lambda op: op.sent)
    first_sent = all_ops[0].sent
    # The 1000 rps phase: below saturation even with tracing on, so
    # the attribution describes a working system, not a queue.
    analysed = ["open1000"]
    windows = [(min(op.due for op in ops), max(op.recv for op in ops))
               for p in analysed for ops in raw["pieces"][p] if ops]

    by_name: Dict[str, List[Span]] = defaultdict(list)
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent_id is not None:
            children[span.parent_id].append(span)

    def ordered(name: str, keep) -> List[Span]:
        return sorted((s for s in by_name[name]
                       if s.start_s >= first_sent and keep(s)),
                      key=lambda s: s.start_s)

    is_serve_path = lambda s: s.attrs.get("path") == "/v1/serve"  # noqa: E731
    serve_g = ordered("gateway.request", is_serve_path)
    serve_p = ordered("gateway.http.parse", is_serve_path)
    serve_w = ordered("gateway.http.write",
                      lambda s: s.attrs.get("kind") == "serve")
    other_g = ordered("gateway.request", lambda s: not is_serve_path(s))
    other_p = ordered("gateway.http.parse", lambda s: not is_serve_path(s))
    other_w = ordered("gateway.http.write",
                      lambda s: s.attrs.get("kind") != "serve")
    serve_ops = [op for op in all_ops if op.kind == "serve"]
    control_ops = [op for op in all_ops if op.kind != "serve"]
    matched = (len(serve_g) == len(serve_p) == len(serve_w)
               == len(serve_ops)
               and len(other_g) == len(other_p) == len(other_w)
               == len(control_ops))

    def lanes(name: str, key) -> Dict[int, _Index]:
        groups: Dict[int, List[Span]] = defaultdict(list)
        for span in by_name[name]:
            groups[key(span)].append(span)
        return defaultdict(_Index, {k: _Index(v) for k, v in groups.items()})

    # Shard i's router thread runs the round trips; worker i + 1 (the
    # span origin) runs the batches, flushes and slots.
    roundtrips = lanes("serve.ipc_roundtrip",
                       lambda s: s.attrs.get("shard") if s.origin == 0
                       else -1)
    worker_batch = lanes("serve.batch", lambda s: s.origin)
    worker_flush = lanes("store.shard_flush", lambda s: s.origin)
    worker_slot = lanes("serve_slot", lambda s: s.origin)
    mutations = _Index(by_name["gateway.tenancy.mutation"])
    tenancy_io = _Index(by_name["store.tenancy_append"]
                        + by_name["store.tenancy_flush"])

    totals: Dict[str, float] = defaultdict(float)
    uncovered = 0.0
    parse, write, engine, slot, queue, lag = [], [], [], [], [], []
    handle: Dict[str, List[float]] = defaultdict(list)

    def place(op, g: Span, p: Span, w: Span) -> List[reduce.Placed]:
        placed: List[reduce.Placed] = [
            (op.due, op.sent, 1, "driver.lag"),
            (p.start_s, p.end_s, 1, "gateway.http"),
            (g.start_s, g.end_s, 1, "gateway.app"),
            (w.start_s, w.end_s, 1, "gateway.http"),
        ]
        handle[op.kind].append(g.duration_s)
        for kid in children.get(g.span_id, ()):
            if kid.name != "serve.request":
                continue
            placed.append((kid.start_s, kid.end_s, 2, "serve.runtime"))
            for sub in children.get(kid.span_id, ()):
                if sub.name == "serve.queue_wait":
                    queue.append(sub.duration_s)
                    placed.append((sub.start_s, sub.end_s, 3,
                                   "serve.queue_wait"))
                elif sub.name == "serve.engine":
                    engine.append(sub.duration_s)
                    placed.append((sub.start_s, sub.end_s, 5, "serve.engine"))
                    trip = roundtrips[sub.origin - 1].containing(
                        sub.start_s, sub.end_s)
                    if trip is not None:
                        placed.append((trip.start_s, trip.end_s, 3,
                                       "serve.ipc"))
                        for f in worker_flush[sub.origin].within(
                                trip.start_s, trip.end_s):
                            placed.append((f.start_s, f.end_s, 4,
                                           "store.shard_wal"))
                    batch = worker_batch[sub.origin].containing(
                        sub.start_s, sub.end_s)
                    if batch is not None:
                        placed.append((batch.start_s, batch.end_s, 4,
                                       "serve.batch"))
                    for s in worker_slot[sub.origin].within(
                            sub.start_s, sub.end_s):
                        slot.append(s.duration_s)
                        placed.append((s.start_s, s.end_s, 6,
                                       "platform.serve_slot"))
        for m in mutations.within(g.start_s, g.end_s):
            placed.append((m.start_s, m.end_s, 2, "gateway.tenancy"))
        for io in tenancy_io.within(g.start_s, g.end_s):
            placed.append((io.start_s, io.end_s, 3, "store.tenancy"))
        return placed

    if matched:
        for ops, gs, ps, ws in ((serve_ops, serve_g, serve_p, serve_w),
                                (control_ops, other_g, other_p, other_w)):
            for op, g, p, w in zip(ops, gs, ps, ws):
                if op.phase not in analysed:
                    continue
                if op.kind == "serve":
                    parse.append(p.duration_s)
                    write.append(w.duration_s)
                lag.append(op.sent - op.due)
                got, missing = reduce.attribute((op.due, op.recv),
                                                place(op, g, p, w))
                for layer, value in got.items():
                    totals[layer] += value
                uncovered += missing

    def in_window(s: Span) -> bool:
        return _in_windows(s.start_s, windows)

    trips = [s for s in by_name["serve.ipc_roundtrip"]
             if s.origin == 0 and in_window(s)]
    trip_self = []
    for trip in trips:
        shard = int(trip.attrs.get("shard", 0))
        kids = [(k.start_s, k.end_s) for k in
                worker_batch[shard + 1].within(trip.start_s, trip.end_s)
                + worker_flush[shard + 1].within(trip.start_s, trip.end_s)]
        trip_self.append(reduce.self_time((trip.start_s, trip.end_s), kids))
    mutation_self = [
        reduce.self_time((m.start_s, m.end_s),
                         [(io.start_s, io.end_s)
                          for io in tenancy_io.within(m.start_s, m.end_s)])
        for m in mutations.spans if in_window(m)]
    flushes = [s.duration_s for s in by_name["store.tenancy_flush"]
               if in_window(s)]

    def reg(name: str) -> float:
        return counters.get(prometheus_name(name), 0.0)

    served = reg("serve.requests_served")
    slots = reg("delivery.slots_served")
    queue_ms = common.summarize(q * 1000.0 for q in queue)
    lag_ms = common.summarize(x * 1000.0 for x in lag)
    out = {
        "gateway.http.parse_us": _mean(parse) * 1e6,
        "gateway.http.write_us": _mean(write) * 1e6,
        "gateway.app.handle_us.serve": _mean(handle["serve"]) * 1e6,
        "gateway.app.handle_us.mutate": _mean(handle["mutate"]) * 1e6,
        "gateway.app.handle_us.read": _mean(handle["read"]) * 1e6,
        "gateway.tenancy.mutation_us": _mean(mutation_self) * 1e6,
        "gateway.mutations_journaled": reg("gateway.mutations_journaled"),
        "store.tenancy_flush_us": _mean(flushes) * 1e6,
        "store.records_per_req": _ratio(raw["journal_records"], served),
        "store.journal_bytes_per_req": _ratio(raw["journal_bytes"], served),
        "serve.queue_wait.p50_ms": queue_ms["p50"] if queue else 0.0,
        "serve.queue_wait.tail_ms": queue_ms["tail"] if queue else 0.0,
        "serve.batch_size.mean": _mean(
            [float(t.attrs.get("batch_size", 0)) for t in trips]),
        "serve.ipc_roundtrip.self_us": _mean(trip_self) * 1e6,
        "serve.ipc_bytes_per_req": _ratio(reg("serve.ipc_bytes"), served),
        "serve.requests_shed": reg("serve.requests_shed"),
        "serve.requests_timeout": reg("serve.requests_timeout"),
        "serve.requests_errored": reg("serve.requests_errored"),
        "serve.engine_us": _mean(engine) * 1e6,
        "serve_slot_us": _mean(slot) * 1e6,
        "delivery.impressions_per_slot": _ratio(
            reg("delivery.impressions_delivered"), slots),
        "delivery.cap_rejections_per_slot": _ratio(
            reg("delivery.frequency_cap_rejections"), slots),
        "delivery.match_cache_hit_rate": _ratio(
            reg("delivery.match_cache_hits"),
            reg("delivery.match_cache_hits")
            + reg("delivery.match_cache_misses")),
        "auction.win_rate": _ratio(
            reg("auction.slots_won"),
            reg("auction.slots_won") + reg("auction.slots_lost")),
        "targeting.compile_cache_hit_rate": _ratio(
            reg("targeting.compile_cache_hits"),
            reg("targeting.compile_cache_hits")
            + reg("targeting.specs_compiled")),
        "population.spawn_s": float(setup.get("population.spawn_s", 0.0)),
        "provider.launch_s": float(setup.get("provider.launch_s", 0.0)),
        "unattributed_frac": reduce.unattributed_frac(totals, uncovered),
        "driver.lag_ms.tail": lag_ms["tail"] if lag else 0.0,
        "trace.matched": 1.0 if matched else 0.0,
    }
    out.update(_shares(totals, uncovered))
    return out


def _shares(totals: Dict[str, float], uncovered: float) -> Dict[str, float]:
    whole = sum(totals.values()) + uncovered
    shares = {f"share.{layer}": 0.0 for layer in LAYER_SHARES}
    for layer, value in totals.items():
        key = f"share.{layer}"
        if key in shares:
            shares[key] = _ratio(value, whole)
        else:
            shares["share.sweep.other"] += _ratio(value, whole)
    return shares


SWEEP_LAYERS = {
    "targeting.lower_spec": "targeting.lower",
    "parsweep.certify_budgets": "parsweep.certify",
    "audiences.member_bitset_cached": "audiences.mask",
    "delivery.sweep_slots": "delivery.sweep_slots",
    "delivery.absorb_sweep_delta": "delivery.absorb",
}


def analyze_sweep(rep: Dict[str, object]) -> Dict[str, float]:
    """Per-layer figures for one traced sweep repetition."""
    trace = rep["trace"]
    lanes: Dict[Tuple[int, int], List[Span]] = defaultdict(list)
    for record in trace["spans"]:
        span = Span.from_record(record)
        lanes[(0, span.tid)].append(span)
    counters: Dict[str, float] = defaultdict(float)
    for name, value in trace["counters"].items():
        counters[name] += value
    worker_sweeps = []
    for index, worker in enumerate(trace["workers"], start=1):
        for record in worker["spans"]:
            span = Span.from_record(record)
            lanes[(index, span.tid)].append(span)
            if span.name == "delivery.sweep_slots":
                worker_sweeps.append(span.duration_s)
        for name, value in worker["counters"].items():
            counters[name] += value
    placed: List[reduce.Placed] = []
    durations: Dict[str, float] = defaultdict(float)
    for lane in lanes.values():
        depths = reduce.lane_depths([(s.start_s, s.end_s) for s in lane])
        for span, depth in zip(lane, depths):
            layer = SWEEP_LAYERS.get(span.name, "sweep.other")
            durations[layer] += span.duration_s
            placed.append((span.start_s, span.end_s, depth + 1, layer))
    window = tuple(rep["window"])
    totals, uncovered = reduce.attribute(window, placed)
    out = {
        "targeting.lower_ms": durations["targeting.lower"] * 1000.0,
        "targeting.lower_fallback_frac": _ratio(
            counters["targeting.lower_fallbacks"],
            counters["targeting.specs_lowered"]),
        "audiences.mask_ms": durations["audiences.mask"] * 1000.0,
        "parsweep.certify_ms": durations["parsweep.certify"] * 1000.0,
        "parsweep.worker_sweep_s.max": max(worker_sweeps, default=0.0),
        "parsweep.worker_sweep_s.min": min(worker_sweeps, default=0.0),
        "delivery.absorb_ms": durations["delivery.absorb"] * 1000.0,
        "delivery.sweep_rounds": counters["delivery.sweep_rounds"],
        "delivery.sweep_budget_fallback_rounds":
            counters["delivery.sweep_budget_fallback_rounds"],
        "delivery.sweep_fallback_specs":
            counters["delivery.sweep_fallback_specs"],
        "unattributed_frac": reduce.unattributed_frac(totals, uncovered),
    }
    out.update(_shares(totals, uncovered))
    return out
