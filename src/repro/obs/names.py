"""The instrument name catalog: every metric and span name.

One authoritative table per signal type. Modules creating instruments
pull help text and histogram buckets from here so the same name always
carries the same schema, and ``docs/observability.md`` is diffed against
these tables by ``tests/obs/test_docs_sync.py`` — adding an instrument
without documenting it (or documenting one that does not exist) fails
the suite.

Naming convention: ``<layer>.<noun>[_<verb>]``, dot-separated, all
lowercase — ``delivery.slots_served``, ``auction.contenders``. The
Prometheus exporter rewrites dots to underscores; everything else keeps
the dotted form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: Default histogram buckets for small non-negative counts (candidate
#: set sizes, contender counts): upper bounds, +Inf implied.
COUNT_BUCKETS: Tuple[float, ...] = (0, 1, 2, 5, 10, 25, 50, 100, 250, 500)

#: Default histogram buckets for CPM-denominated dollar amounts.
CPM_BUCKETS: Tuple[float, ...] = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0)

#: Default histogram buckets for wall-clock durations in seconds.
SECONDS_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 30.0,
)

#: Finer-grained duration buckets for request latencies: the serving
#: runtime's p50/p95/p99 come out of these (see ``Histogram.quantile``),
#: so the sub-100ms range gets most of the resolution.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0002, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


@dataclass(frozen=True)
class MetricSpec:
    """Catalog entry: what kind of instrument a name denotes."""

    kind: str
    help: str
    buckets: Optional[Tuple[float, ...]] = None


METRICS: Dict[str, MetricSpec] = {
    # -- delivery engine ---------------------------------------------------
    "delivery.slots_served": MetricSpec(
        COUNTER, "Ad slots auctioned by the delivery engine."),
    "delivery.impressions_delivered": MetricSpec(
        COUNTER, "Impressions placed in user feeds (auction wins)."),
    "delivery.frequency_cap_rejections": MetricSpec(
        COUNTER, "Matched ads skipped by a slot because they were "
                 "already shown to the user (cap of 1), per slot, in "
                 "both delivery modes."),
    "delivery.clicks_recorded": MetricSpec(
        COUNTER, "Ad clicks recorded by the platform."),
    "delivery.sweep_rounds": MetricSpec(
        COUNTER, "Vectorized batch-sweep rounds executed by "
                 "sweep_slots (each auctions one slot per still-active "
                 "user in the swept row range)."),
    "delivery.sweep_fallback_specs": MetricSpec(
        COUNTER, "Candidates whose targeting spec could not be "
                 "lowered to a column-mask program and was evaluated "
                 "with Expr.matches per row instead (per sweep, and "
                 "per candidate-list block of the per-slot path)."),
    "delivery.sweep_budget_fallback_rounds": MetricSpec(
        COUNTER, "Sweep rounds replayed through the scalar per-user "
                 "path because an account's budget could flip "
                 "mid-round (affordability pre-check failed)."),
    # -- auction -----------------------------------------------------------
    "auction.contenders": MetricSpec(
        HISTOGRAM, "Per-account contenders entering each slot auction.",
        COUNT_BUCKETS),
    "auction.clearing_price_cpm": MetricSpec(
        HISTOGRAM, "Clearing price of won auctions, CPM dollars.",
        CPM_BUCKETS),
    "auction.slots_won": MetricSpec(
        COUNTER, "Auctions won by a tracked (submitted) ad."),
    "auction.slots_lost": MetricSpec(
        COUNTER, "Auctions where ambient competition outbid every "
                 "tracked contender (or none was eligible)."),
    # -- targeting lowerer -------------------------------------------------
    "targeting.specs_lowered": MetricSpec(
        COUNTER, "Targeting specs lowered to mask programs."),
    "targeting.lower_fallbacks": MetricSpec(
        COUNTER, "lower_spec calls that declined (unlowerable node), "
                 "flagging the spec for Expr.matches."),
    # -- platform facade ---------------------------------------------------
    "platform.ads_submitted": MetricSpec(
        COUNTER, "Ads submitted through the advertiser API."),
    "platform.ads_rejected": MetricSpec(
        COUNTER, "Submitted ads rejected by policy review."),
    "platform.users_registered": MetricSpec(
        COUNTER, "User accounts created."),
    # -- billing -----------------------------------------------------------
    "billing.impressions_charged": MetricSpec(
        COUNTER, "Impressions billed to advertiser accounts."),
    "billing.budget_exhausted": MetricSpec(
        COUNTER, "Accounts whose budget crossed to zero (or below the "
                 "smallest billable amount) while being charged."),
    # -- transparency provider --------------------------------------------
    "provider.treads_launched": MetricSpec(
        COUNTER, "Treads that passed review and went ACTIVE."),
    "provider.treads_rejected": MetricSpec(
        COUNTER, "Treads rejected by the platform's ad review."),
    "provider.decode_packs_published": MetricSpec(
        COUNTER, "Decode packs published to subscribers."),
    # -- serving runtime ---------------------------------------------------
    "serve.requests_submitted": MetricSpec(
        COUNTER, "Requests accepted into a shard queue."),
    "serve.requests_served": MetricSpec(
        COUNTER, "Requests that completed a delivery pass (SERVED)."),
    "serve.requests_shed": MetricSpec(
        COUNTER, "Requests shed by admission control (queue full)."),
    "serve.requests_timeout": MetricSpec(
        COUNTER, "Requests whose deadline expired before service "
                 "(shed at dequeue, before any delivery work)."),
    "serve.requests_errored": MetricSpec(
        COUNTER, "Requests that raised during a delivery pass (ERROR)."),
    "serve.errors": MetricSpec(
        COUNTER, "ERROR results, with a per-exception-type breakdown: "
                 "each failure also increments a dynamic "
                 "serve.errors.<ExceptionType> counter (CamelCase "
                 "suffix, e.g. serve.errors.CatalogError)."),
    "serve.queue_depth": MetricSpec(
        GAUGE, "Requests currently queued across all shards."),
    "serve.batch_size": MetricSpec(
        HISTOGRAM, "Requests coalesced into one micro-batched delivery "
                   "pass.", COUNT_BUCKETS),
    "serve.request_latency_s": MetricSpec(
        HISTOGRAM, "End-to-end request latency (submit to result), "
                   "seconds.", LATENCY_BUCKETS),
    "serve.service_time_s": MetricSpec(
        HISTOGRAM, "Per-request delivery service time on the serving "
                   "shard (excludes queueing and IPC), seconds.",
        LATENCY_BUCKETS),
    "serve.ipc_batches": MetricSpec(
        COUNTER, "Request batches framed to shard worker processes."),
    "serve.ipc_bytes": MetricSpec(
        COUNTER, "Bytes exchanged with shard worker processes, both "
                 "directions (frame headers included)."),
    "serve.workers_lost": MetricSpec(
        COUNTER, "Shard worker processes lost mid-run (connection "
                 "dropped before a clean shutdown)."),
    "serve.telemetry_polls": MetricSpec(
        COUNTER, "Periodic telemetry samples taken by the runtime's "
                 "streaming thread (worker registries polled + merged "
                 "into the live time series)."),
    "serve.trace_spans_merged": MetricSpec(
        COUNTER, "Spans recorded in shard worker processes and adopted "
                 "into the parent tracer over IPC."),
    # -- service-level objectives -----------------------------------------
    "slo.availability": MetricSpec(
        GAUGE, "SERVED / resolved requests for the scored run "
               "(shed, timeout and error all spend error budget)."),
    "slo.error_budget_burn_rate": MetricSpec(
        GAUGE, "Observed error rate over the rate the availability "
               "target allows (1.0 = exactly on budget)."),
    # -- HTTP gateway ------------------------------------------------------
    "gateway.connections": MetricSpec(
        COUNTER, "TCP connections accepted by the HTTP gateway."),
    "gateway.requests": MetricSpec(
        COUNTER, "HTTP requests parsed and routed by the gateway."),
    "gateway.http_errors": MetricSpec(
        COUNTER, "HTTP responses with a 4xx/5xx status (parse "
                 "failures, unknown routes, shed/timeout mappings)."),
    "gateway.request_s": MetricSpec(
        HISTOGRAM, "Wall-clock time from a parsed request to its "
                   "response being queued for write, seconds.",
        LATENCY_BUCKETS),
    "gateway.mutations_journaled": MetricSpec(
        COUNTER, "Tenancy mutations (org/campaign/audience writes) "
                 "appended + flushed to the gateway journal before "
                 "their 2xx response."),
    # -- state store -------------------------------------------------------
    "store.records_appended": MetricSpec(
        COUNTER, "Change records appended to a state store journal."),
    "store.journal_bytes": MetricSpec(
        COUNTER, "Bytes written to on-disk JSONL journals."),
    "store.checkpoints_taken": MetricSpec(
        COUNTER, "Snapshots produced by StateStore.checkpoint()."),
    "store.restores": MetricSpec(
        COUNTER, "Snapshots loaded back via StateStore.restore()."),
    "store.records_replayed": MetricSpec(
        COUNTER, "Journal records folded back onto owners by replay()."),
    # -- user-side client --------------------------------------------------
    "client.syncs": MetricSpec(
        COUNTER, "TreadClient feed syncs (full decode passes)."),
    "client.treads_decoded": MetricSpec(
        COUNTER, "Provider ads successfully decoded to a payload."),
    "client.treads_undecoded": MetricSpec(
        COUNTER, "Provider ads no decoder recognised."),
}

#: Span names emitted by the built-in instrumentation, name -> meaning.
SPANS: Dict[str, str] = {
    "delivery.run_sessions": "One round-robin delivery run.",
    "serve_slot": "One ad slot: eligibility, auction, delivery.",
    "serve.batch": "One micro-batched delivery pass on a shard.",
    "serve.request": "One request, admission to resolved result.",
    "serve.queue_wait": "Time a request sat in its shard queue.",
    "serve.engine": "One request's delivery pass on the serving shard.",
    "serve.ipc_roundtrip": "One batch round-trip to a shard worker "
                           "(its thread or its process).",
    "loadgen.run": "One open-loop load-generation run.",
    "gateway.request": "One HTTP request: parse, route, handle, "
                       "response queued.",
    "provider.launch": "Render + submit one batch of Treads.",
    "provider.run_delivery": "One saturating campaign run (the batch "
                             "sweep).",
    "client.sync": "One client-side feed scan and decode.",
    "store.checkpoint": "Dump every attached state owner to a snapshot.",
    "store.restore": "Load a snapshot back into the attached owners.",
    "store.replay": "Fold journal records onto the attached owners.",
}
