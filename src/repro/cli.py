"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``catalog stats``
    Catalog composition (the 614 + 507 split, per-source, per-broker).
``catalog search <keyword>``
    Keyword search over the advertiser-facing catalog, like the ads UI.
``demo``
    The quickstart scenario: one user, full partner sweep, decoded reveal.
``validate``
    The paper's section 3.1 validation (two authors, 507 Treads, $10 CPM)
    with the paper-vs-measured summary table.
``cost``
    The section 3.1 cost table for a given CPM and attribute counts.
``scale``
    Enumeration-vs-bit-split ad counts for m-valued attributes.
``attack``
    The section 5 single-victim inference probe, with and without the
    narrow-targeting defense, plus the defense's cost to Treads.
``stats``
    Run a scenario against a fresh metrics registry and dump every
    instrument (table, Prometheus text format, or JSONL).
``serve``
    Start the sharded serving runtime over a persona-mix world and
    drive it with generated traffic for a fixed duration; prints the
    outcome tally, latency quantiles, and per-shard balance.
``loadgen``
    The same world and runtime, reported from the load generator's
    side: offered vs achieved RPS, shed/timeout counts, and optionally
    the full latency histogram as JSON (``--histogram-out``). With
    ``--slo p99=5ms,availability=99%`` the run is scored against the
    objectives and the exit code says whether they held.
``top``
    The same run as ``loadgen``, watched live: a redrawing terminal
    view of per-shard rps, queue depth, shed/timeout rates, and
    latency quantiles out of the streaming telemetry plane.
``gateway``
    Serve the runtime over HTTP: ad requests, the durable multi-tenant
    campaign/audience API, live metrics, and SLO verdicts — all from
    one asyncio front. The world is rebuilt from the journal
    directory's manifest on restart and every shard journal plus the
    tenancy journal is replayed, so ``kill -9`` loses nothing
    acknowledged.
``httpgen``
    HTTP-mode load generation against a running gateway: the same
    seeded open-loop schedule as ``loadgen``, offered over pipelined
    keep-alive connections, with the same summary table, ``--slo``
    exit gate, and ``--histogram-out`` record.
``checkpoint``
    Serve a deterministic sharded scenario with per-shard journaling,
    snapshot every shard mid-run, keep serving, and write the journals,
    snapshots, a manifest, and the final canonical state report to a
    directory.
``restore``
    Rebuild the same world from a ``checkpoint`` directory via
    snapshot + journal-suffix replay and verify the recovered state is
    byte-identical to the recorded final report (exit 0 iff it is).
``replay``
    Rebuild the same world by folding each shard's *full* journal onto
    a fresh state — no snapshot — and verify the same byte-identity.

Global flags: ``-v`` / ``-vv`` attach a stderr handler to the
``repro.*`` loggers (INFO / DEBUG); ``--version`` prints the package
version; ``--trace-out FILE`` on the delivery-running commands
(``demo``, ``validate``, ``stats``, ``serve``, ``loadgen``, ``top``)
writes the run's spans — on the process backend the merged
cross-process trace — as JSONL or, with ``--trace-format chrome``, a
``chrome://tracing`` JSON array.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import os
import sys
import threading
from typing import List, Optional, Sequence, Tuple

from repro import __version__
from repro.analysis.tables import format_table
from repro.obs import export as obs_export
from repro.obs.metrics import MetricsRegistry, registry, use_registry
from repro.obs.slo import SLOSpec, parse_slo
from repro.obs.tracing import Tracer, use_tracer
from repro.core.bitsplit import bits_needed, treads_needed_enumeration
from repro.core.client import TreadClient
from repro.core.costs import CostModel
from repro.core.provider import TransparencyProvider
from repro.platform.catalog import build_us_catalog
from repro.platform.platform import AdPlatform, PlatformConfig
from repro.platform.web import WebDirectory
from repro.serve import (
    KeyedCompetition,
    LoadConfig,
    LoadGenerator,
    LoadReport,
    RuntimeConfig,
    ServingRuntime,
)
from repro.workloads.competition import lognormal_competition
from repro.workloads.personas import (
    AVERAGE_CONSUMER,
    ESTABLISHED_PROFESSIONAL,
    RECENT_ARRIVAL_GRAD_STUDENT,
)
from repro.workloads.population import PopulationBuilder


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Treads (HotNets 2018) reproduction: transparency-enhancing "
            "ads on a simulated ad platform."
        ),
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log repro.* to stderr (-v INFO, -vv DEBUG)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    catalog = commands.add_parser("catalog", help="inspect the attribute "
                                                  "catalog")
    catalog_sub = catalog.add_subparsers(dest="catalog_command",
                                         required=True)
    catalog_sub.add_parser("stats", help="catalog composition")
    search = catalog_sub.add_parser("search", help="keyword search")
    search.add_argument("keyword")
    search.add_argument("--limit", type=int, default=15)

    demo = commands.add_parser("demo", help="quickstart scenario")
    _add_trace_out(demo)

    validate = commands.add_parser(
        "validate", help="the paper's section 3.1 validation"
    )
    validate.add_argument("--seed", type=int, default=7)
    validate.add_argument("--bid-cpm", type=float, default=10.0)
    _add_trace_out(validate)

    stats = commands.add_parser(
        "stats", help="run a scenario and dump its metrics"
    )
    stats.add_argument("--scenario", choices=("demo", "validate"),
                       default="demo")
    stats.add_argument("--format", dest="stats_format",
                       choices=("table", "prometheus", "jsonl"),
                       default="table")
    _add_trace_out(stats)

    cost = commands.add_parser("cost", help="section 3.1 cost table")
    cost.add_argument("--cpm", type=float, default=2.0)
    cost.add_argument("--attributes", type=int, nargs="+",
                      default=[1, 10, 50, 100])

    scale = commands.add_parser("scale", help="section 3.1 scale table")
    scale.add_argument("--m", type=int, nargs="+",
                       default=[2, 8, 97, 1000, 4096])

    attack = commands.add_parser(
        "attack", help="section 5 inference attack vs defenses"
    )
    attack.add_argument("--defense-threshold", type=int, default=20)

    serve = commands.add_parser(
        "serve", help="run the sharded serving runtime under generated "
                      "traffic"
    )
    loadgen = commands.add_parser(
        "loadgen", help="open-loop load generation against the serving "
                        "runtime"
    )
    top = commands.add_parser(
        "top", help="loadgen with a live terminal view: per-shard rps, "
                    "queue depth, shed/timeout rates, latency quantiles"
    )
    for sub in (serve, loadgen, top):
        sub.add_argument("--shards", type=int, default=4,
                         help="user shards (engines + queues)")
        sub.add_argument("--backend", choices=("thread", "process"),
                         default="thread",
                         help="shard transport: one in-process worker "
                              "thread per shard (default) or one "
                              "subprocess per shard over batched IPC; "
                              "admission and batching are shared")
        sub.add_argument("--duration", type=float, default=2.0,
                         help="offered-load duration, seconds")
        sub.add_argument("--rps", type=float,
                         default=200.0 if sub is serve else 500.0,
                         help="target offered load, requests/second")
        sub.add_argument("--users", type=int, default=200,
                         help="persona-mix population size")
        sub.add_argument("--seed", type=int, default=42,
                         help="seed for population, arrivals, and "
                              "competing bids")
        sub.add_argument("--slots", type=int, default=1,
                         help="ad slots per request")
        sub.add_argument("--deadline-ms", type=float, default=None,
                         help="per-request latency budget; stale "
                              "requests TIMEOUT unserved")
        sub.add_argument("--queue-capacity", type=int, default=256,
                         help="bounded per-shard queue; overflow is "
                              "SHED")
        sub.add_argument("--metrics-out", metavar="FILE", default=None,
                         help="write a Prometheus snapshot of the live "
                              "(cross-process) registry to FILE on "
                              "every telemetry tick, atomically, plus "
                              "a final one after the run")
        sub.add_argument("--telemetry-interval", type=float,
                         default=None, metavar="SECONDS",
                         help="streaming worker-telemetry poll period; "
                              "defaults to 0.1 when --metrics-out is "
                              "set (and always streams under 'top'), "
                              "otherwise off")
        _add_trace_out(sub)
    for sub in (loadgen, top):
        sub.add_argument("--slo", metavar="SPEC", default=None,
                         help="comma-separated objectives like "
                              "p99=5ms,availability=99%%; exit 1 when "
                              "the run violates any of them")
    loadgen.add_argument("--histogram-out", metavar="FILE", default=None,
                        help="write the latency histogram + tally JSON "
                             "to FILE")
    top.add_argument("--interval", type=float, default=0.5,
                     metavar="SECONDS",
                     help="redraw period of the live view")

    gateway = commands.add_parser(
        "gateway", help="serve ad requests and the durable campaign "
                        "API over HTTP"
    )
    gateway.add_argument("--host", default="127.0.0.1")
    gateway.add_argument("--port", type=int, default=8080,
                         help="listen port (0 = ephemeral; the bound "
                              "port is printed on the ready line)")
    gateway.add_argument("--journal-dir", required=True, metavar="DIR",
                         help="directory for the world manifest, the "
                              "per-shard journals, and the tenancy "
                              "journal; reusing one recovers it")
    gateway.add_argument("--backend", choices=("thread", "process"),
                         default="thread",
                         help="shard transport (see serve --backend); "
                              "both commit the journal before a reply")
    gateway.add_argument("--shards", type=int, default=4)
    gateway.add_argument("--users", type=int, default=150,
                         help="persona-mix population size")
    gateway.add_argument("--seed", type=int, default=42)
    gateway.add_argument("--queue-capacity", type=int, default=256)
    gateway.add_argument("--deadline-ms", type=float, default=None,
                         help="default per-request latency budget")
    gateway.add_argument("--slo", metavar="SPEC", default=None,
                         help="default objectives for GET /v1/slo")
    gateway.add_argument("--metrics-out", metavar="FILE", default=None,
                         help="write a Prometheus snapshot of the live "
                              "registry to FILE on every telemetry "
                              "tick, atomically")
    gateway.add_argument("--telemetry-interval", type=float,
                         default=None, metavar="SECONDS",
                         help="streaming worker-telemetry poll period; "
                              "defaults to 0.1 when --metrics-out is "
                              "set, otherwise off")
    _add_trace_out(gateway)

    httpgen = commands.add_parser(
        "httpgen", help="open-loop load generation against a running "
                        "gateway, over HTTP"
    )
    httpgen.add_argument("--url", default="http://127.0.0.1:8080",
                         help="base url of the gateway")
    httpgen.add_argument("--rps", type=float, default=500.0)
    httpgen.add_argument("--duration", type=float, default=2.0)
    httpgen.add_argument("--slots", type=int, default=1)
    httpgen.add_argument("--deadline-ms", type=float, default=None)
    httpgen.add_argument("--seed", type=int, default=42)
    httpgen.add_argument("--connections", type=int, default=1,
                         help="pipelined keep-alive connections; "
                              "requests partition by user so per-user "
                              "order is preserved")
    httpgen.add_argument("--slo", metavar="SPEC", default=None,
                         help="comma-separated objectives like "
                              "p99=5ms,availability=99%%; exit 1 when "
                              "the run violates any of them")
    httpgen.add_argument("--histogram-out", metavar="FILE",
                         default=None,
                         help="write the latency histogram + tally "
                              "JSON to FILE")

    populate = commands.add_parser(
        "populate", help="stream a persona-mix population into a "
                         "world and report its storage footprint"
    )
    populate.add_argument("--users", type=int, default=100_000,
                          help="population size")
    populate.add_argument("--stats", action="store_true",
                          help="print the store's shape/size summary "
                               "after populating")
    populate.add_argument("--seed", type=int, default=42)
    populate.add_argument("--chunk-size", type=int, default=10_000,
                          help="users spawned per streamed chunk")
    populate.add_argument("--sweep", action="store_true",
                          help="after populating, launch the full "
                               "partner sweep and deliver it through "
                               "the vectorized batch sweep engine "
                               "(compact delivery, journal "
                               "discarded)")
    populate.add_argument("--sweep-workers", type=int, default=None,
                          metavar="N",
                          help="fork N row-range workers for the "
                               "sweep (default: in-process, single "
                               "worker)")

    checkpoint = commands.add_parser(
        "checkpoint", help="journal a deterministic sharded run, "
                           "snapshot mid-run, record the final state"
    )
    checkpoint.add_argument("--out", required=True, metavar="DIR",
                            help="new or empty directory for journals, "
                                 "snapshots, manifest, and final report")
    checkpoint.add_argument("--seed", type=int, default=11)
    checkpoint.add_argument("--users", type=int, default=40,
                            help="persona-mix population size")
    checkpoint.add_argument("--shards", type=int, default=4)
    checkpoint.add_argument("--rounds", type=int, default=4,
                            help="full serving rounds over the "
                                 "population")
    checkpoint.add_argument("--checkpoint-after", type=int, default=2,
                            help="take the snapshot after this many "
                                 "rounds (rest lands in the journal "
                                 "suffix)")
    checkpoint.add_argument("--slots", type=int, default=3,
                            help="ad slots per user per round")

    restore = commands.add_parser(
        "restore", help="recover every shard from snapshot + journal "
                        "suffix and diff against the recorded state"
    )
    restore.add_argument("--from", dest="state_dir", required=True,
                         metavar="DIR",
                         help="a directory written by 'repro checkpoint'")

    replay = commands.add_parser(
        "replay", help="fold each shard's full journal onto fresh state "
                       "and diff against the recorded state"
    )
    replay.add_argument("--from", dest="state_dir", required=True,
                        metavar="DIR",
                        help="a directory written by 'repro checkpoint'")
    return parser


def _add_trace_out(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="write the run's spans to FILE (on the process backend, "
             "the merged cross-process trace)",
    )
    subparser.add_argument(
        "--trace-format", choices=("jsonl", "chrome"), default="jsonl",
        help="span serialization for --trace-out: JSONL records "
             "(default) or a chrome://tracing JSON array",
    )


def _configure_logging(verbosity: int) -> None:
    """Attach a stderr handler to the ``repro`` logger tree.

    Idempotent: the handler is tagged so repeated ``main()`` calls in
    one process (the test suite) adjust the level instead of stacking
    duplicate handlers. Verbosity 0 leaves the library silent.
    """
    if verbosity <= 0:
        return
    logger = logging.getLogger("repro")
    handler = next(
        (h for h in logger.handlers
         if getattr(h, "_repro_cli_handler", False)),
        None,
    )
    if handler is None:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s")
        )
        handler._repro_cli_handler = True
        logger.addHandler(handler)
    level = logging.INFO if verbosity == 1 else logging.DEBUG
    handler.setLevel(level)
    logger.setLevel(level)


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _cmd_catalog_stats() -> int:
    catalog = build_us_catalog()
    partner = catalog.partner_attributes()
    platform_attrs = catalog.platform_attributes()
    by_broker: dict = {}
    for attribute in partner:
        by_broker[attribute.broker] = by_broker.get(attribute.broker, 0) + 1
    rows = [
        ("platform-computed attributes", len(platform_attrs)),
        ("  of which multi-valued",
         sum(1 for a in platform_attrs if not a.is_binary)),
        ("partner (data-broker) attributes", len(partner)),
    ]
    rows += [(f"  from {broker}", count)
             for broker, count in sorted(by_broker.items())]
    rows.append(("total", len(catalog)))
    print(format_table(("segment", "attributes"), rows,
                       title="US targeting catalog (early-2018 shape)"))
    return 0


def _cmd_catalog_search(keyword: str, limit: int) -> int:
    catalog = build_us_catalog()
    hits = catalog.search(keyword)
    if not hits:
        print(f"no attributes match {keyword!r}")
        return 1
    rows = [
        (a.attr_id, a.name, a.source.value,
         a.broker or "-")
        for a in hits[:limit]
    ]
    print(format_table(("id", "name", "source", "broker"), rows,
                       title=f"{len(hits)} match(es) for {keyword!r}"))
    if len(hits) > limit:
        print(f"... and {len(hits) - limit} more (raise --limit)")
    return 0


def _cmd_demo() -> int:
    platform = AdPlatform()
    web = WebDirectory()
    user = platform.register_user(age=34)
    hidden = ["pc-networth-006", "pc-jobrole-000", "pc-autointent-007"]
    for attr_id in hidden:
        user.set_attribute(platform.catalog.get(attr_id))
    provider = TransparencyProvider(platform, web, budget=100.0,
                                    bid_cap_cpm=10.0)
    provider.optin.via_page_like(user.user_id)
    provider.launch_partner_sweep()
    provider.run_delivery()
    profile = TreadClient(user.user_id, platform,
                          provider.publish_decode_pack()).sync()
    print("ad-preferences page shows: "
          f"{len(platform.ad_preferences_for(user.user_id).shown_attributes)}"
          " attributes (partner data hidden)")
    print(f"Treads revealed {len(profile.set_attributes)}:")
    for attr_id in sorted(profile.set_attributes):
        print(f"  - {platform.catalog.get(attr_id).name}")
    print(f"spend: ${provider.total_spend():.4f} for "
          f"{provider.total_impressions()} impressions")
    return 0 if profile.set_attributes == set(hidden) else 1


def _cmd_validate(seed: int, bid_cpm: float) -> int:
    platform = AdPlatform(
        config=PlatformConfig(name="fbsim"),
        competing_draw=lognormal_competition(median_cpm=2.0, seed=seed),
    )
    web = WebDirectory()
    builder = PopulationBuilder(platform, seed=seed)
    profiled = builder.spawn(ESTABLISHED_PROFESSIONAL, 1)[0]
    unprofiled = builder.spawn(RECENT_ARRIVAL_GRAD_STUDENT, 1)[0]
    builder.finalize()
    provider = TransparencyProvider(platform, web, budget=500.0,
                                    bid_cap_cpm=bid_cpm)
    provider.optin.via_page_like(profiled.user_id)
    provider.optin.via_page_like(unprofiled.user_id)
    launch = provider.launch_partner_sweep()
    provider.run_delivery(max_rounds=200)
    pack = provider.publish_decode_pack()
    reveal_a = TreadClient(profiled.user_id, platform, pack).sync()
    reveal_b = TreadClient(unprofiled.user_id, platform, pack).sync()
    truth_a = {a for a in profiled.binary_attrs if a.startswith("pc-")}
    rows = [
        ("Treads run", 508, len(launch.treads)),
        ("profiled author reveals", "11 (paper)",
         len(reveal_a.set_attributes)),
        ("profiled author exact vs ground truth", "yes",
         "yes" if reveal_a.set_attributes == truth_a else "NO"),
        ("unprofiled author reveals", 0, len(reveal_b.set_attributes)),
        ("both received control", "yes",
         "yes" if reveal_a.control_received and reveal_b.control_received
         else "NO"),
        ("total spend", "(2nd-price)",
         f"${provider.total_spend():.4f}"),
    ]
    print(format_table(("quantity", "paper", "measured"), rows,
                       title=f"Section 3.1 validation (seed {seed}, "
                             f"bid ${bid_cpm:.0f} CPM)"))
    ok = (reveal_a.set_attributes == truth_a
          and not reveal_b.set_attributes
          and reveal_a.control_received and reveal_b.control_received)
    return 0 if ok else 1


def _cmd_cost(cpm: float, attribute_counts: Sequence[int]) -> int:
    model = CostModel(cpm=cpm)
    rows = [("one attribute", f"${model.per_attribute():.4f}")]
    rows += [
        (f"user with {count} set attributes",
         f"${model.full_profile(count):.4f}")
        for count in attribute_counts
    ]
    rows.append(("any unset attribute", "$0.0000 (never delivered)"))
    print(format_table(("reveal", "cost"), rows,
                       title=f"Treads cost at ${cpm:.2f} CPM (sec 3.1)"))
    return 0


def _cmd_scale(ms: Sequence[int]) -> int:
    rows = [
        (m, treads_needed_enumeration(m), bits_needed(m))
        for m in ms
    ]
    print(format_table(
        ("m (values)", "enumeration ads", "bit-split ads (ceil log2 m)"),
        rows, title="Treads needed per m-valued attribute (sec 3.1)",
    ))
    return 0


def _cmd_attack(defense_threshold: int) -> int:
    from repro.attacks import DeliveryInferenceAttack, SizeEstimateAttack
    from repro.workloads.competition import zero_competition

    def fresh(min_match):
        platform = AdPlatform(
            config=PlatformConfig(name=f"cli-atk{min_match}",
                                  min_delivery_match_count=min_match),
            catalog=build_us_catalog(60, 30),
            competing_draw=zero_competition(),
        )
        victim = platform.register_user()
        platform.users.attach_pii(victim.user_id, "email",
                                  "victim@example.com")
        attr = platform.catalog.partner_attributes()[0]
        victim.set_attribute(attr)
        return platform, attr

    platform, attr = fresh(0)
    size = SizeEstimateAttack(platform).run(
        "victim@example.com", attr.attr_id, ground_truth=True
    )
    delivery = DeliveryInferenceAttack(platform).run(
        "victim@example.com", attr.attr_id, ground_truth=True
    )
    patched_platform, patched_attr = fresh(defense_threshold)
    patched = DeliveryInferenceAttack(patched_platform).run(
        "victim@example.com", patched_attr.attr_id, ground_truth=True
    )
    rows = [
        ("size estimate, 2018 defaults",
         str(size.inferred_bit), size.observable),
        ("delivery probe, 2018 defaults",
         str(delivery.inferred_bit), delivery.observable),
        (f"delivery probe, min-match {defense_threshold}",
         str(patched.inferred_bit), patched.observable),
    ]
    print(format_table(
        ("attack channel / platform", "bit learned", "observable"),
        rows, title="Section 5 single-victim inference attack",
    ))
    return 0


def _cmd_stats(scenario: str, stats_format: str) -> int:
    """Run a scenario against a fresh registry and dump every metric.

    The registry swap must happen *before* the scenario constructs its
    platform — delivery/billing resolve their instruments at
    construction time — which is why this re-runs the scenario rather
    than reading whatever a previous command left behind. The
    scenario's own stdout is swallowed; only the metrics dump prints.
    """
    registry = MetricsRegistry("cli-stats")
    with use_registry(registry), \
            contextlib.redirect_stdout(io.StringIO()):
        if scenario == "demo":
            _cmd_demo()
        else:
            _cmd_validate(seed=7, bid_cpm=10.0)
    if stats_format == "prometheus":
        sys.stdout.write(obs_export.to_prometheus(registry))
    elif stats_format == "jsonl":
        sys.stdout.write(obs_export.to_jsonl(registry))
    else:
        print(obs_export.to_table(
            registry, title=f"metrics after {scenario!r} scenario"
        ))
    return 0


def _telemetry_interval_for(args: argparse.Namespace) -> Optional[float]:
    """Resolve the runtime's streaming poll period from the flags.

    Explicit ``--telemetry-interval`` wins; otherwise ``--metrics-out``
    needs a stream to snapshot (100 ms default), and ``top`` always
    streams (at half its redraw period so every frame has fresh rows).
    """
    explicit = getattr(args, "telemetry_interval", None)
    if explicit is not None:
        return explicit
    if getattr(args, "metrics_out", None) is not None:
        return 0.1
    if args.command == "top":
        return max(0.05, args.interval / 2.0)
    return None


def _write_metrics_snapshot(path: str, reg: MetricsRegistry) -> None:
    """Atomically replace ``path`` with a Prometheus dump of ``reg``
    (write-then-rename, so a concurrent scraper never reads a torn
    file)."""
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "w", encoding="utf-8") as stream:
        stream.write(obs_export.to_prometheus(reg))
    os.replace(tmp_path, path)


def _build_serving_world(args: argparse.Namespace
                         ) -> Tuple[ServingRuntime, LoadGenerator]:
    """Build a persona-mix world with a full Tread sweep, runtime, and
    generator.

    Shared engine room for ``serve``, ``loadgen``, and ``top`` — same
    world, same runtime, same generator; the commands differ only in
    which side of the run they report. ``--metrics-out`` hangs a
    telemetry listener here so Prometheus snapshots land on every tick
    of the streaming plane.
    """
    platform = AdPlatform(config=PlatformConfig(name="serve"))
    web = WebDirectory()
    builder = PopulationBuilder(platform, seed=args.seed)
    builder.spawn_mix(
        [ESTABLISHED_PROFESSIONAL, AVERAGE_CONSUMER,
         RECENT_ARRIVAL_GRAD_STUDENT],
        args.users,
    )
    builder.finalize()
    provider = TransparencyProvider(platform, web, budget=10_000.0,
                                    bid_cap_cpm=10.0)
    for user_id in platform.users.user_ids():
        provider.optin.via_page_like(user_id)
    provider.launch_partner_sweep()
    runtime = ServingRuntime(
        platform,
        RuntimeConfig(
            num_shards=args.shards,
            queue_capacity=args.queue_capacity,
            backend=args.backend,
            telemetry_interval_s=_telemetry_interval_for(args),
        ),
        competition=KeyedCompetition(seed=args.seed),
    )
    generator = LoadGenerator(
        runtime,
        platform.users.user_ids(),
        LoadConfig(
            rps=args.rps,
            duration_s=args.duration,
            slots=args.slots,
            deadline_s=(args.deadline_ms / 1000.0
                        if args.deadline_ms is not None else None),
            seed=args.seed,
        ),
    )
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out is not None:
        runtime.add_telemetry_listener(
            lambda rt, sample: _write_metrics_snapshot(
                metrics_out, rt.live_metrics()))
    return runtime, generator


def _finish_serving_run(args: argparse.Namespace,
                        report: LoadReport) -> None:
    """Post-run bookkeeping shared by serve/loadgen/top: capture the
    merged runtime histograms and write the final metrics snapshot."""
    # After stop: on the process backend, worker registries have merged
    # back, so these are the fleet-wide (cross-process) histograms.
    report.attach_runtime_histograms(registry())
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out is not None:
        _write_metrics_snapshot(metrics_out, registry())
        print(f"wrote metrics snapshot to {metrics_out}",
              file=sys.stderr)


def _parse_slo_arg(args: argparse.Namespace) -> Optional[SLOSpec]:
    """Parse ``--slo`` up front (before spending a run on it); raises
    SystemExit(2) on a malformed spec, argparse-style."""
    text = getattr(args, "slo", None)
    if text is None:
        return None
    try:
        return parse_slo(text)
    except ValueError as exc:
        print(f"invalid --slo spec: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _apply_slo_gate(report: LoadReport,
                    spec: Optional[SLOSpec]) -> bool:
    """Score the report, print one verdict line per objective, and
    return whether every objective held."""
    if spec is None:
        return True
    evaluation = report.evaluate_slo(spec, registry=registry())
    for result in evaluation.results:
        print(f"slo: {result.describe()}")
    if not evaluation.ok:
        print(f"slo violated: {len(evaluation.violations)} of "
              f"{len(evaluation.results)} objective(s) missed",
              file=sys.stderr)
    return evaluation.ok


def _run_serving_world(args: argparse.Namespace
                       ) -> Tuple[ServingRuntime, LoadReport]:
    runtime, generator = _build_serving_world(args)
    with runtime:
        report = generator.run()
    _finish_serving_run(args, report)
    return runtime, report


def _cmd_serve(args: argparse.Namespace) -> int:
    runtime, report = _run_serving_world(args)
    quantiles = report.percentiles()
    tally = report.tally
    rows = [
        # One worker (thread or process) per shard.
        ("shards x workers", f"{args.shards} x 1"),
        ("backend", args.backend),
        ("offered / achieved rps",
         f"{report.config.rps:.0f} / {report.achieved_rps:.0f}"),
        ("served", tally.served),
        ("shed (queue full)", tally.shed),
        ("timeout (deadline)", tally.timeout),
        ("errors", tally.errors),
        ("impressions delivered", tally.impressions),
        ("latency p50 / p95 / p99 (ms)",
         " / ".join(f"{quantiles[p] * 1000:.2f}"
                    for p in ("p50", "p95", "p99"))),
    ]
    for stats in runtime.router.snapshot_stats():
        rows.append((f"  {stats['engine_id']}",
                     f"{stats['impressions']} impressions, "
                     f"{stats['users_with_feeds']} users"))
    print(format_table(("serving runtime", "value"), rows,
                       title=f"repro serve: {args.users} users, "
                             f"{args.duration:.0f}s at {args.rps:.0f} rps"))
    return 0 if tally.errors == 0 else 1


def _cmd_loadgen(args: argparse.Namespace) -> int:
    spec = _parse_slo_arg(args)  # fail fast, before spending a run
    _, report = _run_serving_world(args)
    quantiles = report.percentiles()
    tally = report.tally
    rows = [
        ("offered", report.offered),
        ("backend", args.backend),
        ("target / achieved rps",
         f"{report.config.rps:.0f} / {report.achieved_rps:.0f}"),
        ("served rps", f"{report.served_rps:.0f}"),
        ("served", tally.served),
        ("shed (queue full)", tally.shed),
        ("timeout (deadline)", tally.timeout),
        ("errors", tally.errors),
        ("p50 (ms)", f"{quantiles['p50'] * 1000:.3f}"),
        ("p95 (ms)", f"{quantiles['p95'] * 1000:.3f}"),
        ("p99 (ms)", f"{quantiles['p99'] * 1000:.3f}"),
    ]
    print(format_table(("load generation", "value"), rows,
                       title=f"repro loadgen: {args.rps:.0f} rps for "
                             f"{args.duration:.1f}s, seed {args.seed}"))
    slo_ok = _apply_slo_gate(report, spec)
    if args.histogram_out is not None:
        with open(args.histogram_out, "w", encoding="utf-8") as stream:
            json.dump(report.record(), stream, indent=2)
            stream.write("\n")
        print(f"wrote latency histogram to {args.histogram_out}",
              file=sys.stderr)
    return 0 if tally.errors == 0 and tally.served > 0 and slo_ok else 1


def _render_top_frame(runtime: ServingRuntime, shards: int,
                      window_s: float, elapsed_s: float) -> str:
    """One frame of the ``repro top`` view, rendered from the
    telemetry buffer (no locks held on the serving path)."""
    buffer = runtime.telemetry
    latest = buffer.latest()
    lines = [
        f"repro top — {elapsed_s:5.1f}s elapsed, "
        f"{len(buffer)} telemetry samples "
        f"(window {window_s:.1f}s)"
    ]
    if latest is None:
        lines.append("  waiting for first telemetry sample...")
        return "\n".join(lines)
    header = (f"  {'shard':>5} {'rps':>8} {'queue':>6} {'shed/s':>8} "
              f"{'tmo/s':>8} {'p50ms':>8} {'p95ms':>8} {'p99ms':>8}")
    lines.append(header)
    for index in range(shards):
        prefix = f"serve.shard{index}"
        hist = buffer.histogram_window(f"{prefix}.latency_s", window_s)
        if hist is not None and hist.count:
            q = hist.percentiles()
            p50, p95, p99 = (q["p50"] * 1000, q["p95"] * 1000,
                             q["p99"] * 1000)
            quantile_cells = (f"{p50:8.2f} {p95:8.2f} {p99:8.2f}")
        else:
            quantile_cells = f"{'-':>8} {'-':>8} {'-':>8}"
        lines.append(
            f"  {index:>5} "
            f"{buffer.rate(f'{prefix}.served', window_s):8.1f} "
            f"{latest.scalar(f'{prefix}.queue_depth'):6.0f} "
            f"{buffer.rate(f'{prefix}.shed', window_s):8.1f} "
            f"{buffer.rate(f'{prefix}.timeout', window_s):8.1f} "
            f"{quantile_cells}"
        )
    lines.append(
        f"  total: {latest.scalar('serve.requests_served'):.0f} served, "
        f"{latest.scalar('serve.requests_shed'):.0f} shed, "
        f"{latest.scalar('serve.requests_timeout'):.0f} timeout, "
        f"{latest.scalar('serve.requests_errored'):.0f} errored "
        f"({buffer.rate('serve.requests_served', window_s):.0f} rps "
        f"served over the window)"
    )
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    """Loadgen watched live: a redraw loop over the telemetry buffer.

    The generator runs in a daemon thread; the main thread wakes every
    ``--interval`` seconds and paints per-shard rates/queue depths/
    quantiles from the streaming samples. On a tty each frame repaints
    in place (ANSI home+clear); on a pipe frames print sequentially,
    which is what the tests read.
    """
    import time as _time

    spec = _parse_slo_arg(args)
    runtime, generator = _build_serving_world(args)
    window_s = max(1.0, 4.0 * args.interval)
    holder: dict = {}

    def _drive() -> None:
        try:
            holder["report"] = generator.run()
        except BaseException as exc:  # surfaced after the loop
            holder["error"] = exc

    is_tty = sys.stdout.isatty()
    start = _time.perf_counter()
    with runtime:
        driver = threading.Thread(target=_drive, name="top-loadgen",
                                  daemon=True)
        driver.start()
        while driver.is_alive():
            driver.join(timeout=args.interval)
            frame = _render_top_frame(
                runtime, args.shards, window_s,
                _time.perf_counter() - start)
            if is_tty:
                sys.stdout.write("\x1b[H\x1b[2J" + frame + "\n")
            else:
                sys.stdout.write(frame + "\n")
            sys.stdout.flush()
    if "error" in holder:
        raise holder["error"]
    report: LoadReport = holder["report"]
    _finish_serving_run(args, report)
    quantiles = report.percentiles()
    tally = report.tally
    rows = [
        ("offered", report.offered),
        ("backend", args.backend),
        ("target / achieved rps",
         f"{report.config.rps:.0f} / {report.achieved_rps:.0f}"),
        ("served / shed / timeout / errors",
         f"{tally.served} / {tally.shed} / {tally.timeout} / "
         f"{tally.errors}"),
        ("latency p50 / p95 / p99 (ms)",
         " / ".join(f"{quantiles[p] * 1000:.2f}"
                    for p in ("p50", "p95", "p99"))),
        ("telemetry samples", runtime.telemetry.appended),
    ]
    print(format_table(("repro top", "value"), rows,
                       title=f"final: {args.rps:.0f} rps for "
                             f"{args.duration:.1f}s, seed {args.seed}"))
    slo_ok = _apply_slo_gate(report, spec)
    return 0 if tally.errors == 0 and tally.served > 0 and slo_ok else 1


def _build_state_world(seed: int, users: int, shards: int,
                       journal_dir: Optional[str] = None):
    """The deterministic world behind ``checkpoint``/``restore``/
    ``replay``: a seeded persona-mix population with a launched Tread
    sweep, sharded with keyed competition so any two invocations with
    the same manifest produce identical serving decisions.
    """
    from repro.serve import ShardRouter, journal_store_factory
    from repro.workloads.competition import zero_competition

    platform = AdPlatform(
        config=PlatformConfig(name="state-cli"),
        catalog=build_us_catalog(platform_count=40, partner_count=25),
        competing_draw=zero_competition(),
    )
    web = WebDirectory()
    builder = PopulationBuilder(platform, seed=seed)
    builder.spawn_mix(
        [ESTABLISHED_PROFESSIONAL, AVERAGE_CONSUMER,
         RECENT_ARRIVAL_GRAD_STUDENT],
        users,
    )
    builder.finalize()
    provider = TransparencyProvider(platform, web, budget=10_000.0,
                                    bid_cap_cpm=10.0)
    for user_id in platform.users.user_ids():
        provider.optin.via_page_like(user_id)
    provider.launch_partner_sweep()
    factory = (journal_store_factory(journal_dir)
               if journal_dir is not None else None)
    router = ShardRouter(platform, num_shards=shards,
                         competition=KeyedCompetition(seed=seed),
                         store_factory=factory)
    return platform, router


def _serve_rounds(platform, router, rounds: int, slots: int) -> None:
    """Round-robin every user through their shard, ``rounds`` times."""
    for _ in range(rounds):
        for user in platform.users:
            shard = router.shard_for(user.user_id)
            base = shard.claim_slots(user.user_id, slots)
            for k in range(slots):
                shard.engine.serve_slot(user, base + k)


def _cpu_with_children() -> float:
    """User plus system CPU seconds of this process and its waited-for
    children."""
    import resource

    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _cmd_populate(args: argparse.Namespace) -> int:
    import time

    from repro.store.store import NullStore
    from repro.workloads.competition import zero_competition

    if args.users < 1:
        print("populate: --users must be >= 1", file=sys.stderr)
        return 2
    if args.sweep_workers is not None and not args.sweep:
        print("populate: --sweep-workers needs --sweep", file=sys.stderr)
        return 2
    if args.sweep:
        # The batch sweep wants the million-user memory shape: compact
        # delivery state, journal records discarded, and the Treads
        # economics of no competing demand.
        platform = AdPlatform(
            config=PlatformConfig(name="populate", compact_delivery=True),
            catalog=build_us_catalog(),
            competing_draw=zero_competition(),
            store=NullStore(),
        )
    else:
        platform = AdPlatform(config=PlatformConfig(name="populate"),
                              catalog=build_us_catalog())
    builder = PopulationBuilder(platform, seed=args.seed)
    personas = [AVERAGE_CONSUMER, ESTABLISHED_PROFESSIONAL,
                RECENT_ARRIVAL_GRAD_STUDENT]
    started = time.perf_counter()
    spawned = 0
    for chunk in builder.spawn_stream(personas, args.users,
                                      chunk_size=args.chunk_size):
        spawned += len(chunk)
    builder.finalize()
    elapsed = time.perf_counter() - started

    rows: List[Tuple[str, str]] = [
        ("users", f"{spawned:,}"),
        ("populate (s)", f"{elapsed:.2f}"),
        ("users/s", f"{spawned / elapsed:,.0f}" if elapsed > 0
         else "inf"),
    ]
    if args.stats:
        stats = platform.users.stats()
        rows.extend([
            ("binary attr vocab", str(stats["binary_attr_vocab"])),
            ("page vocab", str(stats["page_vocab"])),
            ("multi columns", str(stats["multi_columns"])),
            ("column bytes", f"{stats['column_bytes']:,}"),
            ("attr bitset density",
             f"{stats['attr_bitset_density']:.4f}"),
            ("dense ids", str(stats["dense_ids"])),
        ])
    if args.sweep:
        provider = TransparencyProvider(platform, WebDirectory(),
                                        budget=50_000.0)
        for user_id in platform.users.user_ids():
            provider.optin.via_page_like(user_id)
        provider.launch_partner_sweep()
        # CPU of this process plus its reaped children: the forked
        # sweep workers' time lands in RUSAGE_CHILDREN once joined.
        cpu_before = _cpu_with_children()
        deliver_wall = time.perf_counter()
        provider.run_delivery(sweep_workers=args.sweep_workers)
        deliver_wall = time.perf_counter() - deliver_wall
        deliver_cpu = _cpu_with_children() - cpu_before
        impressions = provider.total_impressions()
        rows.extend([
            ("sweep workers", str(args.sweep_workers or 1)),
            ("sweep impressions", f"{impressions:,}"),
            ("sweep wall (s)", f"{deliver_wall:.2f}"),
            ("sweep cpu (s)", f"{deliver_cpu:.2f}"),
            ("impressions/s", f"{impressions / deliver_wall:,.0f}"
             if deliver_wall > 0 else "inf"),
        ])
    print(format_table(("metric", "value"), rows,
                       title="populate — columnar store"))
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    import os

    from repro.store.audit import canonical_json, state_report

    if not 0 <= args.checkpoint_after <= args.rounds:
        print("--checkpoint-after must be within [0, --rounds]",
              file=sys.stderr)
        return 2
    if os.path.isdir(args.out) and os.listdir(args.out):
        # The shard journals would append to the ones already there, so
        # the new bundle would not replay to its own recorded report.
        print(f"--out {args.out} is not empty; checkpoint writes a "
              "fresh bundle into a new or empty directory",
              file=sys.stderr)
        return 2
    platform, router = _build_state_world(
        args.seed, args.users, args.shards, journal_dir=args.out)
    _serve_rounds(platform, router, args.checkpoint_after, args.slots)
    snapshots = router.checkpoint_shards(
        directory=args.out, label=f"after-round-{args.checkpoint_after}")
    _serve_rounds(platform, router,
                  args.rounds - args.checkpoint_after, args.slots)
    for shard in router.shards:
        shard.store.flush()
    manifest = {
        "seed": args.seed,
        "users": args.users,
        "shards": args.shards,
        "rounds": args.rounds,
        "checkpoint_after": args.checkpoint_after,
        "slots": args.slots,
    }
    with open(os.path.join(args.out, "manifest.json"), "w",
              encoding="utf-8") as stream:
        json.dump(manifest, stream, indent=2, sort_keys=True)
        stream.write("\n")
    report = state_report(router)
    with open(os.path.join(args.out, "final_report.json"), "w",
              encoding="utf-8") as stream:
        stream.write(canonical_json(report))
        stream.write("\n")
    journaled = sum(shard.store.record_count for shard in router.shards)
    for shard in router.shards:
        shard.store.close()
    rows = [
        ("shards", args.shards),
        ("rounds (snapshot after)",
         f"{args.rounds} ({args.checkpoint_after})"),
        ("records journaled", journaled),
        ("snapshot journal seqs",
         ", ".join(str(s.journal_seq) for s in snapshots)),
        ("impressions", report["totals"]["impressions"]),
        ("total spend", f"${report['totals']['spend']:.4f}"),
    ]
    print(format_table(("checkpoint", "value"), rows,
                       title=f"repro checkpoint -> {args.out}"))
    return 0


def _load_state_manifest(state_dir: str) -> dict:
    import os

    with open(os.path.join(state_dir, "manifest.json"),
              encoding="utf-8") as stream:
        return json.load(stream)


def _diff_against_recorded(router, state_dir: str,
                           mode: str) -> int:
    """Shared tail of ``restore``/``replay``: byte-diff the rebuilt
    router's report against the recorded one."""
    import os

    from repro.store.audit import canonical_json, state_report

    with open(os.path.join(state_dir, "final_report.json"),
              encoding="utf-8") as stream:
        recorded = stream.read().strip()
    rebuilt = canonical_json(state_report(router))
    for shard in router.shards:
        shard.store.close()
    identical = rebuilt == recorded
    rows = [
        ("recorded report bytes", len(recorded)),
        ("rebuilt report bytes", len(rebuilt)),
        ("byte-identical", "yes" if identical else "NO"),
    ]
    print(format_table((mode, "value"), rows,
                       title=f"repro {mode} <- {state_dir}"))
    if not identical:
        print(f"{mode} diverged from the recorded final state",
              file=sys.stderr)
    return 0 if identical else 1


def _cmd_restore(state_dir: str) -> int:
    manifest = _load_state_manifest(state_dir)
    _, router = _build_state_world(
        manifest["seed"], manifest["users"], manifest["shards"])
    for index in range(router.num_shards):
        router.recover_shard(index, state_dir)
    return _diff_against_recorded(router, state_dir, "restore")


def _cmd_replay(state_dir: str) -> int:
    from repro.serve import shard_journal_path
    from repro.store import JournalStore

    manifest = _load_state_manifest(state_dir)
    _, router = _build_state_world(
        manifest["seed"], manifest["users"], manifest["shards"])
    replayed = 0
    for index, shard in enumerate(router.shards):
        records = JournalStore.read(
            shard_journal_path(state_dir, index, router.num_shards))
        replayed += shard.store.replay(records)
    print(f"replayed {replayed} records across "
          f"{router.num_shards} shard(s)", file=sys.stderr)
    return _diff_against_recorded(router, state_dir, "replay")


def _cmd_gateway(args: argparse.Namespace) -> int:
    import signal

    from repro.gateway import (
        GatewayApp,
        GatewayServer,
        TenantRegistry,
        WorldManifest,
        build_runtime,
        build_world,
        existing_shard_journals,
        load_manifest,
        open_tenancy_store,
        recover_runtime_shards,
        save_manifest,
        tenancy_journal_path,
    )
    from repro.store import JournalStore
    from repro.store.audit import canonical_json, state_report

    spec = _parse_slo_arg(args)
    manifest = load_manifest(args.journal_dir)
    if manifest is None:
        manifest = WorldManifest(
            seed=args.seed,
            users=args.users,
            shards=args.shards,
            backend=args.backend,
            queue_capacity=args.queue_capacity,
            deadline_ms=args.deadline_ms,
        )
        save_manifest(args.journal_dir, manifest)
    else:
        print(f"recovering world from {args.journal_dir} "
              f"(manifest wins over the world flags)", file=sys.stderr)
    present = existing_shard_journals(args.journal_dir, manifest)
    platform = build_world(manifest)
    runtime = build_runtime(
        platform, manifest, journal_dir=args.journal_dir,
        telemetry_interval_s=_telemetry_interval_for(args))
    recovered = recover_runtime_shards(runtime, args.journal_dir,
                                       manifest, indices=present)
    if recovered:
        print(f"recovered shard journal(s) {list(recovered)}",
              file=sys.stderr)
    tenancy_records = []
    tenancy_file = tenancy_journal_path(args.journal_dir)
    if os.path.exists(tenancy_file):
        tenancy_records = JournalStore.read(tenancy_file)
    store = open_tenancy_store(args.journal_dir)
    tenants = TenantRegistry(platform, store)
    for record in tenancy_records:
        tenants.apply_record(record)
    if tenancy_records:
        print(f"replayed {len(tenancy_records)} tenancy record(s)",
              file=sys.stderr)
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out is not None:
        runtime.add_telemetry_listener(
            lambda rt, sample: _write_metrics_snapshot(
                metrics_out, rt.live_metrics()))
    runtime.start()
    server = GatewayServer(
        GatewayApp(platform, runtime, tenants, manifest,
                   slo_spec=spec),
        host=args.host, port=args.port)
    try:
        server.start()
    except RuntimeError as exc:
        print(f"gateway: {exc}", file=sys.stderr)
        runtime.stop()
        store.close()
        return 1
    print(f"gateway listening on {server.url} "
          f"(journal dir {args.journal_dir})", flush=True)
    stopping = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda _s, _f: stopping.set())
    stopping.wait()
    print("gateway shutting down", file=sys.stderr)
    server.stop()
    runtime.stop()
    report = state_report(runtime.router)
    with open(os.path.join(args.journal_dir, "final_report.json"),
              "w", encoding="utf-8") as stream:
        stream.write(canonical_json(report))
        stream.write("\n")
    if runtime.config.backend != "process":
        for shard in runtime.router.shards:
            shard.store.close()
    store.close()
    if metrics_out is not None:
        _write_metrics_snapshot(metrics_out, registry())
    return 0


def _cmd_httpgen(args: argparse.Namespace) -> int:
    from repro.gateway import HttpLoadGenerator

    spec = _parse_slo_arg(args)
    generator = HttpLoadGenerator(
        args.url,
        config=LoadConfig(
            rps=args.rps,
            duration_s=args.duration,
            slots=args.slots,
            deadline_s=(args.deadline_ms / 1000.0
                        if args.deadline_ms is not None else None),
            seed=args.seed,
        ),
        connections=args.connections,
    )
    try:
        report = generator.run()
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"httpgen: {exc}", file=sys.stderr)
        return 1
    quantiles = report.percentiles()
    tally = report.tally
    rows = [
        ("gateway", args.url),
        ("offered", report.offered),
        ("connections", args.connections),
        ("target / achieved rps",
         f"{report.config.rps:.0f} / {report.achieved_rps:.0f}"),
        ("served", tally.served),
        ("shed (429)", tally.shed),
        ("timeout (504)", tally.timeout),
        ("errors", tally.errors),
        ("p50 (ms)", f"{quantiles['p50'] * 1000:.3f}"),
        ("p95 (ms)", f"{quantiles['p95'] * 1000:.3f}"),
        ("p99 (ms)", f"{quantiles['p99'] * 1000:.3f}"),
    ]
    print(format_table(("http load generation", "value"), rows,
                       title=f"repro httpgen: {args.rps:.0f} rps for "
                             f"{args.duration:.1f}s, seed {args.seed}"))
    slo_ok = _apply_slo_gate(report, spec)
    if args.histogram_out is not None:
        with open(args.histogram_out, "w", encoding="utf-8") as stream:
            json.dump(report.record(), stream, indent=2)
            stream.write("\n")
        print(f"wrote latency histogram to {args.histogram_out}",
              file=sys.stderr)
    return 0 if tally.errors == 0 and tally.served > 0 and slo_ok else 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "catalog":
        if args.catalog_command == "stats":
            return _cmd_catalog_stats()
        return _cmd_catalog_search(args.keyword, args.limit)
    if args.command == "demo":
        return _cmd_demo()
    if args.command == "validate":
        return _cmd_validate(args.seed, args.bid_cpm)
    if args.command == "stats":
        return _cmd_stats(args.scenario, args.stats_format)
    if args.command == "cost":
        return _cmd_cost(args.cpm, args.attributes)
    if args.command == "scale":
        return _cmd_scale(args.m)
    if args.command == "attack":
        return _cmd_attack(args.defense_threshold)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "gateway":
        return _cmd_gateway(args)
    if args.command == "httpgen":
        return _cmd_httpgen(args)
    if args.command == "populate":
        return _cmd_populate(args)
    if args.command == "checkpoint":
        return _cmd_checkpoint(args)
    if args.command == "restore":
        return _cmd_restore(args.state_dir)
    if args.command == "replay":
        return _cmd_replay(args.state_dir)
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    _configure_logging(args.verbose)
    trace_out = getattr(args, "trace_out", None)
    if trace_out is None:
        return _dispatch(args)
    run_tracer = Tracer()
    with use_tracer(run_tracer):
        code = _dispatch(args)
    with open(trace_out, "w", encoding="utf-8") as stream:
        if getattr(args, "trace_format", "jsonl") == "chrome":
            written = run_tracer.write_chrome_trace(stream)
        else:
            written = run_tracer.write_jsonl(stream)
    print(f"wrote {written} spans to {trace_out}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
