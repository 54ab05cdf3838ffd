"""Keeps docs/api_tour.md honest: its code path must run end to end.

This is the tour's snippets concatenated into one scenario; if an API in
the tour changes shape, this test fails before the documentation rots.
"""

import pytest


def test_api_tour_scenario_end_to_end():
    # 1. stand up a platform
    from repro import AdPlatform, PlatformConfig, WebDirectory
    from repro.platform.catalog import build_us_catalog
    from repro.workloads.competition import lognormal_competition

    platform = AdPlatform(
        config=PlatformConfig(name="tour", default_cpm=2.0),
        catalog=build_us_catalog(),
        competing_draw=lognormal_competition(median_cpm=2.0, seed=7),
    )
    web = WebDirectory()

    # 2. populate it
    user = platform.register_user(age=34, zip_code="02115")
    user.set_attribute(platform.catalog.get("pc-networth-006"))

    from repro.workloads import ESTABLISHED_PROFESSIONAL, PopulationBuilder

    builder = PopulationBuilder(platform, seed=42)
    people = builder.spawn(ESTABLISHED_PROFESSIONAL, 12)
    builder.finalize()

    # 3. run a provider
    from repro import TransparencyProvider

    provider = TransparencyProvider(platform, web, budget=500.0,
                                    bid_cap_cpm=10.0)
    for person in people:
        provider.optin.via_page_like(person.user_id)
    provider.launch_partner_sweep()

    # 4. deliver, paced
    from repro import PacedCampaignRunner
    from repro.workloads.browsing import BrowsingModel

    runner = PacedCampaignRunner(
        provider, daily_budget=0.10,
        browsing_model=BrowsingModel(mean_slots=25),
    )
    result = runner.run(max_days=60)
    assert result.saturated and not result.exhausted_budget

    # 5. decode user-side, over the published wire format
    from repro import TreadClient
    from repro.core import (
        diff_profiles,
        pack_from_json,
        pack_to_json,
        validate_pack,
    )

    wire = pack_to_json(provider.publish_decode_pack())
    pack = pack_from_json(wire)
    assert validate_pack(pack, platform.catalog) == []

    person = people[0]
    profile = TreadClient(person.user_id, platform, pack).sync()
    assert profile.control_received
    truth = {a for a in person.binary_attrs if a.startswith("pc-")}
    assert profile.set_attributes == truth

    assert diff_profiles(profile, profile).is_empty

    # 6. provider-side aggregates only
    counts = provider.aggregate_attribute_counts()
    assert sum(counts.values()) >= len(truth)
    assert provider.total_spend() > 0.0

    # 7. the companion toolkits import cleanly
    from repro.attacks import DeliveryInferenceAttack  # noqa: F401
    from repro.baselines import CorrelationAuditor, status_quo_view  # noqa: F401
    from repro.core.regulator import AdvertiserAuditor  # noqa: F401
    from repro.platform.policy import TreadPatternDetector  # noqa: F401

    # 8. performance model: one lowering, evaluated over row ranges
    from repro.platform.targeting import lower_spec, parse

    spec = parse(f"attr:pc-networth-006 & page:{provider.page.page_id}")
    program = lower_spec(spec)
    users = platform.users
    row = users.row_of(user.user_id)
    flags = program.evaluate(users.columns, 0, len(users))
    assert flags.shape == (len(users),)
    assert bool(flags[row]) == spec.matches(user)
    assert flags.sum() == sum(spec.matches(view) for view in users)

    # 9. observability: registry swapped in before the platform is built
    from repro.obs import export
    from repro.obs.metrics import MetricsRegistry, use_registry

    with use_registry(MetricsRegistry("tour")) as reg:
        obs_platform = AdPlatform(
            config=PlatformConfig(name="tour-obs"),
            catalog=build_us_catalog(),
        )
        obs_web = WebDirectory()
        obs_user = obs_platform.register_user()
        obs_user.set_attribute(obs_platform.catalog.get("pc-networth-006"))
        obs_provider = TransparencyProvider(obs_platform, obs_web,
                                            budget=100.0)
        obs_provider.optin.via_page_like(obs_user.user_id)
        obs_provider.launch_partner_sweep()
        obs_provider.run_delivery()
    assert reg.value("delivery.slots_served") > 0
    assert "delivery.slots_served" in export.to_table(reg)

    from repro.analysis.traces import capture_trace, merge_event_stream

    trace = merge_event_stream(capture_trace(obs_platform),
                               obs_platform.store.records())
    journal = [event for event in trace.of_kind("impression")
               if event["visibility"] == "journal"]
    assert len(journal) == len(obs_platform.delivery.impressions()) > 0

    # 10. serve it like a platform
    from repro import (
        AdRequest,
        LoadConfig,
        LoadGenerator,
        RuntimeConfig,
        ServingRuntime,
    )

    runtime = ServingRuntime(platform, RuntimeConfig(
        num_shards=4,
        queue_capacity=256,
    ))
    with runtime:
        result = runtime.submit(
            AdRequest(user.user_id, slots=2, deadline_s=0.05)
        ).result()
        assert result.ok and result.response.filled_slots <= 2

        report = LoadGenerator(
            runtime, platform.users.user_ids(),
            LoadConfig(rps=300, duration_s=0.3, seed=42),
        ).run()
    assert set(report.percentiles()) == {"p50", "p95", "p99"}
    assert report.tally.errors == 0

    # 10 (continued): the process backend serves the same world from
    # one worker process per shard, then merges state back at stop
    proc_runtime = ServingRuntime(platform, RuntimeConfig(
        num_shards=4, backend="process",
    ))
    with proc_runtime:
        results = proc_runtime.serve_and_wait(
            [AdRequest(uid, slots=1)
             for uid in platform.users.user_ids()])
    assert all(r.ok for r in results)
    assert proc_runtime.router.total_impressions() > 0

    # 12. put it on the network (section 11 is the journal round-trip,
    # exercised by the checkpoint/restore CLI tests)
    import tempfile

    from repro.gateway import (
        GatewayApp,
        GatewayServer,
        HttpLoadGenerator,
        TenantRegistry,
        WorldManifest,
        build_runtime,
        build_world,
        fetch_json,
        open_tenancy_store,
        save_manifest,
    )

    journal_dir = tempfile.mkdtemp()
    manifest = WorldManifest(seed=11, users=24, shards=2)
    save_manifest(journal_dir, manifest)
    gw_platform = build_world(manifest)
    gw_runtime = build_runtime(gw_platform, manifest,
                               journal_dir=journal_dir)
    tenancy_store = open_tenancy_store(journal_dir)
    tenants = TenantRegistry(gw_platform, tenancy_store)
    server = GatewayServer(GatewayApp(gw_platform, gw_runtime, tenants,
                                      manifest))
    gw_runtime.start()
    server.start()
    try:
        assert fetch_json(server.url, "/healthz")["status"] == "ok"
        org = tenants.create_org("acme", 40.0)
        assert fetch_json(
            server.url, f"/v1/orgs/{org.org_id}")["name"] == "acme"
        report = HttpLoadGenerator(
            server.url,
            config=LoadConfig(rps=200, duration_s=0.4, seed=7),
        ).run()
        assert report.tally.errors == 0
    finally:
        server.stop()
        gw_runtime.stop()
        for shard in gw_runtime.router.shards:
            shard.store.close()
        tenancy_store.close()

    # 13. scale it to a hundred thousand users
    from repro.workloads.competition import zero_competition

    big = AdPlatform(
        config=PlatformConfig(name="big"),
        catalog=build_us_catalog(),
        competing_draw=zero_competition(),
    )
    partner_attrs = big.catalog.partner_attributes()
    for i in range(100_000):
        person = big.register_user()
        for k in range(3):
            person.set_attribute(partner_attrs[(i * 3 + k)
                                               % len(partner_attrs)])

    stats = big.users.stats()
    assert stats["rows"] == 100_000
    assert stats["dense_ids"]
    assert stats["column_bytes"] < 64 * 1024 * 1024

    target = partner_attrs[0]
    carriers = big.users.users_with_attribute(target.attr_id)
    assert all(u.has_attribute(target.attr_id) for u in carriers)

    # 14. deliver it as column algebra (the batch sweep)
    from repro.platform.ads import AdCreative
    from repro.store.store import NullStore

    fast = AdPlatform(
        config=PlatformConfig(name="fast", compact_delivery=True),
        catalog=build_us_catalog(),
        competing_draw=zero_competition(),
        store=NullStore(),
    )
    account = fast.create_ad_account("adv", budget=100.0)
    campaign = fast.create_campaign(account.account_id, "camp")
    sweep_attrs = fast.catalog.partner_attributes()[:4]
    for attr in sweep_attrs:
        fast.submit_ad(account.account_id, campaign.campaign_id,
                       AdCreative("h", f"ref {attr.attr_id}"),
                       f"attr:{attr.attr_id} & country:US",
                       bid_cap_cpm=10.0)
    for i in range(200):
        fast.register_user().set_attribute(sweep_attrs[i % 4])

    stats = fast.run_sweep()
    assert stats.filled_by_tracked_ads > 0
    assert fast.run_sweep(workers=2).filled_by_tracked_ads == 0
