"""End-to-end: instrumented layers record into a swapped registry,
and record *nothing* under the no-op registry."""

import pytest

from repro.core.client import TreadClient
from repro.core.provider import TransparencyProvider
from repro.obs.metrics import (
    MetricsRegistry,
    NULL_REGISTRY,
    use_registry,
)
from repro.obs.tracing import Tracer, use_tracer


def _run_scenario(platform, web):
    """A small end-to-end sweep touching every instrumented layer."""
    provider = TransparencyProvider(platform, web, budget=100.0)
    attrs = platform.catalog.partner_attributes()[:3]
    user = platform.register_user()
    for attr in attrs:
        user.set_attribute(attr)
    provider.optin.via_page_like(user.user_id)
    provider.launch_attribute_sweep(attrs)
    provider.run_delivery()
    client = TreadClient(user.user_id, platform,
                         provider.publish_decode_pack())
    client.sync()
    return provider


class TestEnabledRegistry:
    def test_scenario_populates_every_layer(self, platform_factory, web):
        reg = MetricsRegistry("itest")
        with use_registry(reg):
            # The platform must be built inside the swap: delivery and
            # billing resolve their instruments at construction time.
            platform = platform_factory()
            _run_scenario(platform, web)
        assert reg.value("delivery.slots_served") > 0
        assert reg.value("delivery.impressions_delivered") == 4
        assert reg.value("delivery.match_cache_hits") > 0
        assert reg.value("delivery.match_cache_misses") > 0
        assert reg.value("auction.contenders") > 0
        assert reg.value("auction.slots_won") == 4
        assert reg.value("targeting.specs_compiled") > 0
        assert reg.value("platform.ads_submitted") == 4
        assert reg.value("platform.users_registered") == 1
        assert reg.value("billing.impressions_charged") == 4
        assert reg.value("provider.treads_launched") == 4
        assert reg.value("provider.decode_packs_published") == 1
        assert reg.value("client.syncs") == 1
        assert reg.value("client.treads_decoded") == 4

    def test_events_flow_during_scenario(self, platform_factory, web):
        # The as-it-happened record of each delivery is its journal
        # entry: one impression record per delivered impression, in
        # seq order, agreeing with the metric that counted it.
        reg = MetricsRegistry("itest-events")
        with use_registry(reg):
            platform = platform_factory()
            _run_scenario(platform, web)
        impressions = [record for record in platform.store.records()
                       if record.kind == "impression"]
        assert [record.seq for record in impressions] == [0, 1, 2, 3]
        assert len(impressions) == \
            reg.value("delivery.impressions_delivered")
        assert impressions == platform.delivery.impressions()

    def test_spans_nest_under_the_run(self, platform_factory, web):
        trc = Tracer()
        with use_tracer(trc):
            platform = platform_factory()
            _run_scenario(platform, web)
        names = {span.name for span in trc.spans}
        assert "provider.launch" in names
        assert "serve_slot" in names
        assert "client.sync" in names
        run_ids = {span.span_id for span in trc.spans
                   if span.name.startswith("delivery.run_")}
        for span in trc.spans:
            if span.name == "serve_slot":
                assert span.parent_id in run_ids
        assert trc.open_depth == 0


class TestNoopRegistry:
    def test_scenario_records_nothing(self, platform_factory, web):
        with use_registry(NULL_REGISTRY):
            platform = platform_factory()
            provider = _run_scenario(platform, web)
        # The scenario itself still works end to end...
        assert provider.total_impressions() == 4
        # ...but no instrument was interned and nothing accumulated.
        assert NULL_REGISTRY.instruments() == {}
        assert NULL_REGISTRY.value("delivery.slots_served") == 0

    def test_no_spans_without_a_tracer(self, platform_factory, web):
        from repro.obs.tracing import tracer
        with use_registry(NULL_REGISTRY):
            platform = platform_factory()
            _run_scenario(platform, web)
        assert tracer().enabled is False
        assert tracer().to_jsonl() == ""


@pytest.fixture
def platform_factory(small_catalog):
    from repro.platform.platform import AdPlatform, PlatformConfig
    from repro.workloads.competition import zero_competition

    def build():
        return AdPlatform(
            config=PlatformConfig(name="obs-itest"),
            catalog=small_catalog,
            competing_draw=zero_competition(),
        )

    return build
