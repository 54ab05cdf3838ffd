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


def _run_scenario(platform, web, per_slot=False):
    """A small end-to-end sweep touching every instrumented layer.

    The Treads are delivered by the provider's campaign run (the batch
    sweep), or with ``per_slot`` one slot at a time through the per-slot
    serving path (``platform.run_delivery``): one user, four matching
    Treads, five slots.
    """
    provider = TransparencyProvider(platform, web, budget=100.0)
    attrs = platform.catalog.partner_attributes()[:3]
    user = platform.register_user()
    for attr in attrs:
        user.set_attribute(attr)
    provider.optin.via_page_like(user.user_id)
    provider.launch_attribute_sweep(attrs)
    if per_slot:
        platform.run_delivery(slots_per_user=5)
    else:
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
        assert reg.value("delivery.sweep_rounds") > 0
        assert reg.value("delivery.impressions_delivered") == 4
        assert reg.value("auction.contenders") > 0
        assert reg.value("auction.slots_won") == 4
        assert reg.value("targeting.specs_lowered") > 0
        assert reg.value("platform.ads_submitted") == 4
        assert reg.value("platform.users_registered") == 1
        assert reg.value("billing.impressions_charged") == 4
        assert reg.value("provider.treads_launched") == 4
        assert reg.value("provider.decode_packs_published") == 1
        assert reg.value("client.syncs") == 1
        assert reg.value("client.treads_decoded") == 4

        # The per-slot path walks the user's candidate list every slot, skipping the Treads already shown:
        # 0 + 1 + 2 + 3 + 4 cap rejections over the five slots.
        per_slot = MetricsRegistry("itest-per-slot")
        with use_registry(per_slot):
            _run_scenario(platform_factory(), web, per_slot=True)
        assert per_slot.value("delivery.slots_served") == 5
        assert per_slot.value("delivery.impressions_delivered") == 4
        assert per_slot.value("delivery.frequency_cap_rejections") == 10
        assert per_slot.value("delivery.sweep_rounds") == 0
        assert per_slot.value("delivery.sweep_fallback_specs") == 0
        assert per_slot.value("auction.slots_won") == 4
        assert per_slot.value("client.treads_decoded") == 4

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
        # The campaign run is one span; the batch sweep inside it opens
        # none of its own.
        campaign = Tracer()
        with use_tracer(campaign):
            _run_scenario(platform_factory(), web)
        assert [span.name for span in campaign.spans] == [
            "provider.launch", "provider.run_delivery", "client.sync"]
        assert all(span.parent_id is None for span in campaign.spans)
        assert campaign.open_depth == 0

        # The per-slot path: every serve_slot span nests under its run.
        per_slot = Tracer()
        with use_tracer(per_slot):
            _run_scenario(platform_factory(), web, per_slot=True)
        runs = [span for span in per_slot.spans
                if span.name == "delivery.run_sessions"]
        slots = [span for span in per_slot.spans
                 if span.name == "serve_slot"]
        assert len(runs) == 1
        assert len(slots) == 5
        assert all(span.parent_id == runs[0].span_id for span in slots)
        assert per_slot.open_depth == 0


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
