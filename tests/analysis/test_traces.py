"""Tests for trace capture and JSONL round-trip."""

import pytest

from repro.analysis.traces import (
    Trace,
    capture_trace,
    dump_jsonl,
    load_jsonl,
    merge_event_stream,
    spend_by_day_of_seq,
)
from repro.core.provider import TransparencyProvider
from repro.store.records import ImpressionRecorded


@pytest.fixture
def traced(platform, web):
    provider = TransparencyProvider(platform, web, budget=100.0)
    attrs = platform.catalog.partner_attributes()[:3]
    user = platform.register_user()
    for attr in attrs:
        user.set_attribute(attr)
    provider.optin.via_page_like(user.user_id)
    provider.optin.via_pixel(platform.browser_for(user.user_id))
    provider.launch_attribute_sweep(attrs)
    provider.run_delivery()
    return provider, capture_trace(platform, websites=[provider.website])


class TestCapture:
    def test_impressions_and_charges_captured(self, traced):
        provider, trace = traced
        assert len(trace.of_kind("impression")) == 4  # 3 attrs + control
        assert len(trace.of_kind("charge")) == 4

    def test_web_visits_captured(self, traced):
        _, trace = traced
        visits = trace.of_kind("web_visit")
        assert len(visits) == 1
        assert visits[0]["path"] == "/optin"

    def test_header_metadata(self, traced, platform):
        _, trace = traced
        assert trace.header["platform"] == platform.name
        assert trace.header["users"] == 1

    def test_visibility_labels(self, traced):
        _, trace = traced
        assert all(e["visibility"] == "platform-internal"
                   for e in trace.of_kind("impression"))
        assert all(e["visibility"] == "advertiser"
                   for e in trace.of_kind("charge"))


class TestClickCapture:
    def test_clicks_captured_with_visibility(self, traced, platform):
        _, trace = traced
        impression = platform.delivery.impressions()[0]
        platform.delivery.record_click(impression.user_id, impression.ad_id)
        trace = capture_trace(platform)
        clicks = trace.of_kind("click")
        assert len(clicks) == 1
        assert clicks[0]["ad_id"] == impression.ad_id
        assert clicks[0]["user_id"] == impression.user_id
        assert clicks[0]["click_seq"] == 0
        assert clicks[0]["visibility"] == "platform-internal"

    def test_click_round_trip(self, traced, platform):
        _, _ = traced
        impression = platform.delivery.impressions()[0]
        platform.delivery.record_click(impression.user_id, impression.ad_id)
        trace = capture_trace(platform)
        restored = load_jsonl(dump_jsonl(trace))
        assert restored.of_kind("click") == trace.of_kind("click")

    def test_no_clicks_no_click_events(self, traced):
        _, trace = traced
        assert trace.of_kind("click") == []


class TestMergeEventStream:
    def test_merges_typed_events(self):
        trace = Trace(header={"schema": 1})
        record = ImpressionRecorded(seq=0, ad_id="ad-1",
                                    account_id="acct-1", user_id="u-1",
                                    price=0.002)
        result = merge_event_stream(trace, [record])
        assert result is trace
        assert trace.events == [{
            "kind": "impression", "seq": 0, "ad_id": "ad-1",
            "account_id": "acct-1", "user_id": "u-1", "price": 0.002,
            "visibility": "journal",
        }]

    def test_merges_plain_dicts_preserving_visibility(self):
        trace = Trace()
        merge_event_stream(trace, [
            {"kind": "click", "ad_id": "ad-2",
             "visibility": "custom"},
        ])
        assert trace.events[0]["visibility"] == "custom"

    def test_header_records_rejected(self):
        with pytest.raises(ValueError):
            merge_event_stream(Trace(), [{"kind": "header", "schema": 1}])

    def test_journal_records_round_trip(self, platform, web):
        provider = TransparencyProvider(platform, web, budget=100.0)
        attr = platform.catalog.partner_attributes()[0]
        user = platform.register_user()
        user.set_attribute(attr)
        provider.optin.via_page_like(user.user_id)
        provider.launch_attribute_sweep([attr])
        provider.run_delivery()
        trace = merge_event_stream(capture_trace(platform),
                                   platform.store.records())
        by_visibility = {}
        for event in trace.of_kind("impression"):
            fields = {k: v for k, v in event.items() if k != "visibility"}
            by_visibility.setdefault(event["visibility"], []).append(fields)
        journal = by_visibility["journal"]
        assert journal == by_visibility["platform-internal"]
        assert len(journal) > 0
        restored = load_jsonl(dump_jsonl(trace))
        assert restored.events == trace.events


class TestRoundTrip:
    def test_dump_load_identity(self, traced):
        _, trace = traced
        restored = load_jsonl(dump_jsonl(trace))
        assert restored.header == trace.header
        assert restored.events == trace.events

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            load_jsonl("")

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError):
            load_jsonl('{"kind": "impression"}')

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError):
            load_jsonl('{"kind": "header", "schema": 99}')


class TestDownstreamAnalysis:
    def test_spend_buckets(self, traced):
        _, trace = traced
        buckets = spend_by_day_of_seq(trace, seqs_per_day=2)
        assert sum(buckets.values()) == pytest.approx(
            sum(e["amount"] for e in trace.of_kind("charge"))
        )

    def test_bad_bucket_size_rejected(self):
        with pytest.raises(ValueError):
            spend_by_day_of_seq(Trace(), seqs_per_day=0)
