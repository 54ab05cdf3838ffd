"""GatewayApp: routing, handlers, views, and failure mapping.

Drives :meth:`GatewayApp.handle` directly with parsed
:class:`Request` objects — no sockets — so these cover the
application contract fast; the wire is covered in ``test_http.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.gateway import Done, PendingServe, Request
from repro.gateway.app import serve_result_response
from repro.obs.slo import parse_slo
from repro.platform.attributes import AttributeKind
from repro.serve import ServeStatus
from repro.store.audit import canonical_json, state_report


def req(method: str, path: str, payload=None, query=None) -> Request:
    body = b"" if payload is None else json.dumps(payload).encode()
    return Request(method=method, path=path, query=query or {},
                   headers={}, body=body)


def body_of(done: Done) -> dict:
    assert isinstance(done, Done)
    return json.loads(done.body)


def code_of(done: Done) -> str:
    return body_of(done)["error"]["code"]


class TestOperational:
    def test_healthz_running(self, gateway_stack):
        app = gateway_stack(serve=False).app
        done = app.handle(req("GET", "/healthz"))
        assert done.status == 200
        assert body_of(done)["status"] == "ok"

    def test_healthz_not_running_is_503(self, gateway_stack):
        stack = gateway_stack(serve=False)
        stack.runtime.stop()
        done = stack.app.handle(req("GET", "/healthz"))
        assert done.status == 503

    def test_metrics_is_prometheus_text(self, gateway_stack):
        app = gateway_stack(serve=False).app
        done = app.handle(req("GET", "/metrics"))
        assert done.status == 200
        assert done.content_type.startswith("text/plain")
        assert b"# TYPE" in done.body

    def test_config_echoes_manifest(self, gateway_stack):
        stack = gateway_stack(serve=False)
        done = stack.app.handle(req("GET", "/v1/config"))
        assert body_of(done) == stack.app.manifest.to_dict()

    def test_state_is_canonical_report(self, gateway_stack):
        stack = gateway_stack(serve=False)
        done = stack.app.handle(req("GET", "/v1/state"))
        expected = canonical_json(state_report(stack.runtime.router))
        assert done.body.decode("utf-8") == expected

    def test_slo_with_query_spec(self, gateway_stack):
        stack = gateway_stack(serve=False)
        self._serve_one(stack)
        done = stack.app.handle(req(
            "GET", "/v1/slo",
            query={"spec": "p99=5s,availability=1%"}))
        data = body_of(done)
        assert data["ok"] is True
        assert data["resolved"] >= 1

    def test_slo_without_spec_is_400(self, gateway_stack):
        app = gateway_stack(serve=False).app
        done = app.handle(req("GET", "/v1/slo"))
        assert done.status == 400
        assert code_of(done) == "no_slo_spec"

    def test_slo_server_default_spec(self, gateway_stack):
        stack = gateway_stack(serve=False,
                              slo_spec=parse_slo("availability=1%"))
        self._serve_one(stack)
        done = stack.app.handle(req("GET", "/v1/slo"))
        assert body_of(done)["ok"] is True

    def test_slo_bad_spec_is_400(self, gateway_stack):
        app = gateway_stack(serve=False).app
        done = app.handle(req("GET", "/v1/slo",
                              query={"spec": "nonsense"}))
        assert code_of(done) == "bad_slo_spec"

    @staticmethod
    def _serve_one(stack) -> None:
        user = next(iter(stack.platform.users.user_ids()))
        outcome = stack.app.handle(req("POST", "/v1/serve",
                                       {"user_id": user}))
        assert isinstance(outcome, PendingServe)
        outcome.future.result(timeout=10.0)


class TestServe:
    def test_serve_returns_pending_future(self, gateway_stack):
        stack = gateway_stack(serve=False)
        user = next(iter(stack.platform.users.user_ids()))
        outcome = stack.app.handle(req("POST", "/v1/serve",
                                       {"user_id": user}))
        assert isinstance(outcome, PendingServe)
        result = outcome.future.result(timeout=10.0)
        assert result.status is ServeStatus.SERVED
        done = serve_result_response(result)
        assert done.status == 200
        assert body_of(done)["user_id"] == user

    def test_unknown_user_is_404(self, gateway_stack):
        app = gateway_stack(serve=False).app
        done = app.handle(req("POST", "/v1/serve",
                              {"user_id": "ghost"}))
        assert done.status == 404
        assert code_of(done) == "unknown_user"

    def test_non_ascii_digit_user_is_404(self, gateway_stack):
        """A dense-id prefix plus a digit ``int()`` refuses ("²") is an
        unknown user, not a 500."""
        stack = gateway_stack(serve=False)
        user = next(iter(stack.platform.users.user_ids()))
        ghost = user.rstrip("0123456789") + "²"
        done = stack.app.handle(req("POST", "/v1/serve",
                                    {"user_id": ghost}))
        assert done.status == 404
        assert code_of(done) == "unknown_user"
        done = stack.app.handle(req("GET", "/v1/explanations",
                                    query={"user": ghost, "ad": "ghost"}))
        assert done.status == 404

    @pytest.mark.parametrize("payload,code", [
        ({}, "missing_user_id"),
        ({"user_id": 7}, "missing_user_id"),
        ({"user_id": "u", "slots": "three"}, "bad_slots"),
        ({"user_id": "u", "slots": True}, "bad_slots"),
        ({"user_id": "u", "deadline_ms": "soon"}, "bad_deadline"),
    ])
    def test_bad_serve_bodies(self, gateway_stack, payload, code):
        app = gateway_stack(serve=False).app
        done = app.handle(req("POST", "/v1/serve", payload))
        assert done.status == 400
        assert code_of(done) == code

    def test_shed_maps_to_429_with_retry_after(self):
        from repro.serve.requests import AdRequest, ServeResult

        done = serve_result_response(ServeResult(
            request=AdRequest(user_id="u"), status=ServeStatus.SHED,
            shard_index=0, error="queue full"))
        assert done.status == 429
        assert done.extra_headers["Retry-After"] == "1"

    def test_timeout_maps_to_504(self):
        from repro.serve.requests import AdRequest, ServeResult

        done = serve_result_response(ServeResult(
            request=AdRequest(user_id="u"), status=ServeStatus.TIMEOUT,
            shard_index=0))
        assert done.status == 504
        assert body_of(done)["error"]["code"] == "deadline_exceeded"


class TestTenancyRoutes:
    def test_org_crud_roundtrip(self, gateway_stack):
        app = gateway_stack(serve=False).app
        done = app.handle(req("POST", "/v1/orgs",
                              {"name": "acme", "budget": 250.0}))
        assert done.status == 201
        org = body_of(done)
        assert org["org_id"] == "org-1"
        assert org["budget"] == 250.0
        listing = body_of(app.handle(req("GET", "/v1/orgs")))
        assert [o["org_id"] for o in listing["orgs"]] == ["org-1"]
        one = body_of(app.handle(req("GET", "/v1/orgs/org-1")))
        assert one["name"] == "acme"

    def test_unknown_org_is_404(self, gateway_stack):
        app = gateway_stack(serve=False).app
        done = app.handle(req("GET", "/v1/orgs/org-99"))
        assert done.status == 404
        assert code_of(done) == "unknown_org"

    @pytest.mark.parametrize("payload,code", [
        ({}, "missing_name"),
        ({"name": "  "}, "missing_name"),
        ({"name": "a", "budget": -4}, "bad_budget"),
        ({"name": "a", "budget": True}, "bad_budget"),
    ])
    def test_bad_org_bodies(self, gateway_stack, payload, code):
        app = gateway_stack(serve=False).app
        done = app.handle(req("POST", "/v1/orgs", payload))
        assert done.status == 400
        assert code_of(done) == code

    def test_campaign_create_pause_flow(self, gateway_stack):
        app = gateway_stack(serve=False).app
        app.handle(req("POST", "/v1/orgs", {"name": "acme"}))
        done = app.handle(req("POST", "/v1/orgs/org-1/campaigns",
                              {"name": "launch"}))
        assert done.status == 201
        campaign = body_of(done)
        assert campaign["paused"] is False
        cid = campaign["campaign_id"]
        paused = body_of(app.handle(req(
            "POST", f"/v1/orgs/org-1/campaigns/{cid}/pause")))
        assert paused["paused"] is True
        listing = body_of(app.handle(req(
            "GET", "/v1/orgs/org-1/campaigns")))
        assert len(listing["campaigns"]) == 1

    def test_campaign_of_other_org_is_404(self, gateway_stack):
        app = gateway_stack(serve=False).app
        app.handle(req("POST", "/v1/orgs", {"name": "a"}))
        app.handle(req("POST", "/v1/orgs", {"name": "b"}))
        done = app.handle(req("POST", "/v1/orgs/org-1/campaigns",
                              {"name": "launch"}))
        cid = body_of(done)["campaign_id"]
        stolen = app.handle(req(
            "GET", f"/v1/orgs/org-2/campaigns/{cid}"))
        assert stolen.status == 404
        assert code_of(stolen) == "unknown_campaign"

    def test_audience_create_and_views(self, gateway_stack):
        app = gateway_stack(serve=False).app
        app.handle(req("POST", "/v1/orgs", {"name": "acme"}))
        done = app.handle(req("POST", "/v1/audiences", {
            "org_id": "org-1", "name": "runners",
            "phrases": ["running"]}))
        assert done.status == 201
        audience = body_of(done)
        assert audience["phrases"] == ["running"]
        aid = audience["audience_id"]
        one = body_of(app.handle(req("GET", f"/v1/audiences/{aid}")))
        assert one["name"] == "runners"
        listing = body_of(app.handle(req(
            "GET", "/v1/audiences", query={"org": "org-1"})))
        assert len(listing["audiences"]) == 1

    def test_audience_size_tracks_attribute_writes(self, gateway_stack):
        """The view's size is the epoch-cached member count; it agrees
        with the materialized member set before and after a write."""
        stack = gateway_stack(serve=False)
        app, platform = stack.app, stack.platform
        app.handle(req("POST", "/v1/orgs", {"name": "acme"}))
        phrase = "Travel"
        attribute = next(a for a in platform.catalog.search(phrase)
                         if a.kind is AttributeKind.BINARY)
        aid = body_of(app.handle(req("POST", "/v1/audiences", {
            "org_id": "org-1", "phrases": [phrase]})))["audience_id"]

        def size():
            return body_of(app.handle(req(
                "GET", f"/v1/audiences/{aid}")))["size"]

        before = size()
        assert before == len(platform.audiences.members(aid))
        members = platform.audiences.members(aid)
        outsider = next(view for view in platform.users
                        if view.user_id not in members)
        outsider.set_attribute(attribute)
        assert size() == before + 1 == len(platform.audiences.members(aid))

    @pytest.mark.parametrize("payload,code", [
        ({"phrases": ["x"]}, "missing_org_id"),
        ({"org_id": "org-1", "phrases": []}, "bad_phrases"),
        ({"org_id": "org-1", "phrases": ["ok", ""]}, "bad_phrases"),
        ({"org_id": "org-1", "phrases": "running"}, "bad_phrases"),
    ])
    def test_bad_audience_bodies(self, gateway_stack, payload, code):
        app = gateway_stack(serve=False).app
        app.handle(req("POST", "/v1/orgs", {"name": "acme"}))
        done = app.handle(req("POST", "/v1/audiences", payload))
        assert done.status == 400
        assert code_of(done) == code


class TestTransparency:
    def test_report_counts_served_impressions(self, gateway_stack):
        stack = gateway_stack(serve=False)
        user = next(iter(stack.platform.users.user_ids()))
        outcome = stack.app.handle(req("POST", "/v1/serve",
                                       {"user_id": user}))
        result = outcome.future.result(timeout=10.0)
        assert result.response and result.response.ad_ids
        ad_id = result.response.ad_ids[0]
        report = body_of(stack.app.handle(req(
            "GET", f"/v1/reports/{ad_id}")))
        assert report["impressions"] == 1
        assert report["reach"] == 1
        assert report["spend"] > 0

    def test_unknown_ad_report_is_404(self, gateway_stack):
        app = gateway_stack(serve=False).app
        done = app.handle(req("GET", "/v1/reports/ghost-ad"))
        assert done.status == 404
        assert code_of(done) == "unknown_ad"

    def test_explanation_roundtrip(self, gateway_stack):
        stack = gateway_stack(serve=False)
        user = next(iter(stack.platform.users.user_ids()))
        outcome = stack.app.handle(req("POST", "/v1/serve",
                                       {"user_id": user}))
        result = outcome.future.result(timeout=10.0)
        ad_id = result.response.ad_ids[0]
        done = stack.app.handle(req(
            "GET", "/v1/explanations",
            query={"user": user, "ad": ad_id}))
        assert done.status == 200
        assert body_of(done)["ad_id"] == ad_id
        assert body_of(done)["text"]

    def test_explanation_missing_params_is_400(self, gateway_stack):
        app = gateway_stack(serve=False).app
        done = app.handle(req("GET", "/v1/explanations"))
        assert done.status == 400
        assert code_of(done) == "missing_params"

    def test_explanation_unknown_ids_is_404(self, gateway_stack):
        app = gateway_stack(serve=False).app
        done = app.handle(req("GET", "/v1/explanations",
                              query={"user": "ghost", "ad": "ghost"}))
        assert done.status == 404


class TestFailureMapping:
    def test_handler_crash_is_opaque_500(self, gateway_stack, caplog):
        stack = gateway_stack(serve=False)
        stack.app._routes.insert(0, (
            "GET",
            __import__("re").compile("^/boom$"),
            lambda request: (_ for _ in ()).throw(RuntimeError("kaboom")),
        ))
        import logging

        with caplog.at_level(logging.ERROR, logger="repro.gateway.app"):
            done = stack.app.handle(req("GET", "/boom"))
        assert done.status == 500
        assert code_of(done) == "internal_error"
        assert "kaboom" not in done.body.decode()
        assert any("unhandled error" in r.message for r in caplog.records)
