"""The gateway application: routing and request handlers.

:meth:`GatewayApp.handle` is deliberately **synchronous** and runs on
the server's event-loop thread: routing, tenancy mutations, and
``runtime.submit`` all complete before the next pipelined request on
the same connection is parsed — so admission order equals arrival
order, which is what makes an HTTP-driven run reproduce the in-process
load generator's delivery byte-for-byte. Ad-serve requests return a
:class:`PendingServe` (the runtime's future plus response metadata)
that the connection's writer awaits — an ``asyncio.Future`` of the
runtime's loop, which the server runs on — and everything else returns
a finished :class:`Done` response.

Failure mapping (see ``docs/service.md``): parse errors and bad input
are 4xx with a structured error body, SHED is 429 with ``Retry-After``,
deadline TIMEOUT is 504, a serving-side exception is 500 — and an
unexpected handler exception is logged server-side and answered with an
opaque 500, never a stack trace.
"""

from __future__ import annotations

import asyncio
import logging
import re
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.errors import ReproError
from repro.gateway.http import HttpError, Request, error_body, json_body
from repro.gateway.tenancy import TenantRegistry
from repro.gateway.world import WorldManifest
from repro.obs import export as obs_export
from repro.obs.metrics import registry as obs_registry
from repro.obs.slo import SLOSpec, evaluate_report, parse_slo
from repro.platform.platform import AdPlatform
from repro.serve import AdRequest, ServeResult, ServeStatus, ServingRuntime
from repro.store.audit import canonical_json, state_report

_log = logging.getLogger(__name__)


@dataclass
class Done:
    """A finished response."""

    status: int
    body: bytes
    content_type: str = "application/json"
    extra_headers: Dict[str, str] = field(default_factory=dict)


@dataclass
class PendingServe:
    """An admitted ad request whose result is still in flight."""

    #: ``asyncio.Future`` when submitted on the runtime's loop (the
    #: server's), else ``concurrent.futures.Future``.
    future: "Union[asyncio.Future[ServeResult], Future[ServeResult]]"


Outcome = Union[Done, PendingServe]

#: ServeStatus -> HTTP status for resolved ad requests.
SERVE_STATUS_HTTP: Dict[ServeStatus, int] = {
    ServeStatus.SERVED: 200,
    ServeStatus.SHED: 429,
    ServeStatus.TIMEOUT: 504,
    ServeStatus.ERROR: 500,
}


def serve_result_response(result: ServeResult) -> Done:
    """Map one resolved :class:`ServeResult` onto the wire."""
    status = SERVE_STATUS_HTTP[result.status]
    if result.status is ServeStatus.SERVED:
        response = result.response
        assert response is not None
        return Done(status, json_body({
            "status": result.status.value,
            "user_id": response.user_id,
            "ad_ids": list(response.ad_ids),
            "lost_to_competition": response.lost_to_competition,
            "unfilled": response.unfilled,
            "shard": result.shard_index,
            "batch_size": result.batch_size,
        }))
    extra: Dict[str, str] = {}
    if result.status is ServeStatus.SHED:
        extra["Retry-After"] = "1"
    codes = {ServeStatus.SHED: "shed",
             ServeStatus.TIMEOUT: "deadline_exceeded"}
    code = codes.get(result.status, "serve_error")
    message = result.error or f"request resolved {result.status.value}"
    return Done(status, error_body(code, message), extra_headers=extra)


class GatewayApp:
    """Routes parsed requests to handlers over one serving world."""

    def __init__(self, platform: AdPlatform, runtime: ServingRuntime,
                 tenants: TenantRegistry, manifest: WorldManifest,
                 slo_spec: Optional[SLOSpec] = None):
        self.platform = platform
        self.runtime = runtime
        self.tenants = tenants
        self.manifest = manifest
        self.slo_spec = slo_spec
        reg = obs_registry()
        self._m_requests = reg.counter("gateway.requests")
        self._routes: List[Tuple[str, "re.Pattern[str]",
                                 Callable[..., Outcome]]] = []
        #: ``(method, path) -> handler`` for templates without
        #: parameters: the hot ``POST /v1/serve`` skips the pattern scan.
        self._exact: Dict[Tuple[str, str], Callable[..., Outcome]] = {}
        route = self._add_route
        route("GET", "/healthz", self._get_healthz)
        route("GET", "/metrics", self._get_metrics)
        route("GET", "/v1/slo", self._get_slo)
        route("GET", "/v1/state", self._get_state)
        route("GET", "/v1/users", self._get_users)
        route("GET", "/v1/config", self._get_config)
        route("POST", "/v1/serve", self._post_serve)
        route("POST", "/v1/orgs", self._post_orgs)
        route("GET", "/v1/orgs", self._get_orgs)
        route("GET", "/v1/orgs/{org}", self._get_org)
        route("POST", "/v1/orgs/{org}/campaigns", self._post_campaigns)
        route("GET", "/v1/orgs/{org}/campaigns", self._get_campaigns)
        route("GET", "/v1/orgs/{org}/campaigns/{campaign}",
              self._get_campaign)
        route("POST", "/v1/orgs/{org}/campaigns/{campaign}/pause",
              self._post_pause)
        route("POST", "/v1/audiences", self._post_audiences)
        route("GET", "/v1/audiences", self._get_audiences)
        route("GET", "/v1/audiences/{audience}", self._get_audience)
        route("GET", "/v1/reports/{ad}", self._get_report)
        route("GET", "/v1/explanations", self._get_explanation)

    def _add_route(self, method: str, template: str,
                   handler: Callable[..., Outcome]) -> None:
        pattern = re.compile(
            "^" + re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", template) + "$")
        self._routes.append((method, pattern, handler))
        if "{" not in template:
            self._exact[(method, template)] = handler

    # -- dispatch ----------------------------------------------------------

    def handle(self, request: Request) -> Outcome:
        """Route one request; never raises."""
        self._m_requests.inc()
        exact = self._exact.get((request.method, request.path))
        if exact is not None:
            return self._call(exact, request, {})
        methods_seen = []
        for method, pattern, handler in self._routes:
            match = pattern.match(request.path)
            if match is None:
                continue
            if method != request.method:
                methods_seen.append(method)
                continue
            return self._call(handler, request, match.groupdict())
        if methods_seen:
            return Done(405, error_body(
                "method_not_allowed",
                f"{request.path} accepts {sorted(set(methods_seen))}, "
                f"not {request.method}"))
        return Done(404, error_body(
            "not_found", f"no route for {request.path}"))

    def _call(self, handler: Callable[..., Outcome], request: Request,
              params: Dict[str, str]) -> Outcome:
        try:
            return handler(request, **params)
        except HttpError as exc:
            return Done(exc.status, error_body(exc.code, exc.message))
        except ReproError as exc:
            return Done(400, error_body(type(exc).__name__, str(exc)))
        except Exception:  # noqa: BLE001 - never leak a traceback
            _log.exception("unhandled error in %s %s",
                           request.method, request.path)
            return Done(500, error_body(
                "internal_error", "unexpected server error"))

    # -- operational endpoints ---------------------------------------------

    def _get_healthz(self, request: Request) -> Done:
        running = self.runtime.running
        return Done(200 if running else 503, json_body({
            "status": "ok" if running else "starting",
            "backend": self.runtime.config.backend,
            "shards": self.runtime.router.num_shards,
        }))

    def _get_metrics(self, request: Request) -> Done:
        text = obs_export.to_prometheus(self.runtime.live_metrics())
        return Done(200, text.encode("utf-8"),
                    content_type="text/plain; version=0.0.4")

    def _get_slo(self, request: Request) -> Done:
        raw = request.query.get("spec")
        if raw is not None:
            try:
                spec = parse_slo(raw)
            except ValueError as exc:
                raise HttpError(400, "bad_slo_spec", str(exc)) from None
        else:
            spec = self.slo_spec
        if spec is None:
            raise HttpError(400, "no_slo_spec",
                            "pass ?spec=p99=5ms,availability=99% or "
                            "start the gateway with --slo")
        live = self.runtime.live_metrics()
        evaluation = evaluate_report(_LiveReport(live), spec)
        return Done(200, json_body({
            "spec": spec.describe(),
            **evaluation.summary(),
        }))

    def _get_state(self, request: Request) -> Done:
        report = state_report(self.runtime.router)
        return Done(200, canonical_json(report).encode("utf-8"))

    def _get_users(self, request: Request) -> Done:
        return Done(200, json_body(
            {"user_ids": list(self.platform.users.user_ids())}))

    def _get_config(self, request: Request) -> Done:
        return Done(200, json_body(self.manifest.to_dict()))

    # -- ad serving --------------------------------------------------------

    def _post_serve(self, request: Request) -> Outcome:
        body = request.json()
        user_id = body.get("user_id")
        if not isinstance(user_id, str) or not user_id:
            raise HttpError(400, "missing_user_id",
                            "body needs a non-empty string user_id")
        slots = body.get("slots", 1)
        deadline_ms = body.get("deadline_ms")
        if not isinstance(slots, int) or isinstance(slots, bool):
            raise HttpError(400, "bad_slots",
                            "slots must be an integer")
        if deadline_ms is not None and (
                isinstance(deadline_ms, bool)
                or not isinstance(deadline_ms, (int, float))):
            raise HttpError(400, "bad_deadline",
                            "deadline_ms must be a number")
        if user_id not in self.platform.users:
            raise HttpError(404, "unknown_user",
                            f"unknown user {user_id!r}")
        try:
            ad_request = AdRequest(
                user_id=user_id,
                slots=slots,
                deadline_s=(deadline_ms / 1000.0
                            if deadline_ms is not None else None),
            )
        except ValueError as exc:
            raise HttpError(400, "bad_request", str(exc)) from None
        return PendingServe(future=self.runtime.submit(ad_request))

    # -- tenancy: orgs -----------------------------------------------------

    def _post_orgs(self, request: Request) -> Done:
        body = request.json()
        name = body.get("name")
        if not isinstance(name, str) or not name.strip():
            raise HttpError(400, "missing_name",
                            "body needs a non-empty string name")
        budget = body.get("budget", 0.0)
        if isinstance(budget, bool) \
                or not isinstance(budget, (int, float)) or budget < 0:
            raise HttpError(400, "bad_budget",
                            "budget must be a non-negative number")
        record = self.tenants.create_org(name.strip(), float(budget))
        return Done(201, json_body(self._org_view(record.org_id)))

    def _get_orgs(self, request: Request) -> Done:
        return Done(200, json_body({
            "orgs": [self._org_view(r.org_id)
                     for r in self.tenants.orgs()],
        }))

    def _get_org(self, request: Request, org: str) -> Done:
        self._resolve_org(org)
        return Done(200, json_body(self._org_view(org)))

    # -- tenancy: campaigns ------------------------------------------------

    def _post_campaigns(self, request: Request, org: str) -> Done:
        self._resolve_org(org)
        body = request.json()
        name = body.get("name")
        if not isinstance(name, str) or not name.strip():
            raise HttpError(400, "missing_name",
                            "body needs a non-empty string name")
        record = self.tenants.create_campaign(org, name.strip())
        return Done(201,
                    json_body(self._campaign_view(record.campaign_id)))

    def _get_campaigns(self, request: Request, org: str) -> Done:
        self._resolve_org(org)
        return Done(200, json_body({
            "campaigns": [self._campaign_view(c.campaign_id)
                          for c in self.tenants.campaigns_for(org)],
        }))

    def _get_campaign(self, request: Request, org: str,
                      campaign: str) -> Done:
        self._resolve_campaign(org, campaign)
        return Done(200, json_body(self._campaign_view(campaign)))

    def _post_pause(self, request: Request, org: str,
                    campaign: str) -> Done:
        self._resolve_campaign(org, campaign)
        self.tenants.pause_campaign(org, campaign)
        return Done(200, json_body(self._campaign_view(campaign)))

    # -- tenancy: audiences ------------------------------------------------

    def _post_audiences(self, request: Request) -> Done:
        body = request.json()
        org_id = body.get("org_id")
        if not isinstance(org_id, str):
            raise HttpError(400, "missing_org_id",
                            "body needs a string org_id")
        self._resolve_org(org_id)
        name = body.get("name", "")
        if not isinstance(name, str):
            raise HttpError(400, "bad_name", "name must be a string")
        phrases = body.get("phrases")
        if not isinstance(phrases, list) or not phrases \
                or not all(isinstance(p, str) and p.strip()
                           for p in phrases):
            raise HttpError(400, "bad_phrases",
                            "phrases must be a non-empty list of "
                            "non-empty strings")
        record = self.tenants.create_audience(
            org_id, name, tuple(phrases))
        return Done(201,
                    json_body(self._audience_view(record.audience_id)))

    def _get_audiences(self, request: Request) -> Done:
        org_id = request.query.get("org")
        if org_id is not None:
            self._resolve_org(org_id)
        return Done(200, json_body({
            "audiences": [self._audience_view(a.audience_id)
                          for a in self.tenants.audiences(org_id)],
        }))

    def _get_audience(self, request: Request, audience: str) -> Done:
        self._resolve_audience(audience)
        return Done(200, json_body(self._audience_view(audience)))

    # -- transparency: reports + explanations ------------------------------

    def _get_report(self, request: Request, ad: str) -> Done:
        try:
            self.platform.inventory.ad(ad)
        except ReproError:
            raise HttpError(404, "unknown_ad",
                            f"unknown ad {ad!r}") from None
        router = self.runtime.router
        return Done(200, json_body({
            "ad_id": ad,
            "impressions": router.impressions_for_ad(ad),
            "clicks": router.clicks_for_ad(ad),
            "reach": router.reach_count(ad),
            "spend": round(router.spend_for_ad(ad), 10),
        }))

    def _get_explanation(self, request: Request) -> Done:
        user_id = request.query.get("user")
        ad_id = request.query.get("ad")
        if not user_id or not ad_id:
            raise HttpError(400, "missing_params",
                            "pass ?user=<user_id>&ad=<ad_id>")
        try:
            explanation = self.platform.explain_ad(user_id, ad_id)
        except ReproError as exc:
            raise HttpError(404, "unknown_user_or_ad",
                            str(exc)) from None
        return Done(200, json_body({
            "ad_id": explanation.ad_id,
            "text": explanation.text,
            "revealed_attribute": explanation.revealed_attribute,
            "mentions_customer_list":
                explanation.mentions_customer_list,
            "demographic_clauses":
                list(explanation.demographic_clauses),
        }))

    # -- views + lookups ---------------------------------------------------

    def _resolve_org(self, org_id: str):
        try:
            return self.tenants.org(org_id)
        except ReproError:
            raise HttpError(404, "unknown_org",
                            f"unknown org {org_id!r}") from None

    def _resolve_campaign(self, org_id: str, campaign_id: str):
        self._resolve_org(org_id)
        try:
            record = self.tenants.campaign(campaign_id)
        except ReproError:
            raise HttpError(404, "unknown_campaign",
                            f"unknown campaign {campaign_id!r}"
                            ) from None
        if record.org_id != org_id:
            raise HttpError(404, "unknown_campaign",
                            f"campaign {campaign_id!r} does not belong "
                            f"to org {org_id!r}")
        return record

    def _resolve_audience(self, audience_id: str):
        try:
            return self.tenants.audience(audience_id)
        except ReproError:
            raise HttpError(404, "unknown_audience",
                            f"unknown audience {audience_id!r}"
                            ) from None

    def _org_view(self, org_id: str) -> Dict[str, object]:
        record = self.tenants.org(org_id)
        account = self.platform.inventory.account(record.account_id)
        return {
            "org_id": record.org_id,
            "name": record.name,
            "account_id": record.account_id,
            "budget": record.budget,
            "budget_remaining": account.budget,
            "campaigns": len(self.tenants.campaigns_for(org_id)),
            "audiences": len(self.tenants.audiences(org_id)),
        }

    def _campaign_view(self, campaign_id: str) -> Dict[str, object]:
        record = self.tenants.campaign(campaign_id)
        ads = self.platform.inventory.ads_in_campaign(campaign_id)
        return {
            "org_id": record.org_id,
            "campaign_id": record.campaign_id,
            "name": record.name,
            "paused": self.tenants.is_paused(campaign_id),
            "ad_ids": [ad.ad_id for ad in ads],
        }

    def _audience_view(self, audience_id: str) -> Dict[str, object]:
        record = self.tenants.audience(audience_id)
        size = self.platform.audiences.membership_count(audience_id)
        return {
            "org_id": record.org_id,
            "audience_id": record.audience_id,
            "name": record.name,
            "phrases": list(record.phrases),
            "size": size,
        }


class _LiveReport:
    """Adapter: a live registry scored like a finished load report."""

    def __init__(self, live) -> None:
        self.latency = (live.get("serve.request_latency_s")
                        or live.histogram("serve.request_latency_s"))
        self.tally = _LiveTally(
            submitted=int(live.value("serve.requests_submitted")),
            served=int(live.value("serve.requests_served")),
        )


class _LiveTally:
    def __init__(self, submitted: int, served: int) -> None:
        self.submitted = submitted
        self.served = served
