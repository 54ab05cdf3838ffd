"""Spans around the program's public functions, installed from outside.

Nothing under ``src/`` changes: the traced runs wrap public functions
(and the module attributes that imported them by name) so each call
records a span on the program's own tracer. The tracer's epoch is the
raw ``perf_counter`` zero, so span times are on the same monotonic clock
as the driver's timestamps, in every process (forked workers inherit
the epoch).
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Callable, Dict, List, Optional

TENANCY_JOURNAL = "gateway.jsonl"


def _wrap(owner: object, name: str,
          make: Callable[[Callable], Callable]) -> None:
    original = getattr(owner, name)
    wrapped = make(original)
    functools.update_wrapper(wrapped, original)
    setattr(owner, name, wrapped)


def _spanned(span_name: str) -> Callable[[Callable], Callable]:
    def make(original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            from repro.obs.tracing import tracer
            with tracer().span(span_name):
                return original(*args, **kwargs)
        return wrapper
    return make


class GatewayHooks:
    """Wrappers for the traced ``repro gateway`` (see gateway_shim.py)."""

    def __init__(self) -> None:
        self.setup: Dict[str, float] = {}

    def install(self) -> None:
        import repro.cli
        from repro.core.provider import TransparencyProvider
        from repro.gateway import server, tenancy
        from repro.obs.tracing import Tracer
        from repro.store.store import JournalStore
        from repro.workloads.population import PopulationBuilder

        repro.cli.Tracer = functools.partial(Tracer, epoch=0.0)
        self._timed(PopulationBuilder, "spawn_mix", "population.spawn_s")
        self._timed(TransparencyProvider, "launch_partner_sweep",
                    "provider.launch_s")
        _wrap(server, "read_request", _timed_read)
        _wrap(server, "render_response", _spanned_write)
        for method in ("create_org", "create_campaign", "pause_campaign",
                       "create_audience"):
            _wrap(tenancy.TenantRegistry, method,
                  _spanned("gateway.tenancy.mutation"))
        _wrap(JournalStore, "append", _journal_span("append"))
        _wrap(JournalStore, "flush", _journal_span("flush"))

    def _timed(self, owner: object, name: str, key: str) -> None:
        setup = self.setup

        def make(original: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                started = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    setup[key] = (setup.get(key, 0.0)
                                  + time.perf_counter() - started)
            return wrapper
        _wrap(owner, name, make)


def _timed_read(original: Callable) -> Callable:
    """Parse time of one request: from the moment its head is buffered
    to the parsed ``Request``, minus any wait for body bytes. Waiting
    for the next request on an idle keep-alive connection is not parse
    time, so the clock starts when ``readuntil`` returns."""

    class _Reader:
        def __init__(self, reader) -> None:
            self._reader = reader
            self.head_at: Optional[float] = None
            self.waited = 0.0

        async def readuntil(self, separator):
            data = await self._reader.readuntil(separator)
            self.head_at = time.perf_counter()
            return data

        async def readexactly(self, n):
            started = time.perf_counter()
            data = await self._reader.readexactly(n)
            self.waited += time.perf_counter() - started
            return data

        def __getattr__(self, name):
            return getattr(self._reader, name)

    async def wrapper(reader, *args, **kwargs):
        from repro.obs.tracing import tracer
        proxy = _Reader(reader)
        request = await original(proxy, *args, **kwargs)
        if request is not None and proxy.head_at is not None:
            trc = tracer()
            end = time.perf_counter() - proxy.waited
            trc.record_span("gateway.http.parse", trc.offset(proxy.head_at),
                            trc.offset(max(end, proxy.head_at)),
                            path=request.path)
        return request
    return wrapper


#: Body fragments that mark a response to ``POST /v1/serve`` (served,
#: shed, timed out, or failed in serving).
SERVE_MARKS = (b'"batch_size"', b'"code": "shed"',
               b'"code": "deadline_exceeded"', b'"code": "serve_error"')


def _spanned_write(original: Callable) -> Callable:
    def wrapper(status, body, *args, **kwargs):
        from repro.obs.tracing import tracer
        kind = ("serve" if any(mark in body for mark in SERVE_MARKS)
                else "other")
        with tracer().span("gateway.http.write", kind=kind):
            return original(status, body, *args, **kwargs)
    return wrapper


def _journal_span(verb: str) -> Callable[[Callable], Callable]:
    def make(original: Callable) -> Callable:
        def wrapper(self, *args, **kwargs):
            from repro.obs.tracing import tracer
            if self.path.endswith(TENANCY_JOURNAL):
                name = f"store.tenancy_{verb}"
            elif verb == "flush":
                name = "store.shard_flush"
            else:
                return original(self, *args, **kwargs)
            with tracer().span(name):
                return original(self, *args, **kwargs)
        return wrapper
    return make


# -- the sweep -----------------------------------------------------------

#: Counters a parsweep worker reports back (its registry dies with it).
SWEEP_COUNTERS = (
    "delivery.sweep_rounds",
    "delivery.sweep_budget_fallback_rounds",
    "delivery.sweep_fallback_specs",
    "targeting.specs_lowered",
    "targeting.lower_fallbacks",
)


class SweepHooks:
    """Wrappers for one traced sweep repetition (a forked child).

    Parent-side spans land on the repetition's tracer; each forked
    parsweep worker writes its own spans and counters to
    ``trace_dir/worker-<pid>.json`` when its ``sweep_slots`` returns.
    """

    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.pid = os.getpid()
        self.tracer = None
        self.counters: Dict[str, float] = {}

    def install(self) -> None:
        from repro.obs import tracing
        from repro.obs.metrics import registry
        from repro.platform import delivery, parsweep, targeting
        from repro.platform.audiences import AudienceRegistry

        for name in os.listdir(self.trace_dir):
            os.unlink(os.path.join(self.trace_dir, name))
        self.counters = {n: registry().value(n) for n in SWEEP_COUNTERS}
        self.tracer = tracing.Tracer(epoch=0.0)
        tracing.set_tracer(self.tracer)
        lower = _spanned("targeting.lower_spec")
        for module in (targeting, delivery, parsweep):
            _wrap(module, "lower_spec", lower)
        _wrap(parsweep, "certify_budgets",
              _spanned("parsweep.certify_budgets"))
        _wrap(AudienceRegistry, "member_bitset_cached",
              _spanned("audiences.member_bitset_cached"))
        _wrap(delivery.DeliveryEngine, "absorb_sweep_delta",
              _spanned("delivery.absorb_sweep_delta"))
        _wrap(delivery.DeliveryEngine, "sweep_slots", self._worker_sweep)

    def _worker_sweep(self, original: Callable) -> Callable:
        hooks = self

        def wrapper(engine, rows=None, *args, **kwargs):
            from repro.obs.metrics import registry
            if os.getpid() == hooks.pid:
                with hooks.tracer.span("delivery.sweep_slots"):
                    return original(engine, rows, *args, **kwargs)
            reg = registry()
            before = {n: reg.value(n) for n in SWEEP_COUNTERS}
            first = len(hooks.tracer.spans)
            with hooks.tracer.span("delivery.sweep_slots",
                                   rows=list(rows or ())):
                result = original(engine, rows, *args, **kwargs)
            spans = [s.record() for s in hooks.tracer.spans[first:]]
            counters = {n: reg.value(n) - before[n] for n in SWEEP_COUNTERS}
            path = os.path.join(hooks.trace_dir,
                                f"worker-{os.getpid()}.json")
            with open(path, "w", encoding="utf-8") as stream:
                json.dump({"rows": list(rows or ()), "spans": spans,
                           "counters": counters}, stream)
            return result
        return wrapper

    def finish(self) -> Dict[str, object]:
        """Parent spans plus every worker's spans and counters."""
        workers: List[Dict[str, object]] = []
        for name in sorted(os.listdir(self.trace_dir)):
            with open(os.path.join(self.trace_dir, name),
                      encoding="utf-8") as stream:
                workers.append(json.load(stream))
        workers.sort(key=lambda w: w["rows"])
        from repro.obs.metrics import registry
        counters = {n: registry().value(n) - self.counters[n]
                    for n in SWEEP_COUNTERS}
        return {"spans": [s.record() for s in self.tracer.spans],
                "counters": counters, "workers": workers}
