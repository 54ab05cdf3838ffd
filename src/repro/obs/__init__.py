"""Observability: metrics, span tracing, exporters, SLOs.

PR 1 made the deliver-iff-match hot path fast; this package makes it
legible. One piece per module:

* :mod:`~repro.obs.metrics` — a process-wide but injectable
  :class:`MetricsRegistry` (counters, gauges, fixed-bucket histograms)
  with a shared no-op :data:`NULL_REGISTRY` for metrics-off runs;
* :mod:`~repro.obs.tracing` — monotonic-clock span tracing with
  parent/child nesting (``with tracing.tracer().span("serve_slot")``);
* :mod:`~repro.obs.export` — Prometheus text format, JSONL, and table
  renderings of a registry;
* :mod:`~repro.obs.timeseries` — a bounded ring buffer of timestamped
  registry samples (the live telemetry stream);
* :mod:`~repro.obs.slo` — service-level objectives parsed from
  ``p99=5ms,availability=99%`` strings, scored against load reports
  and the live time series (burn rate).

:mod:`~repro.obs.names` is the catalog every instrument name lives in;
``docs/observability.md`` is kept in sync with it by test.

"What exactly happened, in order" is not an obs signal: every
impression and click is a change record in the platform's state store
(``platform.store.records()``, see :mod:`repro.store`), journaled once
at commit time.

The instrumented layers (delivery, auction, targeting compiler,
platform facade, billing, provider, client) log through stdlib
``logging.getLogger("repro.<module>")`` at INFO/DEBUG — silent by
default, surfaced by the CLI's ``-v``.

Quick taste::

    from repro.obs import metrics, export

    reg = metrics.registry()
    # ... run any simulation ...
    print(export.to_table(reg))            # doctest: +SKIP
    prom_text = export.to_prometheus(reg)

Disable everything (e.g. for benchmarking the bare hot path) with
``REPRO_OBS=off`` in the environment, or scope it::

    with metrics.use_registry(metrics.NULL_REGISTRY):
        platform = AdPlatform()             # doctest: +SKIP
"""

from repro.obs import names
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    bind,
    registry,
    set_registry,
    use_registry,
)
from repro.obs.slo import (
    ObjectiveResult,
    SLOEvaluation,
    SLOObjective,
    SLOSpec,
    burn_rate,
    evaluate_report,
    parse_slo,
)
from repro.obs.timeseries import (
    MetricSample,
    TimeSeriesBuffer,
    histogram_delta,
    sample_registry,
)
from repro.obs.tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanContext,
    Tracer,
    chrome_trace_json,
    load_jsonl_spans,
    set_tracer,
    tracer,
    use_tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricSample",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullRegistry",
    "NullTracer",
    "ObjectiveResult",
    "SLOEvaluation",
    "SLOObjective",
    "SLOSpec",
    "Span",
    "SpanContext",
    "TimeSeriesBuffer",
    "Tracer",
    "bind",
    "burn_rate",
    "chrome_trace_json",
    "evaluate_report",
    "histogram_delta",
    "load_jsonl_spans",
    "names",
    "parse_slo",
    "registry",
    "sample_registry",
    "set_registry",
    "set_tracer",
    "tracer",
    "use_registry",
    "use_tracer",
]
