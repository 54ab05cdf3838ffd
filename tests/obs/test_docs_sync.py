"""Diffs docs/observability.md against the repro.obs.names catalog.

Both directions: every registered metric/span must appear in the
doc, and every instrument-shaped name the doc mentions must exist in
the catalog — adding an instrument without documenting it (or
documenting a phantom) fails here.
"""

import re
from pathlib import Path

import pytest

from repro.obs import names

DOC_PATH = Path(__file__).resolve().parents[2] / "docs" / "observability.md"

#: Backticked tokens that look like instrument names: dotted lowercase
#: words (metrics, spans) — `serve_slot`-style spans are matched
#: separately because bare snake_case collides with field names.
_DOTTED = re.compile(r"`([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+)`")


@pytest.fixture(scope="module")
def doc_text():
    return DOC_PATH.read_text(encoding="utf-8")


def _section(doc_text, heading):
    """The doc text between ``heading`` and the next same-level heading."""
    pattern = re.compile(
        rf"^## {re.escape(heading)}$(.*?)(?=^## |\Z)",
        re.MULTILINE | re.DOTALL,
    )
    match = pattern.search(doc_text)
    assert match, f"docs/observability.md lost its '{heading}' section"
    return match.group(1)


class TestMetricCatalog:
    def test_every_metric_documented(self, doc_text):
        section = _section(doc_text, "Metric catalog")
        missing = [name for name in names.METRICS
                   if f"`{name}`" not in section]
        assert not missing, f"metrics missing from docs: {missing}"

    def test_no_phantom_metrics_documented(self, doc_text):
        section = _section(doc_text, "Metric catalog")
        documented = set(_DOTTED.findall(section))
        phantoms = documented - set(names.METRICS)
        assert not phantoms, f"docs mention unknown metrics: {phantoms}"

    def test_documented_kinds_match_catalog(self, doc_text):
        section = _section(doc_text, "Metric catalog")
        for line in section.splitlines():
            match = re.match(r"\| `([a-z0-9_.]+)` \| (\w+) \|", line)
            if not match:
                continue
            name, kind = match.groups()
            assert names.METRICS[name].kind == kind, (
                f"{name} documented as {kind}, "
                f"registered as {names.METRICS[name].kind}"
            )


class TestSpanAndEventCatalogs:
    def test_every_span_documented(self, doc_text):
        section = _section(doc_text, "Span names")
        missing = [name for name in names.SPANS
                   if f"`{name}`" not in section]
        assert not missing, f"spans missing from docs: {missing}"

    def test_no_phantom_spans_documented(self, doc_text):
        section = _section(doc_text, "Span names")
        documented = {m.group(1) for m in
                      re.finditer(r"^\| `([a-z0-9_.]+)` \|", section,
                                  re.MULTILINE)}
        phantoms = documented - set(names.SPANS)
        assert not phantoms, f"docs mention unknown spans: {phantoms}"

    def test_catalog_tables_reference_each_other(self, doc_text):
        # The doc must name its enforcement test and the names module,
        # so a reader knows where the authoritative tables live.
        assert "repro.obs.names" in doc_text
        assert "test_docs_sync" in doc_text


class TestServingInstrumentation:
    """The serving runtime's instruments exist and are documented.

    The generic both-direction diffs above already catch drift; these
    pins name the serve instruments explicitly so a refactor that drops
    them (or renames the layer prefix) fails with a message that says
    which serving signal vanished.
    """

    SERVE_METRICS = (
        "serve.requests_submitted",
        "serve.requests_served",
        "serve.requests_shed",
        "serve.requests_timeout",
        "serve.requests_errored",
        "serve.errors",
        "serve.queue_depth",
        "serve.batch_size",
        "serve.request_latency_s",
        "serve.service_time_s",
        "serve.ipc_batches",
        "serve.ipc_bytes",
        "serve.workers_lost",
        "serve.telemetry_polls",
        "serve.trace_spans_merged",
        "slo.availability",
        "slo.error_budget_burn_rate",
    )
    SERVE_SPANS = ("serve.batch", "serve.request", "serve.queue_wait",
                   "serve.engine", "serve.ipc_roundtrip", "loadgen.run")

    def test_serve_metrics_registered(self):
        for name in self.SERVE_METRICS:
            assert name in names.METRICS, f"{name} left the catalog"

    def test_serve_metrics_documented(self, doc_text):
        section = _section(doc_text, "Metric catalog")
        for name in self.SERVE_METRICS:
            assert f"`{name}`" in section, f"{name} undocumented"

    def test_serve_spans_registered_and_documented(self, doc_text):
        section = _section(doc_text, "Span names")
        for name in self.SERVE_SPANS:
            assert name in names.SPANS, f"{name} left the catalog"
            assert f"`{name}`" in section, f"{name} undocumented"

    def test_latency_histogram_uses_latency_buckets(self):
        spec = names.METRICS["serve.request_latency_s"]
        assert spec.kind == names.HISTOGRAM
        assert spec.buckets == names.LATENCY_BUCKETS
