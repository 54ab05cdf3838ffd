"""CLI: ``repro serve`` and ``repro loadgen``."""

from __future__ import annotations

import json

from repro.cli import main
from repro.obs.tracing import load_jsonl_spans

FAST = ["--users", "40", "--duration", "0.3", "--rps", "150"]


class TestServeCommand:
    def test_serve_runs_and_reports(self, capsys):
        assert main(["serve", "--shards", "2", *FAST,
                     "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "repro serve" in out
        assert "2 x 1" in out
        assert "latency p50 / p95 / p99" in out
        assert "shard-0/2" in out
        assert "shard-1/2" in out

    def test_serve_trace_out(self, capsys, tmp_path):
        trace_file = tmp_path / "spans.jsonl"
        assert main(["serve", "--shards", "1", *FAST,
                     "--trace-out", str(trace_file)]) == 0
        spans = load_jsonl_spans(trace_file.read_text())
        names = {span.name for span in spans}
        assert "loadgen.run" in names
        assert "serve.batch" in names


class TestLoadgenCommand:
    def test_loadgen_runs_and_reports(self, capsys):
        assert main(["loadgen", "--shards", "2", *FAST,
                     "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "repro loadgen" in out
        assert "target / achieved rps" in out
        assert "p99 (ms)" in out

    def test_loadgen_seed_is_reproducible(self, capsys, tmp_path):
        """Same seed, same world, same offered count and tally."""
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["loadgen", *FAST, "--seed", "5",
                     "--histogram-out", str(out_a)]) == 0
        assert main(["loadgen", *FAST, "--seed", "5",
                     "--histogram-out", str(out_b)]) == 0
        a = json.loads(out_a.read_text())
        b = json.loads(out_b.read_text())
        assert a["offered"] == b["offered"]
        assert a["tally"]["impressions"] == b["tally"]["impressions"]
        capsys.readouterr()

    def test_loadgen_histogram_out(self, capsys, tmp_path):
        out_file = tmp_path / "latency.json"
        assert main(["loadgen", *FAST,
                     "--histogram-out", str(out_file)]) == 0
        record = json.loads(out_file.read_text())
        assert record["offered"] > 0
        assert record["tally"]["errors"] == 0
        assert record["latency_histogram"]["count"] \
            == record["offered"]
        err = capsys.readouterr().err
        assert "wrote latency histogram" in err

    def test_loadgen_deadline_and_queue_flags_parse(self, capsys):
        assert main(["loadgen", *FAST, "--deadline-ms", "50",
                     "--queue-capacity", "64", "--slots", "2"]) == 0


class TestSloGate:
    def test_generous_slo_passes(self, capsys):
        assert main(["loadgen", *FAST, "--slo",
                     "p99=30s,availability=1%"]) == 0
        out = capsys.readouterr().out
        assert "slo: p99 <= 30s" in out
        assert "[ok]" in out

    def test_impossible_slo_exits_one(self, capsys):
        assert main(["loadgen", *FAST, "--slo", "p99=1us"]) == 1
        captured = capsys.readouterr()
        assert "[VIOLATED]" in captured.out
        assert "slo violated" in captured.err

    def test_malformed_slo_exits_two_before_running(self, capsys):
        import pytest
        with pytest.raises(SystemExit) as excinfo:
            main(["loadgen", *FAST, "--slo", "nonsense"])
        assert excinfo.value.code == 2
        assert "invalid --slo spec" in capsys.readouterr().err

    def test_slo_lands_in_histogram_out(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        assert main(["loadgen", *FAST, "--slo", "availability=1%",
                     "--histogram-out", str(out_file)]) == 0
        record = json.loads(out_file.read_text())
        assert record["slo"]["ok"] is True
        assert record["slo"]["objectives"][0]["kind"] == "availability"
        capsys.readouterr()


class TestMetricsOut:
    def test_prometheus_snapshots_written(self, capsys, tmp_path):
        metrics_file = tmp_path / "metrics.prom"
        assert main(["loadgen", *FAST,
                     "--metrics-out", str(metrics_file)]) == 0
        text = metrics_file.read_text()
        assert "# TYPE serve_requests_served counter" in text
        assert "serve_requests_served " in text
        assert "serve_telemetry_polls" in text
        served = int(next(
            line.split()[-1] for line in text.splitlines()
            if line.startswith("serve_requests_served ")))
        assert served > 0
        assert "wrote metrics snapshot" in capsys.readouterr().err

    def test_no_leftover_tmp_file(self, capsys, tmp_path):
        metrics_file = tmp_path / "metrics.prom"
        assert main(["loadgen", *FAST,
                     "--metrics-out", str(metrics_file)]) == 0
        assert not (tmp_path / "metrics.prom.tmp").exists()
        capsys.readouterr()


class TestChromeTrace:
    def test_chrome_trace_is_valid_and_linked(self, capsys, tmp_path):
        trace_file = tmp_path / "trace.json"
        assert main(["loadgen", *FAST, "--shards", "2",
                     "--trace-out", str(trace_file),
                     "--trace-format", "chrome"]) == 0
        events = json.loads(trace_file.read_text())
        assert events, "empty chrome trace"
        assert all(event["ph"] == "X" for event in events)
        span_ids = {event["args"]["span_id"] for event in events}
        for event in events:
            parent = event["args"].get("parent_id")
            assert parent is None or parent in span_ids
        names = {event["name"] for event in events}
        assert {"serve.request", "serve.queue_wait",
                "serve.engine", "loadgen.run"} <= names
        capsys.readouterr()

    def test_jsonl_remains_the_default(self, capsys, tmp_path):
        trace_file = tmp_path / "trace.jsonl"
        assert main(["loadgen", *FAST,
                     "--trace-out", str(trace_file)]) == 0
        spans = load_jsonl_spans(trace_file.read_text())
        assert {span.name for span in spans} >= {"serve.request",
                                                 "loadgen.run"}
        capsys.readouterr()


class TestTopCommand:
    def test_top_renders_frames_and_summary(self, capsys):
        assert main(["top", "--shards", "2", "--users", "40",
                     "--duration", "0.8", "--rps", "200",
                     "--interval", "0.2", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        # Non-tty: frames print sequentially, then the final table.
        assert "repro top —" in out
        assert "shard" in out and "queue" in out and "p99ms" in out
        assert "final:" in out
        assert "telemetry samples" in out

    def test_top_counters_advance_across_frames(self, capsys):
        assert main(["top", "--shards", "2", "--users", "40",
                     "--duration", "1.0", "--rps", "300",
                     "--interval", "0.2", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        totals = [int(line.split("total:")[1].split()[0])
                  for line in out.splitlines() if "total:" in line]
        assert len(totals) >= 2
        assert totals == sorted(totals)
        assert totals[-1] > totals[0] > 0, (
            f"live counters never advanced: {totals}")

    def test_top_applies_slo_gate(self, capsys):
        assert main(["top", "--shards", "1", "--users", "40",
                     "--duration", "0.5", "--rps", "150",
                     "--interval", "0.2", "--slo", "p99=1us"]) == 1
        assert "[VIOLATED]" in capsys.readouterr().out

    def test_top_process_backend(self, capsys):
        assert main(["top", "--backend", "process", "--shards", "2",
                     "--users", "40", "--duration", "0.8",
                     "--rps", "200", "--interval", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "repro top —" in out
        assert "final:" in out
