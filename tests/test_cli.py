"""Tests for the command-line interface."""

import json
import logging

import pytest

from repro import __version__
from repro.cli import main
from repro.obs.tracing import load_jsonl_spans


class TestCatalog:
    def test_stats(self, capsys):
        assert main(["catalog", "stats"]) == 0
        out = capsys.readouterr().out
        assert "614" in out
        assert "507" in out
        assert "Acxiom" in out

    def test_search_hits(self, capsys):
        assert main(["catalog", "search", "net worth"]) == 0
        out = capsys.readouterr().out
        assert "Net worth" in out
        assert "partner" in out

    def test_search_miss_exit_code(self, capsys):
        assert main(["catalog", "search", "zzzznope"]) == 1

    def test_search_limit(self, capsys):
        main(["catalog", "search", "segment", "--limit", "2"])
        out = capsys.readouterr().out
        assert "more (raise --limit)" in out


class TestDemoAndValidate:
    def test_demo_succeeds(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Treads revealed 3" in out
        assert "partner data hidden" in out

    def test_validate_succeeds(self, capsys):
        assert main(["validate", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "508" in out
        assert "yes" in out

    def test_validate_custom_bid(self, capsys):
        assert main(["validate", "--seed", "7", "--bid-cpm", "20"]) == 0


class TestCostAndScale:
    def test_cost_table_paper_numbers(self, capsys):
        assert main(["cost", "--cpm", "2.0", "--attributes", "50"]) == 0
        out = capsys.readouterr().out
        assert "$0.0020" in out
        assert "$0.1000" in out

    def test_scale_table(self, capsys):
        assert main(["scale", "--m", "97"]) == 0
        out = capsys.readouterr().out
        assert "97" in out
        assert "7" in out

    def test_attack_command(self, capsys):
        assert main(["attack"]) == 0
        out = capsys.readouterr().out
        assert "billed impressions: 1" in out
        assert "billed impressions: 0" in out
        assert "below 1000" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestStats:
    def test_demo_scenario_table(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        # Scenario stdout is swallowed; only the metrics table prints.
        assert "Treads revealed" not in out
        seen = set()
        for line in out.splitlines():
            cells = [c.strip() for c in line.split("|")]
            # The demo's campaign runs on the batch sweep.
            if cells[0] in ("delivery.slots_served",
                            "delivery.sweep_rounds",
                            "delivery.impressions_delivered"):
                assert int(cells[2]) > 0, line
                seen.add(cells[0])
            if cells[0] == "auction.contenders":
                assert "n=0" not in cells[2], line
                seen.add(cells[0])
        assert len(seen) == 4, seen

    def test_prometheus_format(self, capsys):
        assert main(["stats", "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE delivery_slots_served counter" in out
        assert '_bucket{le="+Inf"}' in out

    def test_jsonl_format_is_strict_json(self, capsys):
        assert main(["stats", "--format", "jsonl"]) == 0
        records = [json.loads(line) for line
                   in capsys.readouterr().out.splitlines()]
        names = {r["name"] for r in records}
        assert "delivery.slots_served" in names
        assert all("kind" in r for r in records)

    def test_validate_scenario(self, capsys):
        assert main(["stats", "--scenario", "validate"]) == 0
        out = capsys.readouterr().out
        assert "provider.treads_launched" in out


class TestTraceOut:
    def test_demo_writes_valid_span_jsonl(self, tmp_path, capsys):
        trace_file = tmp_path / "spans.jsonl"
        assert main(["demo", "--trace-out", str(trace_file)]) == 0
        spans = load_jsonl_spans(trace_file.read_text())
        by_name = {s.name: s for s in spans}
        # Launch, the campaign run (one span around the whole batch
        # sweep), then the client's decode — in that order on the clock.
        launch = by_name["provider.launch"]
        run = by_name["provider.run_delivery"]
        sync = by_name["client.sync"]
        assert launch.end_s <= run.start_s < run.end_s <= sync.start_s
        ids = {s.span_id for s in spans}
        for span in spans:
            assert span.parent_id is None or span.parent_id in ids

    def test_stats_accepts_trace_out(self, tmp_path, capsys):
        trace_file = tmp_path / "spans.jsonl"
        assert main(["stats", "--trace-out", str(trace_file)]) == 0
        assert load_jsonl_spans(trace_file.read_text())


class TestVerbosityAndVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_default_run_emits_nothing_on_stderr(self, capsys):
        assert main(["demo"]) == 0
        assert capsys.readouterr().err == ""

    def test_verbose_logs_to_stderr(self, capsys):
        logger = logging.getLogger("repro")
        before_level = logger.level
        try:
            assert main(["-v", "demo"]) == 0
            err = capsys.readouterr().err
            assert "INFO repro." in err
        finally:
            logger.setLevel(before_level)
            for handler in list(logger.handlers):
                if getattr(handler, "_repro_cli_handler", False):
                    logger.removeHandler(handler)

    def test_verbose_handler_not_duplicated(self, capsys):
        logger = logging.getLogger("repro")
        before_level = logger.level
        try:
            main(["-v", "demo"])
            main(["-v", "demo"])
            cli_handlers = [h for h in logger.handlers
                            if getattr(h, "_repro_cli_handler", False)]
            assert len(cli_handlers) == 1
        finally:
            logger.setLevel(before_level)
            for handler in list(logger.handlers):
                if getattr(handler, "_repro_cli_handler", False):
                    logger.removeHandler(handler)


class TestPopulate:
    def test_columnar_stats_table(self, capsys):
        assert main(["populate", "--users", "120",
                     "--stats", "--chunk-size", "50"]) == 0
        out = capsys.readouterr().out
        assert "columnar" in out
        assert "120" in out
        assert "column bytes" in out
        assert "dense ids" in out

    def test_rejects_nonpositive_users(self, capsys):
        assert main(["populate", "--users", "0"]) == 2
        assert "--users must be >= 1" in capsys.readouterr().err

    def test_rejects_nonpositive_sweep_workers(self, capsys):
        assert main(["populate", "--users", "200", "--sweep",
                     "--sweep-workers", "0"]) == 2
        assert "--sweep-workers must be >= 1" in capsys.readouterr().err
