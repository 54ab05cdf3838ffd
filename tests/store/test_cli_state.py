"""CLI: ``repro checkpoint`` / ``repro restore`` / ``repro replay``."""

from __future__ import annotations

import json

from repro.cli import main

FAST = ["--users", "24", "--rounds", "3", "--checkpoint-after", "1",
        "--shards", "2", "--seed", "11"]


class TestCheckpointCommand:
    def test_checkpoint_writes_the_full_directory(self, capsys,
                                                  tmp_path):
        out = str(tmp_path)
        assert main(["checkpoint", "--out", out, *FAST]) == 0
        printed = capsys.readouterr().out
        assert "repro checkpoint" in printed
        assert "records journaled" in printed
        names = {p.name for p in tmp_path.iterdir()}
        assert "manifest.json" in names
        assert "final_report.json" in names
        assert "shard-0-of-2.journal.jsonl" in names
        assert "shard-0-of-2.snapshot.json" in names
        assert "shard-1-of-2.journal.jsonl" in names
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest == {"seed": 11, "users": 24, "shards": 2,
                            "rounds": 3, "checkpoint_after": 1,
                            "slots": 3}

    def test_checkpoint_after_must_fit_rounds(self, capsys, tmp_path):
        assert main(["checkpoint", "--out", str(tmp_path),
                     "--rounds", "2", "--checkpoint-after", "5"]) == 2

    def test_second_checkpoint_into_the_same_directory_is_refused(
            self, capsys, tmp_path):
        """A second bundle would append to the first one's journals and
        fail its own replay; it is refused, and the first bundle still
        restores and replays byte-identically."""
        out = str(tmp_path)
        assert main(["checkpoint", "--out", out, *FAST]) == 0
        written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        assert main(["checkpoint", "--out", out, *FAST]) == 2
        assert out in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == \
            written
        assert main(["restore", "--from", out]) == 0
        assert main(["replay", "--from", out]) == 0


class TestRestoreAndReplayCommands:
    def test_restore_and_replay_are_byte_identical(self, capsys,
                                                   tmp_path):
        out = str(tmp_path)
        assert main(["checkpoint", "--out", out, *FAST]) == 0
        assert main(["restore", "--from", out]) == 0
        printed = capsys.readouterr().out
        assert "byte-identical" in printed
        assert main(["replay", "--from", out]) == 0
        assert "byte-identical" in capsys.readouterr().out

    def test_restore_detects_divergence(self, capsys, tmp_path):
        out = str(tmp_path)
        assert main(["checkpoint", "--out", out, *FAST]) == 0
        report_path = tmp_path / "final_report.json"
        report = json.loads(report_path.read_text())
        report["totals"]["impressions"] += 1  # corrupt the record
        report_path.write_text(json.dumps(report, sort_keys=True,
                                          separators=(",", ":")) + "\n")
        assert main(["restore", "--from", out]) == 1
        assert "diverged" in capsys.readouterr().err
