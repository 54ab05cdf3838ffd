"""Service-mode smoke drill: kill -9 recovery + HTTP/in-process equivalence.

Two phases, run for one backend per invocation (CI runs a matrix):

* **Phase A — kill drill.** Start `repro gateway` as a subprocess,
  create an org and a campaign over HTTP, drive `repro httpgen`
  against it, then SIGKILL the whole gateway process group mid-run.
  Fold the surviving journals back into a fresh world twice,
  independently — both folds must be byte-identical, every impression
  record in the journals must appear in the recovered state exactly
  once (no charge lost, none doubled), every impression httpgen saw
  acknowledged must be among them, and the tenancy journal must
  replay to the acknowledged mutations. Restart the gateway over the
  same directory: its live `/v1/state` must equal the fold, the org
  and campaign must be back, and a fresh httpgen run must exit 0.

* **Phase B — equivalence soak.** A fresh gateway, a seeded httpgen
  soak (>= 60 s by default, one pipelined connection), a clean
  SIGTERM — then the same seeded schedule run in-process against a
  world rebuilt from the same manifest. The gateway's
  `final_report.json` must be byte-identical to the in-process run's
  canonical state report.

Exits non-zero on the first failed assertion. Artifacts (gateway
logs, httpgen histograms, reports) land in ``--out-dir``.

Usage::

    PYTHONPATH=src:. python benchmarks/service_smoke.py \
        --backend thread --out-dir service-smoke-thread
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import List, Optional, Tuple

from repro.gateway import (
    WorldManifest,
    build_runtime,
    build_world,
    fetch_json,
    load_manifest,
    open_tenancy_store,
    recover_runtime_shards,
    tenancy_journal_path,
)
from repro.gateway.httpgen import _parse_base
from repro.gateway.tenancy import TenantRegistry
from repro.serve import LoadConfig, LoadGenerator
from repro.store import JournalStore
from repro.store.audit import canonical_json, state_report
from repro.store.records import ImpressionRecorded

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

USERS = 60
SHARDS = 2
SEED = 11


class Gateway:
    """A `repro gateway` subprocess in its own process group, with its
    output teed to a log file (the CI artifact)."""

    def __init__(self, journal_dir: str, backend: str, log_path: str,
                 *extra: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(SRC)
        self.log_path = log_path
        self._log = open(log_path, "a", encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "gateway",
             "--journal-dir", journal_dir, "--port", "0",
             "--backend", backend, "--shards", str(SHARDS),
             "--users", str(USERS), "--seed", str(SEED), *extra],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, start_new_session=True,
        )
        self.url: Optional[str] = None
        self._ready = threading.Event()
        self._tee = threading.Thread(target=self._pump, daemon=True)
        self._tee.start()
        if not self._ready.wait(timeout=120.0):
            self.kill9()
            raise AssertionError(
                f"gateway never became ready; see {log_path}")

    def _pump(self) -> None:
        assert self.process.stdout is not None
        for line in self.process.stdout:
            self._log.write(line)
            self._log.flush()
            if "listening on" in line:
                self.url = line.split("listening on ", 1)[1].split()[0]
                self._ready.set()
        self._ready.set()  # EOF: unblock the waiter with url=None

    def kill9(self) -> None:
        """SIGKILL the whole process group — gateway and, on the
        process backend, its shard workers. No shutdown hooks run."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        self._close()

    def sigterm(self) -> int:
        self.process.send_signal(signal.SIGTERM)
        code = self.process.wait(timeout=60.0)
        self._close()
        return code

    def _close(self) -> None:
        self._tee.join(timeout=10.0)
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()


def httpgen(url: str, out_dir: str, name: str, *, rps: float,
            duration: float, seed: int, slo: Optional[str] = None,
            background: bool = False):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SRC)
    cmd = [sys.executable, "-m", "repro", "httpgen", "--url", url,
           "--rps", str(rps), "--duration", str(duration),
           "--seed", str(seed), "--connections", "1",
           "--histogram-out", os.path.join(out_dir, f"{name}.json")]
    if slo is not None:
        cmd += ["--slo", slo]
    log = open(os.path.join(out_dir, f"{name}.log"), "w",
               encoding="utf-8")
    process = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                               env=env)
    if background:
        return process, log
    code = process.wait()
    log.close()
    return code


def http_post(url: str, path: str, payload: dict) -> dict:
    host, port = _parse_base(url)
    conn = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        conn.request("POST", path, body=json.dumps(payload),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        body = response.read()
        if response.status >= 300:
            raise AssertionError(
                f"POST {path} -> {response.status}: {body!r}")
        return json.loads(body)
    finally:
        conn.close()


def fresh_dir(path: str) -> str:
    """``path`` emptied: a journal directory left by an earlier run
    would be recovered and appended to, and every check would then run
    against accumulated history instead of this run."""
    shutil.rmtree(path, ignore_errors=True)
    return path


def fold_journals(journal_dir: str) -> Tuple[str, int, dict]:
    """Rebuild the world from the on-disk manifest and fold every
    journal into it (always in-process on the thread backend — the
    cross-backend byte-identity is part of what the drill checks).
    Returns (canonical state report, recovered impressions, tenancy
    state)."""
    manifest = load_manifest(journal_dir)
    assert manifest is not None, f"no manifest in {journal_dir}"
    fold = WorldManifest(**dict(manifest.to_dict(), backend="thread"))
    platform = build_world(fold)
    runtime = build_runtime(platform, fold, journal_dir=journal_dir)
    recovered = recover_runtime_shards(runtime, journal_dir, fold)
    assert recovered, "no shard journals to recover"
    report = canonical_json(state_report(runtime.router))
    impressions = runtime.router.total_impressions()
    store = open_tenancy_store(fresh_dir(journal_dir + "-fold-scratch"))
    tenants = TenantRegistry(platform, store)
    for record in JournalStore.read(tenancy_journal_path(journal_dir)):
        tenants.apply_record(record)
    tenancy = tenants.state_dump()
    store.close()
    for shard in runtime.router.shards:
        shard.store.close()
    return report, impressions, tenancy


def journaled_impressions(journal_dir: str, shards: int) -> int:
    from repro.serve import shard_journal_path

    count = 0
    for index in range(shards):
        path = shard_journal_path(journal_dir, index, shards)
        if os.path.exists(path):
            count += sum(1 for record in JournalStore.read(path)
                         if isinstance(record, ImpressionRecorded))
    return count


def phase_a_kill_drill(backend: str, out_dir: str) -> None:
    print(f"[phase A] kill -9 drill ({backend} backend)", flush=True)
    journal_dir = fresh_dir(os.path.join(out_dir, "killdrill"))
    gateway = Gateway(journal_dir, backend,
                      os.path.join(out_dir, "gateway-killdrill.log"))
    assert gateway.url is not None
    org = http_post(gateway.url, "/v1/orgs",
                    {"name": "acme", "budget": 40.0})
    campaign = http_post(
        gateway.url, f"/v1/orgs/{org['org_id']}/campaigns",
        {"name": "launch"})
    load, load_log = httpgen(gateway.url, out_dir, "killdrill-httpgen",
                             rps=200, duration=10.0, seed=7,
                             background=True)
    time.sleep(3.0)
    gateway.kill9()
    print("[phase A] gateway killed mid-run", flush=True)
    load_code = load.wait(timeout=120.0)
    load_log.close()
    assert load_code != 0, \
        "httpgen should report errors after the gateway died"

    report1, impressions1, tenancy1 = fold_journals(journal_dir)
    report2, impressions2, tenancy2 = fold_journals(journal_dir)
    assert report1 == report2, "independent folds disagree"
    assert tenancy1 == tenancy2
    on_disk = journaled_impressions(journal_dir, SHARDS)
    assert impressions1 == on_disk, (
        f"charge conservation violated: {on_disk} impression records "
        f"journaled, {impressions1} recovered")
    assert impressions1 > 0, "the drill served nothing before the kill"
    # An acknowledged impression is a journaled one: every impression
    # httpgen got back in a 2xx must have survived the kill.
    with open(os.path.join(out_dir, "killdrill-httpgen.json"),
              encoding="utf-8") as stream:
        acknowledged = json.load(stream)["tally"]["impressions"]
    assert acknowledged <= impressions1, (
        f"acknowledged work lost: httpgen was acked {acknowledged} "
        f"impressions, the journals recovered {impressions1} "
        f"({acknowledged - impressions1} short)")
    replayed_orgs = [entry["org_id"] for entry in tenancy1["orgs"]]
    assert org["org_id"] in replayed_orgs, \
        "acknowledged org lost in replay"
    with open(os.path.join(out_dir, "killdrill-fold-report.json"), "w",
              encoding="utf-8") as stream:
        stream.write(report1)
        stream.write("\n")
    print(f"[phase A] folds agree: {impressions1} impressions "
          f"({acknowledged} acknowledged), "
          f"{len(tenancy1['orgs'])} org(s)", flush=True)

    gateway = Gateway(journal_dir, backend,
                      os.path.join(out_dir, "gateway-restart.log"))
    assert gateway.url is not None
    try:
        live_state = fetch_json(gateway.url, "/v1/state")
        assert canonical_json(live_state) == report1, (
            "restarted gateway state differs from the journal fold")
        recovered_org = fetch_json(gateway.url,
                                   f"/v1/orgs/{org['org_id']}")
        assert recovered_org["name"] == "acme"
        assert recovered_org["campaigns"] == 1
        recovered_campaign = fetch_json(
            gateway.url,
            f"/v1/orgs/{org['org_id']}/campaigns"
            f"/{campaign['campaign_id']}")
        assert recovered_campaign["name"] == "launch"
        code = httpgen(gateway.url, out_dir, "restart-httpgen",
                       rps=150, duration=1.5, seed=9,
                       slo="availability=99%")
        assert code == 0, "post-restart httpgen failed"
    finally:
        code = gateway.sigterm()
    assert code == 0, "restarted gateway did not shut down cleanly"
    assert os.path.exists(os.path.join(journal_dir,
                                       "final_report.json"))
    print("[phase A] restart serves the recovered world; drill ok",
          flush=True)


def phase_b_equivalence_soak(backend: str, out_dir: str,
                             soak_s: float, rps: float) -> None:
    print(f"[phase B] {soak_s:.0f}s equivalence soak "
          f"({backend} backend, {rps:.0f} rps)", flush=True)
    journal_dir = fresh_dir(os.path.join(out_dir, "soak"))
    trace_path = os.path.join(out_dir, "soak-gateway-trace.json")
    gateway = Gateway(journal_dir, backend,
                      os.path.join(out_dir, "gateway-soak.log"),
                      "--trace-out", trace_path,
                      "--trace-format", "chrome")
    assert gateway.url is not None
    try:
        code = httpgen(gateway.url, out_dir, "soak-httpgen",
                       rps=rps, duration=soak_s, seed=21,
                       slo="availability=99.9%")
        assert code == 0, "soak httpgen failed (errors or SLO miss)"
    finally:
        code = gateway.sigterm()
    assert code == 0, "soaked gateway did not shut down cleanly"
    with open(trace_path, encoding="utf-8") as stream:
        trace = json.load(stream)
    assert isinstance(trace, list) and trace, \
        "soak gateway wrote an empty trace"
    assert any(event["name"] == "gateway.request" for event in trace)
    with open(os.path.join(journal_dir, "final_report.json"),
              encoding="utf-8") as stream:
        http_state = stream.read().rstrip("\n")

    manifest = load_manifest(journal_dir)
    assert manifest is not None
    arm = WorldManifest(**dict(manifest.to_dict(), backend="thread"))
    platform = build_world(arm)
    runtime = build_runtime(platform, arm)
    runtime.start()
    report = LoadGenerator(
        runtime, list(platform.users.user_ids()),
        config=LoadConfig(rps=rps, duration_s=soak_s, seed=21),
    ).run()
    runtime.stop()
    assert report.tally.errors == 0
    in_process_state = canonical_json(state_report(runtime.router))
    with open(os.path.join(out_dir, "soak-inprocess-report.json"), "w",
              encoding="utf-8") as stream:
        stream.write(in_process_state)
        stream.write("\n")
    assert http_state == in_process_state, (
        "HTTP soak state differs from the in-process run of the same "
        "seeded schedule")
    print(f"[phase B] byte-identical after "
          f"{report.tally.submitted} requests; soak ok", flush=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", choices=("thread", "process"),
                        default="thread")
    parser.add_argument("--out-dir", default="service-smoke")
    parser.add_argument("--soak-duration", type=float, default=60.0)
    parser.add_argument("--soak-rps", type=float, default=150.0)
    parser.add_argument("--skip-soak", action="store_true",
                        help="run only the kill drill (fast local check)")
    args = parser.parse_args(argv)
    os.makedirs(args.out_dir, exist_ok=True)
    phase_a_kill_drill(args.backend, args.out_dir)
    if not args.skip_soak:
        phase_b_equivalence_soak(args.backend, args.out_dir,
                                 args.soak_duration, args.soak_rps)
    print(f"service smoke ok ({args.backend} backend)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
