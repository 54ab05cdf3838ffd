"""The HTTP workloads: ``e2e-http`` and ``e2e-http-mixed``.

Both start ``repro gateway --backend process --shards 2 --users 500`` on
a fresh journal directory and drive it from this process over at most
two keep-alive connections (:mod:`perfbench.httpdrive`). Arrival plans
come from :func:`repro.serve.loadgen.build_schedule`, seeded from the
run's ``--seed``. The world itself is fixed (:data:`WORLD_SEED`), so
every run builds the same persona population and set-up time measures
the same work; the seed varies the traffic.

``e2e-http`` sends only ``POST /v1/serve``: a short warm-up, open-loop
Poisson phases at 1000 and 2000 rps, a fixed ladder of higher rates
(stopping at the first that misses the limit), and a closed-loop phase
with a fixed pipelined window. Capacity is the highest of these
open-loop rates (1000 and 2000 rps included) that meets the limit.
``e2e-http-mixed`` sends the same 1000 rps serve stream plus a
control-plane stream on the second connection (one operation per ten
serve requests, half writes and half reads), then a closed-loop serve
phase with the control stream still running.

After a clean stop the run checks the shard journals: impressions per
ad must equal the ``ad_ids`` the driver received in 2xx responses. On
``e2e-http`` every delivered (user, ad) pair must also match the ad's
targeting in the world rebuilt from the manifest (deliver-iff-match).
A report read that shows fewer impressions than the driver already saw
acknowledged is a wrong answer: a known defect of the process backend,
counted apart from other failures (see :mod:`perfbench.report`).
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from perfbench import common
from perfbench.httpdrive import Arrival, Driver, Op
from repro.gateway import build_world, fetch_json, load_manifest
from repro.serve import shard_journal_path
from repro.serve.loadgen import LoadConfig, build_schedule

USERS = 500
SHARDS = 2
WORLD_SEED = 42
#: Share of ``--seconds`` given to each phase piece; measured phases run
#: as ROUNDS interleaved pieces (see :func:`drive`).
ROUNDS = 5
E2E_PHASES = {"warmup": 0.05, "open1000": 0.06, "open2000": 0.03,
              "closed": 0.08, "ladder": 0.15}
MIXED_PHASES = {"warmup": 0.05, "open1000": 0.11, "closed": 0.08}
WARMUP_RPS = 1000.0
#: Gap between building a phase's plan and its first due time.
LEAD_S = 0.01
#: Above the 2000 rps phase, up to past the closed-loop throughput
#: measured at 500 users on a 2-vCPU Xeon guest (2,088-2,822 rps over
#: ten runs).
LADDER_RPS = (2250.0, 2500.0, 2750.0, 3000.0)
#: Capacity limits: serve tail, share of 2xx, and no growing backlog.
CAPACITY_TAIL_MS = 50.0
CAPACITY_OK_FRAC = 0.999
#: Outstanding requests in the closed-loop phase.
CLOSED_WINDOW = 64
#: The driver's connections: serve requests on one, the mixed
#: workload's control-plane stream on the other.
SERVE_CONN = 0
CONTROL_CONN = 1
#: Control-plane operations per serve request in the mixed workload.
CONTROL_PER_SERVE = 0.1
AUDIENCE_PHRASES = ("Automotive", "Travel", "Finance", "Home",
                    "Education", "Health", "Shopping", "Sports")
READY_TIMEOUT_S = 240.0
STOP_TIMEOUT_S = 60.0


class GatewayProcess:
    """One ``repro gateway`` child: launch, readiness, accounting, stop."""

    def __init__(self, root: str, journal_dir: str, log_path: str,
                 shim_args: Optional[List[str]] = None):
        args = ["gateway", "--backend", "process",
                "--shards", str(SHARDS), "--users", str(USERS),
                "--seed", str(WORLD_SEED), "--journal-dir", journal_dir,
                "--port", "0"]
        if shim_args is None:
            cmd = [sys.executable, "-m", "repro"] + args
        else:
            cmd = ([sys.executable, os.path.join(root, "perfbench",
                                                 "gateway_shim.py")]
                   + shim_args + ["--"] + args)
        env = dict(os.environ)
        # Same dict/set iteration order in every run.
        env["PYTHONHASHSEED"] = "0"
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.log = open(log_path, "w", encoding="utf-8")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self.log, text=True, start_new_session=True)
        self.host = "127.0.0.1"
        self.port = 0
        self.pids: List[int] = []

    def wait_ready(self) -> float:
        """Seconds from process start until ``/healthz`` answers 200."""
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if "gateway listening on http://" not in line:
            raise RuntimeError(f"gateway failed to start: {line!r}")
        address = line.split("http://", 1)[1].split()[0]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)
        deadline = self.started + READY_TIMEOUT_S
        while True:
            try:
                fetch_json(self.url, "/healthz")
                ready = time.perf_counter() - self.started
                break
            except (OSError, RuntimeError, ValueError):
                if time.perf_counter() > deadline:
                    raise RuntimeError("gateway never became healthy")
            time.sleep(0.005)
        self.pids = common.process_tree(self.proc.pid)
        return ready

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def cpu_s(self) -> float:
        return common.cpu_seconds(self.pids)

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb(common.process_tree(self.proc.pid))

    def stop(self) -> int:
        """SIGTERM, wait for the clean shutdown, reap the group."""
        code = None
        try:
            self.proc.send_signal(signal.SIGTERM)
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except OSError:
                pass
            if code is None:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            self.log.close()
        return -1 if code is None else code


# -- serve and control streams ---------------------------------------------


class State:
    """What the driver has seen acknowledged, for checks and choices."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed ^ 0x5EED)
        self.acked: Counter = Counter()
        self.pairs: List[Tuple[str, str]] = []
        self.orgs: List[str] = []
        self.campaigns: List[Tuple[str, str]] = []
        self.audiences: List[str] = []
        self.names = 0

    def on_response(self, op: Op) -> None:
        if not op.ok or op.payload is None:
            return
        payload = op.payload
        if op.kind == "serve":
            user = str(payload.get("user_id"))
            for ad in payload.get("ad_ids", ()):
                self.acked[ad] += 1
                self.pairs.append((user, ad))
        elif op.meta is not None and op.meta.get("creates") == "org":
            self.orgs.append(str(payload["org_id"]))
        elif op.meta is not None and op.meta.get("creates") == "campaign":
            self.campaigns.append((str(payload["org_id"]),
                                   str(payload["campaign_id"])))
        elif op.meta is not None and op.meta.get("creates") == "audience":
            self.audiences.append(str(payload["audience_id"]))


def _serve_check(op: Op) -> bool:
    payload = op.payload or {}
    return (op.status == 200
            and isinstance(payload.get("ad_ids"), list)
            and payload.get("user_id") == op.meta["user"])


def serve_op(user_id: str) -> Op:
    return Op("serve", "POST", "/v1/serve",
              {"user_id": user_id, "slots": 1},
              check=_serve_check, meta={"user": user_id})


def serve_plan(user_ids: List[str], rps: float, duration_s: float,
               seed: int) -> List[Arrival]:
    """Open-loop serve arrivals from ``build_schedule``, as offsets."""
    schedule = build_schedule(user_ids, LoadConfig(
        rps=rps, duration_s=duration_s, seed=seed))
    return [(offset, SERVE_CONN,
             (lambda uid=request.user_id: serve_op(uid)))
            for offset, request in schedule]


def _mutate(state: State) -> Op:
    choice = state.rng.choice(("org", "campaign", "audience", "pause"))
    if choice == "pause" and state.campaigns:
        org, campaign = state.rng.choice(state.campaigns)
        return Op("mutate", "POST",
                  f"/v1/orgs/{org}/campaigns/{campaign}/pause", {},
                  check=lambda op: op.payload.get("paused") is True)
    if choice in ("campaign", "pause") and state.orgs:
        org = state.rng.choice(state.orgs)
        state.names += 1
        return Op("mutate", "POST", f"/v1/orgs/{org}/campaigns",
                  {"name": f"campaign {state.names}"},
                  check=lambda op, org=org: op.payload.get("org_id") == org,
                  meta={"creates": "campaign"})
    if choice == "audience" and state.orgs:
        org = state.rng.choice(state.orgs)
        state.names += 1
        return Op("mutate", "POST", "/v1/audiences",
                  {"org_id": org, "name": f"audience {state.names}",
                   "phrases": [state.rng.choice(AUDIENCE_PHRASES)]},
                  check=lambda op, org=org: op.payload.get("org_id") == org,
                  meta={"creates": "audience"})
    state.names += 1
    name = f"org {state.names}"
    return Op("mutate", "POST", "/v1/orgs",
              {"name": name, "budget": 100.0},
              check=lambda op, name=name: op.payload.get("name") == name,
              meta={"creates": "org"})


def _read(state: State) -> Op:
    choice = state.rng.choice(("report", "org", "audience", "explain"))
    if choice == "report" and state.acked:
        ad = state.rng.choice(sorted(state.acked))
        floor = state.acked[ad]
        # A report must show at least the impressions already acked.
        return Op("read", "GET", f"/v1/reports/{ad}",
                  check=lambda op, ad=ad, floor=floor: (
                      op.payload.get("ad_id") == ad
                      and int(op.payload.get("impressions", -1)) >= floor),
                  meta={"report": ad, "floor": floor})
    if choice == "explain" and state.pairs:
        user, ad = state.rng.choice(state.pairs)
        return Op("read", "GET", f"/v1/explanations?user={user}&ad={ad}",
                  check=lambda op, ad=ad: op.payload.get("ad_id") == ad)
    if choice == "audience" and state.audiences:
        audience = state.rng.choice(state.audiences)
        return Op("read", "GET", f"/v1/audiences/{audience}",
                  check=lambda op, a=audience:
                      op.payload.get("audience_id") == a)
    if state.orgs:
        org = state.rng.choice(state.orgs)
        return Op("read", "GET", f"/v1/orgs/{org}",
                  check=lambda op, org=org: op.payload.get("org_id") == org)
    return Op("read", "GET", "/v1/orgs",
              check=lambda op: isinstance(op.payload.get("orgs"), list))


def control_plan(state: State, rps: float, duration_s: float,
                 seed: int) -> List[Arrival]:
    """Poisson control-plane arrivals, as offsets; the kind (write or
    read) is fixed by the seed, the target is chosen from what is
    acknowledged by the time the operation is due."""
    rng = random.Random(seed)
    plan: List[Arrival] = []
    clock = 0.0
    while True:
        clock += rng.expovariate(rps)
        if clock >= duration_s:
            return plan
        factory: Callable[[], Op] = (
            (lambda: _mutate(state)) if rng.random() < 0.5
            else (lambda: _read(state)))
        plan.append((clock, CONTROL_CONN, factory))


# -- checks -----------------------------------------------------------------


def read_journals(journal_dir: str) -> Tuple[Counter, int, int]:
    """Impressions per ad, records and bytes across the shard journals."""
    impressions: Counter = Counter()
    records = size = 0
    for index in range(SHARDS):
        path = shard_journal_path(journal_dir, index, SHARDS)
        size += os.path.getsize(path)
        with open(path, encoding="utf-8") as stream:
            for line in stream:
                records += 1
                record = json.loads(line)
                if record.get("kind") == "impression":
                    impressions[record["ad_id"]] += 1
    return impressions, records, size


def deliver_iff_match(journal_dir: str,
                      pairs: List[Tuple[str, str]]) -> bool:
    """Rebuild the world from the manifest; every delivered (user, ad)
    pair must match the ad's targeting there."""
    manifest = load_manifest(journal_dir)
    if manifest is None:
        return False
    platform = build_world(manifest)
    resolver = platform.audiences.is_member
    return all(
        platform.inventory.ad(ad_id).targeting.matches(
            platform.users.get(user_id), resolver)
        for user_id, ad_id in set(pairs))


# -- the run ----------------------------------------------------------------


def _backlog_grew(ops: List[Op]) -> bool:
    """Latency of the last fifth of a step well above the first fifth."""
    if len(ops) < 20:
        return False
    fifth = len(ops) // 5
    first = common.median([op.latency_s for op in ops[:fifth]])
    last = common.median([op.latency_s for op in ops[-fifth:]])
    return last > max(2.0 * first, first + 0.010)


def _phase_ok(pieces: List[List[Op]]) -> Dict[str, object]:
    """Whether an open-loop phase (its pieces) meets the capacity limit."""
    served = [[op for op in ops if op.kind == "serve"] for ops in pieces]
    pooled = [op for ops in served for op in ops]
    summary = common.summarize(op.latency_s * 1000.0 for op in pooled)
    ok_frac = (sum(op.ok for op in pooled) / len(pooled)) if pooled else 0.0
    grew = any(_backlog_grew(ops) for ops in served)
    return {
        "latency_ms": summary,
        "ok_frac": ok_frac,
        "backlog_grew": grew,
        "meets_limit": (summary["n"] > 0
                        and summary["tail"] <= CAPACITY_TAIL_MS
                        and ok_frac >= CAPACITY_OK_FRAC and not grew),
    }


def drive(gw: GatewayProcess, workload: str, seed: int, seconds: float,
          state: State) -> Dict[str, object]:
    """Run the workload's phases against a ready gateway.

    After the warm-up, the measured phases run as :data:`ROUNDS`
    interleaved pieces (e2e-http: 1000 rps, 2000 rps, closed loop;
    mixed: 1000 rps + control, closed loop + control), so a few seconds
    of machine noise lands in one piece of each, not in a whole phase.
    The capacity ladder runs last; ``capacity_steps`` holds the verdict
    of the 1000 and 2000 rps phases and of each ladder step run.
    """
    users = fetch_json(gw.url, "/v1/users")
    user_ids = [str(u) for u in users["user_ids"]]
    mixed = workload == "e2e-http-mixed"
    driver = Driver(gw.host, gw.port, 2 if mixed else 1)
    driver.on_response = state.on_response
    shares = MIXED_PHASES if mixed else E2E_PHASES
    phases: Dict[str, List[Op]] = defaultdict(list)
    pieces: Dict[str, List[List[Op]]] = defaultdict(list)
    cpu: Dict[str, float] = defaultdict(float)
    closed_windows: List[Tuple[float, float]] = []
    seeds = iter(range(seed * 1000, seed * 1000 + 1000))
    rng = random.Random(seed)

    def at_now(plan: List[Arrival]) -> List[Arrival]:
        """Anchor a plan of offsets just after the current instant."""
        start = time.perf_counter() + LEAD_S
        return sorted(((start + offset, conn, factory)
                       for offset, conn, factory in plan),
                      key=lambda arrival: arrival[0])

    def control(duration: float) -> List[Arrival]:
        if not mixed:
            return []
        return control_plan(state, 1000.0 * CONTROL_PER_SERVE, duration,
                            next(seeds))

    def measure(name: str, plan: List[Arrival], closed_s: float = 0.0
                ) -> List[Op]:
        before = gw.cpu_s()
        if closed_s:
            started = time.perf_counter()
            ops = driver.run(
                at_now(plan), name,
                closed=(SERVE_CONN, CLOSED_WINDOW,
                        lambda: serve_op(rng.choice(user_ids))),
                closed_until=started + closed_s)
            closed_windows.append((started, started + closed_s))
        else:
            ops = driver.run(at_now(plan), name)
        cpu[name] += gw.cpu_s() - before
        phases[name].extend(ops)
        pieces[name].append(ops)
        return ops

    def open_piece(name: str, rps: float, duration: float) -> List[Op]:
        return measure(name, serve_plan(user_ids, rps, duration, next(seeds))
                       + control(duration))

    # The driver's own collector must not stall the clock it keeps.
    gc.collect()
    gc.freeze()
    gc.disable()
    steps: List[Dict[str, object]] = []
    try:
        open_piece("warmup", WARMUP_RPS, shares["warmup"] * seconds)
        for _ in range(ROUNDS):
            open_piece("open1000", 1000.0, shares["open1000"] * seconds)
            if not mixed:
                open_piece("open2000", 2000.0, shares["open2000"] * seconds)
            closed_s = shares["closed"] * seconds
            measure("closed", control(closed_s), closed_s=closed_s)
        if not mixed:
            steps = [dict(_phase_ok(pieces[name]), rps=rps)
                     for name, rps in (("open1000", 1000.0),
                                       ("open2000", 2000.0))]
            step_s = shares["ladder"] * seconds / len(LADDER_RPS)
            for rps in LADDER_RPS:
                ops = open_piece(f"ladder{int(rps)}", rps, step_s)
                verdict = dict(_phase_ok([ops]), rps=rps)
                steps.append(verdict)
                if not verdict["meets_limit"]:
                    break
    finally:
        driver.close()
        gc.enable()
        gc.unfreeze()
    return {"phases": dict(phases), "pieces": dict(pieces),
            "cpu": dict(cpu), "capacity_steps": steps,
            "closed_windows": closed_windows}


def run(root: str, workload: str, seed: int, seconds: float,
        trace: bool, out_dir: str) -> Dict[str, object]:
    journal_dir = os.path.join(out_dir, f"journal-{workload}")
    shutil.rmtree(journal_dir, ignore_errors=True)
    os.makedirs(journal_dir)
    shim_args = None
    trace_files: Dict[str, str] = {}
    if trace:
        trace_files = {
            "trace": os.path.join(out_dir, f"{workload}.trace.jsonl"),
            "metrics": os.path.join(out_dir, f"{workload}.metrics.prom"),
            "setup": os.path.join(out_dir, f"{workload}.setup.json"),
        }
        shim_args = [trace_files["trace"], trace_files["metrics"],
                     trace_files["setup"]]
    gw = GatewayProcess(root, journal_dir,
                        os.path.join(out_dir, f"{workload}.gateway.log"),
                        shim_args=shim_args)
    state = State(seed)
    try:
        setup_s = gw.wait_ready()
        measured = drive(gw, workload, seed, seconds, state)
        peak_rss = gw.peak_rss_mb()
    finally:
        code = gw.stop()
    checks: Dict[str, bool] = {"clean_stop": code == 0}
    journaled, records, journal_bytes = read_journals(journal_dir)
    checks["journal_equals_acked"] = journaled == state.acked
    if workload == "e2e-http":
        checks["deliver_iff_match"] = deliver_iff_match(journal_dir,
                                                        state.pairs)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
        "checks": checks,
        "journal_records": records,
        "journal_bytes": journal_bytes,
        "trace_files": trace_files,
        **measured,
    }
