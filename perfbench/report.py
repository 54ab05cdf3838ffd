"""From raw workload figures to the printed tables and the result line.

The result line carries the end-to-end metrics BENCHMARK.json names,
for every workload:

====================  ======================  =====================  =================
metric                e2e-http                e2e-http-mixed         sweep
====================  ======================  =====================  =================
``setup_s``           start to ``/healthz``   start to ``/healthz``  world + launch
``throughput_per_s``  closed-loop serves/s    same, beside control   impressions/s
``cpu_s``             SUT CPU, 1000+2000 rps  SUT CPU, 1000 rps mix  SUT CPU per sweep
``peak_rss_mb``       SUT peak RSS            SUT peak RSS           SUT peak RSS
====================  ======================  =====================  =================

``throughput_per_s`` is a wall-clock figure: served requests per second
over all of the run's closed-loop pieces (``serve.max_rps``), or the
median over its sweeps of impressions per second of ``run_sweep``
(``sweep.impressions_per_s``).

The printed table carries every figure of the issue-level metric set
that applies to the workload (``serve.p50_ms.1000rps``,
``serve.max_rps``, ``mutate.tail_ms``, ``ops_failed_frac`` …), tails
with their percentile and sample count, medians and rates with their
per-piece values. Latency is printed, not gated: with the hypervisor
taking bursts of CPU time from the guest, a run's p50 at 1000 rps moved
2x between otherwise identical runs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from perfbench import common, layers

E2E: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

Figure = Tuple[str, float, str, str]

def _piece_p50s(groups) -> List[float]:
    """Each piece's median latency, ms."""
    return [common.median([op.latency_s * 1000.0 for op in ops])
            for ops in groups if ops]


def _pieces_note(values, label: str = "pieces") -> str:
    return label + " " + "/".join(f"{v:.2f}" for v in values)


def _piece_rates(pieces, windows) -> List[float]:
    """Served requests per second in each closed-loop piece."""
    return [
        sum(1 for op in ops
            if op.kind == "serve" and op.ok and start <= op.recv < end)
        / (end - start)
        for ops, (start, end) in zip(pieces, windows)]


def _latency(ops, kind: str) -> Dict[str, float]:
    return common.summarize(op.latency_s * 1000.0
                            for op in ops if op.kind == kind)


def _tail_note(summary: Dict[str, float]) -> str:
    return f"p{summary['tail_pct']:g} of n={summary['n']}"


def is_stale_report(op) -> bool:
    """A 200 report of the right ad showing fewer impressions than the
    driver had seen acknowledged when it sent the read."""
    if not op.meta or "report" not in op.meta or op.status != 200:
        return False
    payload = op.payload or {}
    return (payload.get("ad_id") == op.meta["report"]
            and int(payload.get("impressions", -1)) < op.meta["floor"])


def stale_reads(ops) -> Tuple[int, int]:
    """``(stale, all)`` report reads among ``ops``."""
    reports = [op for op in ops if op.meta and "report" in op.meta]
    return sum(map(is_stale_report, reports)), len(reports)


def _http_figures(raw: Dict, workload: str):
    phases = raw["phases"]
    ops = [op for phase_ops in phases.values() for op in phase_ops]
    attempted = len(ops)
    failed = sum(not op.ok for op in ops)
    stale, reports = stale_reads(ops)
    figures: List[Figure] = [("setup_s", raw["setup_s"], "s",
                              "process start to /healthz 200")]
    s1000 = _latency(phases["open1000"], "serve")
    serve_p50s = _piece_p50s([[op for op in ops if op.kind == "serve"]
                              for ops in raw["pieces"]["open1000"]])
    figures += [
        ("serve.p50_ms.1000rps", s1000["p50"], "ms",
         f"n={s1000['n']}, {_pieces_note(serve_p50s)}"),
        ("serve.tail_ms.1000rps", s1000["tail"], "ms", _tail_note(s1000)),
    ]
    pieces = raw["pieces"]
    closed = [op for op in phases["closed"] if op.kind == "serve"]
    windows = raw["closed_windows"]
    max_rps = sum(
        1 for ops, (start, end) in zip(pieces["closed"], windows)
        for op in ops
        if op.kind == "serve" and op.ok and start <= op.recv < end
    ) / sum(end - start for start, end in windows)
    rates = _piece_rates(pieces["closed"], windows)
    if workload == "e2e-http":
        s2000 = _latency(phases["open2000"], "serve")
        passing = [step["rps"] for step in raw["capacity_steps"]
                   if step["meets_limit"]]
        figures += [
            ("serve.p50_ms.2000rps", s2000["p50"], "ms",
             f"n={s2000['n']}"),
            ("serve.tail_ms.2000rps", s2000["tail"], "ms",
             _tail_note(s2000)),
            ("serve.capacity_rps", max(passing, default=0.0), "1/s",
             "steps " + ", ".join(
                 f"{step['rps']:g}:{'ok' if step['meets_limit'] else 'miss'}"
                 f"(tail {step['latency_ms']['tail']:.1f}ms)"
                 for step in raw["capacity_steps"])),
            ("serve.max_rps", max_rps, "1/s",
             f"closed loop, n={len(closed)}, "
             + _pieces_note(rates)),
        ]
        cpu = raw["cpu"]["open1000"] + raw["cpu"]["open2000"]
    else:
        control = phases["open1000"] + phases["closed"]
        mutate = _latency(control, "mutate")
        read = _latency(control, "read")
        mutate_p50s = _piece_p50s(
            [[op for op in a + b if op.kind == "mutate"]
             for a, b in zip(pieces["open1000"], pieces["closed"])])
        figures += [
            ("serve.max_rps", max_rps, "1/s",
             f"closed loop beside the control stream, n={len(closed)}, "
             + _pieces_note(rates)),
            ("mutate.p50_ms", mutate["p50"], "ms",
             f"n={mutate['n']}, {_pieces_note(mutate_p50s)}"),
            ("mutate.tail_ms", mutate["tail"], "ms", _tail_note(mutate)),
            ("read.p50_ms", read["p50"], "ms", f"n={read['n']}"),
            ("read.tail_ms", read["tail"], "ms", _tail_note(read)),
            ("reads.stale_reports", float(stale), "count",
             f"of {reports} report reads, below the acknowledged "
             "impressions (known defect)"),
        ]
        cpu = raw["cpu"]["open1000"]
    lag = common.summarize(
        (op.sent - op.due) * 1000.0 for name, phase_ops in phases.items()
        if name != "closed" for op in phase_ops)
    figures += [
        ("driver.lag_ms.tail", lag["tail"], "ms", _tail_note(lag)),
        ("ops_failed_frac", failed / attempted, "ratio",
         f"{failed} of {attempted}, {stale} of them stale report reads"),
        ("cpu_s", cpu, "s", "gateway + shard workers, open-loop phases"),
        ("peak_rss_mb", raw["peak_rss_mb"], "MB",
         "sum of per-process peaks, gateway + shard workers"),
    ]
    line = {"setup_s": raw["setup_s"], "throughput_per_s": max_rps,
            "cpu_s": cpu, "peak_rss_mb": raw["peak_rss_mb"]}
    # The result line's ``failed`` leaves out the stale report reads:
    # their number depends on how deliveries and reads interleave, so
    # it differs between runs of the same code; they are reported above
    # and, traced, as ``read.stale_frac``.
    return figures, line, attempted, failed - stale


def _sweep_figures(raw: Dict):
    reps = [r for r in raw["reps"] if not r["traced"]]
    walls = [r["wall_s"] for r in reps]
    impressions = raw["world"].expected_impressions
    rates = [impressions / w for w in walls]
    impressions_per_s = common.median(rates)
    cpu = common.median([r["cpu_s"] for r in reps])
    peak = max(raw["peaks_mb"])
    attempted = len(raw["reps"])
    failed = sum(r["stats"] != raw["reps"][0]["stats"] for r in raw["reps"])
    if not raw["checks"]["impressions_match"]:
        failed = attempted
    figures: List[Figure] = [
        ("setup_s", raw["setup_s"], "s", "world built, Treads launched"),
        ("sweep.impressions_per_s", impressions_per_s, "1/s",
         f"median of {len(rates)} sweeps, {impressions} impressions each"),
        ("sweep.wall_ms", common.median(walls) * 1000.0, "ms",
         "median run_sweep wall"),
        ("ops_failed_frac", failed / attempted, "ratio",
         f"{failed} of {attempted} sweeps"),
        ("cpu_s", cpu, "s", "parent + sweep workers, median per sweep, "
         + _pieces_note((r["cpu_s"] for r in reps), "sweeps")),
        ("peak_rss_mb", peak, "MB", "sampled sum over the sweep's processes"),
    ]
    line = {"setup_s": raw["setup_s"], "throughput_per_s": impressions_per_s,
            "cpu_s": cpu, "peak_rss_mb": peak}
    return figures, line, attempted, failed


def _figures(raw: Dict, workload: str):
    if workload == "sweep":
        return _sweep_figures(raw)
    return _http_figures(raw, workload)


def _cost(raw: Dict, workload: str) -> float:
    """CPU seconds per operation over the open-loop phases (HTTP) —
    the traced/untraced comparison for ``trace.overhead_frac``."""
    names = (["open1000", "open2000"] if workload == "e2e-http"
             else ["open1000"])
    ops = sum(len(raw["phases"][n]) for n in names)
    return sum(raw["cpu"][n] for n in names) / max(ops, 1)


def untraced_run(root: str, workload: str, seed: int, seconds: float,
                 out_dir: str, process_start: float) -> Dict:
    if workload == "sweep":
        from perfbench import sweep
        raw = sweep.run(root, seed, seconds, False, process_start)
    else:
        from perfbench import gateway
        raw = gateway.run(root, workload, seed, seconds, False, out_dir)
    figures, values, attempted, failed = _figures(raw, workload)
    checks = raw["checks"]
    return {
        "workload": workload,
        "figures": figures,
        "checks": checks,
        "line": {
            "correct": all(checks.values()),
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in E2E},
        },
    }


def traced_run(root: str, workload: str, seed: int, seconds: float,
               out_dir: str, process_start: float) -> Dict:
    if workload == "sweep":
        from perfbench import sweep
        raw = sweep.run(root, seed, seconds, True, process_start)
        traced = [r for r in raw["reps"] if r["traced"]]
        plain = [r for r in raw["reps"] if not r["traced"]]
        per_rep = [layers.analyze_sweep(r) for r in traced]
        values = {key: common.median([p[key] for p in per_rep])
                  for key in per_rep[0]}
        values["trace.overhead_frac"] = (
            common.median([r["wall_s"] for r in traced])
            / common.median([r["wall_s"] for r in plain]) - 1.0)
        timings = raw["world"].timings
        values["colstore.populate_s"] = timings["colstore.populate_s"]
        values["provider.launch_s"] = timings["provider.launch_s"]
        checks = raw["checks"]
    else:
        from perfbench import gateway
        reference = gateway.run(root, workload, seed, seconds, False,
                                out_dir)
        raw = gateway.run(root, workload, seed, seconds, True, out_dir)
        values = layers.analyze_gateway(raw, workload)
        values["trace.overhead_frac"] = (
            _cost(raw, workload) / _cost(reference, workload) - 1.0)
        checks = dict(raw["checks"])
        checks.update({f"reference.{k}": v
                       for k, v in reference["checks"].items()})
        if not values.pop("trace.matched"):
            checks["trace_matched_requests"] = False
        stale, reports = stale_reads(
            op for ops in raw["phases"].values() for op in ops)
        values["read.stale_frac"] = stale / reports if reports else 0.0
    figures, _, attempted, failed = _figures(raw, workload)
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in layers.PER_LAYER}
    return {
        "workload": workload,
        "figures": figures,
        "checks": checks,
        "layers": metrics,
        "line": {
            "correct": all(checks.values()),
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def format_tables(result: Dict) -> str:
    lines = [f"== {result['workload']}: end-to-end "
             f"{'(traced run)' if 'layers' in result else ''}"]
    for name, value, unit, note in result["figures"]:
        lines.append(f"  {name:<28} {value:>14.4f} {unit:<6} {note}")
    lines.append("== checks")
    for name, ok in sorted(result["checks"].items()):
        lines.append(f"  {name:<36} {'ok' if ok else 'FAILED'}")
    if "layers" in result:
        lines.append(f"== {result['workload']}: per layer")
        for name, entry in result["layers"].items():
            lines.append(f"  {name:<40} {entry['value']:>14.4f} "
                         f"{entry['unit']}")
    return "\n".join(lines)
