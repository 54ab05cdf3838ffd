"""Shared plumbing: sample statistics, process accounting, environment.

Everything here is standard library only, so the benchmark's own tests
(``perfbench/tests``) import it without the program under test.
"""

from __future__ import annotations

import json
import math
import os
import platform as _platform
import subprocess
import sys
from typing import Dict, Iterable, List, Optional, Sequence

#: Candidate percentiles for "tail": the highest one that keeps at
#: least :data:`TAIL_MIN_BEYOND` samples beyond it is reported.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10

_CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def tail_percentile(count: int) -> float:
    """The highest percentile with at least ten samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if count * (100.0 - pct) >= TAIL_MIN_BEYOND * 100.0 - 1e-6:
            return pct
    return 50.0


def summarize(values: Iterable[float]) -> Dict[str, float]:
    """Median and tail of a sample, with the tail's percentile and n."""
    ordered = sorted(values)
    if not ordered:
        return {"n": 0, "p50": float("nan"), "tail": float("nan"),
                "tail_pct": float("nan")}
    pct = tail_percentile(len(ordered))
    return {
        "n": len(ordered),
        "p50": percentile(ordered, 50.0),
        "tail": percentile(ordered, pct),
        "tail_pct": pct,
    }


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# -- process accounting (Linux /proc) ---------------------------------------


def process_tree(root: int) -> List[int]:
    """``root`` and every live descendant, parents first."""
    seen: List[int] = []
    stack = [root]
    while stack:
        pid = stack.pop()
        if pid in seen or not os.path.exists(f"/proc/{pid}"):
            continue
        seen.append(pid)
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{pid}/task/{tid}/children") as stream:
                    stack.extend(int(c) for c in stream.read().split())
            except OSError:
                continue
    return seen


def cpu_seconds(pids: Iterable[int]) -> float:
    """User + system CPU seconds consumed so far by ``pids``."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as stream:
                fields = stream.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # Fields after "comm)": state is [0]; utime/stime are [11]/[12].
        total += int(fields[11]) + int(fields[12])
    return total / _CLK_TCK


def _status_kb(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as stream:
            for line in stream:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def rss_mb(pids: Iterable[int]) -> float:
    """Current resident set size summed over ``pids``, MB."""
    return sum(_status_kb(pid, "VmRSS") for pid in pids) / 1024.0


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Per-process RSS high-water marks summed over ``pids``, MB."""
    return sum(_status_kb(pid, "VmHWM") for pid in pids) / 1024.0


# -- environment -------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return _platform.processor() or "unknown"


def _git_sha(root: str) -> Optional[str]:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests, machine-wide so far
    (the ``steal`` column of ``/proc/stat``); 0 where not reported."""
    try:
        with open("/proc/stat") as stream:
            fields = stream.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / _CLK_TCK if len(fields) > 8 else 0.0


def environment(root: str) -> Dict[str, object]:
    """What a result must carry to be read honestly later."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": _git_sha(root),
        "visible_cores": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "loadavg_before": list(os.getloadavg()),
        "steal_s_before": steal_seconds(),
    }


def dump_json(path: str, payload: object) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")
    os.replace(tmp, path)
