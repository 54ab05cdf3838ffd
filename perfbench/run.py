"""The Treads platform benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload e2e-http --seed 1 --seconds 15 --trace 0

Workloads (see README.md for why each exists):

* ``e2e-http`` — ``repro gateway`` (process backend, 2 shards, 500
  users) driven with ``POST /v1/serve`` only;
* ``e2e-http-mixed`` — the same gateway and 1000 rps serve stream plus a
  control-plane stream of writes and reads;
* ``sweep`` — a columnar population delivered by
  ``AdPlatform.run_sweep(workers=2)``.

The run prints a table of every end-to-end figure that applies to the
workload (by name, with unit), and — with ``--trace 1`` — the per-layer
table, then, as its last line, the JSON result object: ``correct``,
``attempted``, ``failed`` and the ``metrics`` named in BENCHMARK.json
(end-to-end ones untraced, per-layer ones traced). A copy of the full
result, with the environment it ran in, is written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_PROCESS_START = time.perf_counter()

ROOT = os.getcwd()
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    print("perfbench: run from the root of a checkout (no src/repro here)",
          file=sys.stderr)
    sys.exit(2)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import common, report  # noqa: E402

WORKLOADS = ("e2e-http", "e2e-http-mixed", "sweep")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    env = common.environment(ROOT)
    out_dir = os.path.join(ROOT, ".perfbench_out",
                           f"{args.workload}-s{args.seed}-t{args.trace}")
    os.makedirs(out_dir, exist_ok=True)
    if args.trace:
        result = report.traced_run(ROOT, args.workload, args.seed,
                                   args.seconds, out_dir, _PROCESS_START)
    else:
        result = report.untraced_run(ROOT, args.workload, args.seed,
                                     args.seconds, out_dir, _PROCESS_START)
    env["loadavg_after"] = list(os.getloadavg())
    env["steal_s_during"] = common.steal_seconds() - env.pop("steal_s_before")
    result["environment"] = env
    result["args"] = vars(args)
    common.dump_json(os.path.join(out_dir, "result.json"), result)
    print(report.format_tables(result))
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(json.dumps(result["line"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
