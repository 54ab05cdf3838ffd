PYTHON ?= python
export PYTHONPATH := src:.

.PHONY: test equivalence bench bench-perf check service-smoke scale-smoke \
	state-smoke

## Tier-1 test suite (the gate every change must keep green).
test:
	$(PYTHON) -m pytest -q

## The lowered-program-vs-interpreted equivalence suites on their own —
## the packed range pass every delivery path evaluates (and its edge
## inputs and store immutability), the per-slot kernel checked slot
## by slot against an Expr.matches reference, and the batch sweep
## (one-step and round-by-round) checked against the per-slot loop,
## its per-run lists and one-step tallies checked against per-pair
## oracles, with the parallel sweep's priced digest and its budget
## certificate (a binding budget sweeps single-process); and the keyed
## market: its scalar path against its vector kernel bit for bit, and
## the sweep and the parallel sweep under it against the per-slot loop.
equivalence:
	$(PYTHON) -m pytest -q tests/platform/test_mask_lowering.py \
		tests/platform/test_targeting_compile.py \
		tests/platform/test_packed_kernel.py \
		tests/platform/test_delivery_kernel.py \
		tests/platform/test_sweep_delivery.py \
		tests/platform/test_sweep_runs.py \
		tests/platform/test_parsweep.py \
		tests/workloads/test_competition.py

## Paper-reproduction benchmarks, single run each (fast, shape checks).
bench:
	$(PYTHON) -m pytest -q benchmarks/ --benchmark-disable

## Delivery throughput tiers with real pytest-benchmark statistics.
bench-perf:
	$(PYTHON) -m pytest benchmarks/bench_perf_throughput.py --benchmark-only

## The columnar scale tiers (what the CI scale-smoke job runs): the
## 100k-user batch sweep under a hard RSS ceiling, checked against the
## per-slot reference loop (byte-identical reports, >=3x impressions/s),
## the streaming populate CLI, and the forked-worker sweep CLI. The full
## million-user proof is REPRO_SCALE_1M=1 (numbers land in
## perf_trajectory.json scale_1m).
scale-smoke:
	$(PYTHON) -m pytest \
		benchmarks/bench_scale_1m.py::test_scale_100k_batch_sweep \
		--benchmark-disable -q
	$(PYTHON) -m repro populate --users 100000 --stats
	$(PYTHON) -m repro populate --users 20000 --sweep --sweep-workers 2

## The gateway kill drill + 60s HTTP/in-process equivalence soak, both
## serving backends (what the CI service-smoke matrix runs).
service-smoke:
	$(PYTHON) benchmarks/service_smoke.py --backend thread \
		--out-dir service-smoke-thread
	$(PYTHON) benchmarks/service_smoke.py --backend process \
		--out-dir service-smoke-process

## The state layer round trip (what the CI state-smoke job runs):
## checkpoint a sharded serving run mid-flight, then rebuild it from
## snapshot + journal suffix and from the full journal. Each command
## exits non-zero unless the rebuilt end state is byte-identical to the
## recorded report. The out-dir is cleared first: checkpoint refuses a
## non-empty one.
state-smoke:
	rm -rf state-smoke
	$(PYTHON) -m repro checkpoint --out state-smoke \
		--users 40 --shards 4 --rounds 4 --checkpoint-after 2 --seed 11
	$(PYTHON) -m repro restore --from state-smoke
	$(PYTHON) -m repro replay --from state-smoke

## What CI runs: tier-1 suite (includes the equivalence tests) plus the
## benchmark shape checks.
check: test bench
