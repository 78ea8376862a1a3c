# Developer / CI entry points.
#
# `test-fast` is the tier-1 gate: the full unit suite minus tests marked
# `slow` (per-cycle simulation windows).  `bench-smoke` exercises the
# simulator-throughput and parallel-campaign benchmarks once without
# timing repetition, so the process-pool fan-out path runs in CI without
# slowing the gate down.  It also runs the epoch-engine perf gate
# (solution-cache and batched-inference speedups, self-timed with
# perf_counter) and writes benchmarks/results/BENCH_epoch_engine.json,
# which CI uploads as an artifact.  `train-bench-smoke` is the matching
# gate for the offline training pipeline (batched RFE scoring, sweep
# cache, population replicas); it writes
# benchmarks/results/BENCH_training_pipeline.json.
# `fused-bench-smoke` is the campaign-engine perf gate: it asserts the
# grouped evaluation grid reproduces the per-task oracle in tests/reference/
# byte-for-byte and beats its process-pool fan-out >= 3x and its serial
# loop >= 2x, and writes benchmarks/results/BENCH_fused_sim.json.
# `quantum-bench-smoke` is the vectorised-quantum-kernel perf gate: it
# asserts the batched epoch engine and the lockstep V/f-grid replay are
# byte-identical to the scalar oracle in tests/reference/ and beat it
# >= 2.5x / >= 2x, and writes benchmarks/results/BENCH_quantum_kernel.json.
# `perfbench-selftest` runs the repo benchmark (BENCHMARK.json) at tiny
# scale, untraced and traced, and fails when a tracer target no longer
# resolves or a layer records no span.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-fast test-slow bench-smoke train-bench-smoke \
	fused-bench-smoke quantum-bench-smoke bench faults-smoke chaos-smoke \
	fleet-smoke perfbench-selftest

test-fast:
	$(PYTHON) -m pytest -q -m "not slow"

# Fault-injection smoke: a small sweep over every fault mode (including
# 100% sensor dropout, which must engage the guard's fallback) plus the
# resilience-focused test modules.  Zero unhandled exceptions expected.
# The sweep runs through the campaign engine, where faulty/guarded
# wrappers take the solo-decision path under the whole fault menu.
faults-smoke:
	$(PYTHON) -m repro.cli faults --small --mode all --rates 0 1.0 \
		--kernels 1 --duration-us 60 --stats
	$(PYTHON) -m pytest -q tests/test_faults.py tests/test_parallel.py

# Fleet smoke: replay a bursty two-class trace over 16 simulated GPUs
# under per-node governors and gate on the SLO-violation rate — the CLI
# exits non-zero when more than 5% of jobs miss their deadline, so a
# scheduler regression (EDF ordering, placement, replay accounting)
# fails the job.  The JSON export is byte-stable per seed and uploaded
# by CI as an artifact.  Outside the tier-1 `test-fast` gate.
fleet-smoke:
	$(PYTHON) -m repro.cli fleet --small --nodes 16 --jobs 48 \
		--trace burst --policy governor --load 0.7 --stats \
		--slo-gate 0.05 --export benchmarks/results/FLEET_smoke.json
	$(PYTHON) -m pytest -q tests/test_fleet.py

# Chaos smoke: the three chaos campaigns (repro.evaluation.chaos and
# repro.evaluation.soak), each with crash-write torture through the
# artifact store.  Every CLI exits non-zero on any invariant violation,
# which fails the job:
# * soak — self-trains a small pair through the dataset cache,
#   registers it as last-known-good, then soaks it under 1% sensor
#   faults with a mid-run stale-model injection (NaN decision, latency
#   over preset+slack, unhealed drift, torn read);
# * fleet-chaos — randomized node-fault trains (crash, hang, thermal
#   runaway, sensor storms) against the fleet replay with admission
#   control on (a job lost or double-counted, a seed whose export is
#   not byte-stable across worker counts, a node wedged in quarantine,
#   a latency-class job admission-shed);
# * serve-chaos — seeded fault trains (worker crashes/hangs, inference
#   stalls, telemetry storms/gaps, poisoned updates, overload bursts)
#   against the always-on serving runtime (an invalid decision served,
#   a request lost or double-counted, a worker outage past the recovery
#   budget, a non-byte-stable replay, a deadline-class request shed
#   under capacity).
# The exported payloads are atomic and byte-stable per seed; CI uploads
# all three as artifacts.  Outside the tier-1 `test-fast` gate.
chaos-smoke:
	$(PYTHON) -m repro.cli soak --small --breakpoints 4 --kernels 2 \
		--cache .cache --store .cache/store --stats \
		--export benchmarks/results/SOAK_smoke.json
	$(PYTHON) -m repro.cli fleet-chaos --small --nodes 4 --jobs 16 \
		--trials 2 --seed 7 --store .cache/chaos-store --stats \
		--export benchmarks/results/FLEET_chaos_smoke.json
	$(PYTHON) -m repro.cli serve-chaos --small --streams 2 --ticks 160 \
		--trials 2 --seed 7 --store .cache/serve-chaos-store --stats \
		--export benchmarks/results/SERVE_chaos_smoke.json
	$(PYTHON) -m pytest -q tests/test_chaos.py tests/test_fleet_resilience.py \
		tests/test_serve.py tests/test_serve_chaos.py

test:
	$(PYTHON) -m pytest -q

test-slow:
	$(PYTHON) -m pytest -q -m slow

bench-smoke:
	$(PYTHON) -m pytest -q benchmarks/bench_sim_throughput.py --benchmark-disable

train-bench-smoke:
	$(PYTHON) -m pytest -q benchmarks/bench_training_pipeline.py --benchmark-disable

fused-bench-smoke:
	$(PYTHON) -m pytest -q tests/test_fused.py
	$(PYTHON) -m pytest -q \
		benchmarks/bench_sim_throughput.py::test_fused_campaign_speedup \
		--benchmark-disable

quantum-bench-smoke:
	$(PYTHON) -m pytest -q tests/test_quantum.py
	$(PYTHON) -m pytest -q \
		benchmarks/bench_sim_throughput.py::test_quantum_kernel_speedup \
		--benchmark-disable

perfbench-selftest:
	python3 perfbench/selftest.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only
