# Convenience targets for the repro repository.

PY ?= python

.PHONY: install test lint sanitize race bench bench-e18 bench-e19 bench-e20 bench-e21 bench-quick soak tables examples all clean

install:
	$(PY) setup.py develop

test:
	$(PY) -m pytest tests/

# Static analysis: the repo-invariant AST linter, plus mypy when it is
# installed (CI always installs it; local runs degrade gracefully).
lint:
	$(PY) tools/repro_lint.py
	@$(PY) -c "import mypy" 2>/dev/null \
		&& $(PY) -m mypy \
		|| echo "mypy not installed; skipping type check"

# The whole suite with the pin sanitizer armed strict on every kernel.
sanitize:
	REPRO_SANITIZE=strict $(PY) -m pytest tests/

# Schedule exploration: every registered scenario re-run over permuted
# same-deadline dispatch orders and crash placements, the race detector
# and pin sanitizer armed on each run.  The seeded goldens must be
# identity-clean yet detected; the workload scenarios must be
# race-clean everywhere.  REPRO_RACE_SCHEDULES scales the candidate
# count; the per-run verdicts land in RACE_REPORT.json.
race:
	$(PY) tools/race_explore.py --report RACE_REPORT.json

# The E17 churn soak at full scale: 8 tenants, 2 simulated hours of
# connect/register/transfer/kill/swap-pressure churn under chaos, with
# the pin sanitizer strict.  SLOs land in BENCH.json.
soak:
	REPRO_SANITIZE=strict $(PY) benchmarks/report.py -o BENCH.json \
		benchmarks/bench_e17_soak.py

# The E18 simulator-core scale-out at full scale: calendar events +
# vectorized frame table + batched posting.  Asserts >=3x the recorded
# legacy core's whole-cluster throughput; numbers land in BENCH.json.
bench-e18:
	$(PY) benchmarks/report.py -o BENCH.json \
		benchmarks/bench_e18_cluster_scale.py

# The E19 distributed-lock-manager sweep: three lock designs on the
# remote atomic verbs, clean throughput plus the kill-at-every-step
# lease-recovery SLO (p50/p99); numbers land in BENCH_E19.json.
bench-e19:
	$(PY) benchmarks/report.py -o BENCH_E19.json \
		benchmarks/bench_e19_dlm.py

# The E20 pin-at-register vs pin-on-fault (ODP) pressure sweep:
# registration latency, first-touch DMA latency, fault-service counts,
# resident-pin footprint; numbers land in BENCH_E20.json.
bench-e20:
	$(PY) benchmarks/report.py -o BENCH_E20.json \
		benchmarks/bench_e20_odp.py

# The E21 race-exploration sweep: detection rate over the three seeded
# race scenarios (identity-clean, detected under exploration) plus
# explorer schedules/sec; numbers land in BENCH_E21.json.
bench-e21:
	$(PY) benchmarks/report.py -o BENCH_E21.json \
		benchmarks/bench_e21_races.py

# Full benchmark run aggregated into BENCH.json (simulated-ns tables and
# series plus pytest-benchmark host-time medians).
bench:
	$(PY) benchmarks/report.py

bench-quick:
	$(PY) benchmarks/report.py --quick

# Regenerate every experiment table (E1-E13) with assertions.
tables:
	$(PY) -m pytest benchmarks/ -s

# The examples import ``repro`` from the source tree, installed or not.
examples: export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
examples:
	$(PY) examples/quickstart.py
	$(PY) examples/locktest_swapping.py
	$(PY) examples/zero_copy_messaging.py
	$(PY) examples/registration_cache.py
	$(PY) examples/raw_io.py
	$(PY) examples/parallel_sort.py
	$(PY) examples/halo_exchange.py

all: test bench

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
