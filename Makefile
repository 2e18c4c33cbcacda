PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint lint-baseline docs-check bench bench-smoke \
	bench-baseline bench-plan bench-plan-baseline bench-stream \
	bench-stream-baseline bench-concurrency bench-resilience \
	bench-resilience-baseline bench-join bench-join-baseline \
	bench-olap perf perf-compare profile

## Tier-1 verification: static analysis + docs doctests + the full
## unit/integration suite.
test: lint docs-check
	$(PYTHON) -m pytest -x -q

## Static analysis gate: the repo-aware AST lint rules (against
## tools/analysis/baseline.json), the PhysicalPlan verifier over the
## generated E1-E11 + differential query corpus, and strict typing on
## the core modules (mypy --strict when installed, the annotation
## fallback otherwise).  Also covered by tests/test_analysis_gate.py,
## so plain pytest catches violations too.
lint:
	$(PYTHON) tools/analysis/run_lint.py
	$(PYTHON) tools/analysis/plan_verifier.py
	$(PYTHON) tools/analysis/strict_typing.py

## Accept the current lint findings into the checked-in baseline
## (justify every new entry in the PR).
lint-baseline:
	$(PYTHON) tools/analysis/run_lint.py --update-baseline

## Run the doctests embedded in README.md and docs/*.md (also covered
## by tests/test_docs.py, so plain pytest catches stale docs too).
docs-check:
	$(PYTHON) tools/check_docs.py

## Full paper-scale benchmark suite (slow; REPRO_BENCH_OBS=80000 for
## the paper's complete demo subset).
bench:
	$(PYTHON) -m pytest benchmarks -q

## Fast regression gate over the querying hot path: runs the E3/E6
## workload at a small scale and fails on >20% slowdown vs the
## committed baseline (benchmarks/baseline.json).
bench-smoke:
	REPRO_BENCH_OBS=2000 $(PYTHON) benchmarks/check_regression.py

## Refresh the committed smoke baseline after an intentional change.
bench-baseline:
	REPRO_BENCH_OBS=2000 $(PYTHON) benchmarks/check_regression.py --update

## Plan-quality gate: estimated plan cost of every E3/E6 query must
## stay within 2x of the committed baseline (benchmarks/plan_baseline.json).
bench-plan:
	REPRO_BENCH_OBS=2000 $(PYTHON) benchmarks/check_plans.py

## Refresh the committed plan baseline after an intentional change.
bench-plan-baseline:
	REPRO_BENCH_OBS=2000 $(PYTHON) benchmarks/check_plans.py --update

## Streaming gate: probe / streamed-row counts of a DISTINCT-LIMIT and
## an OPTIONAL-LIMIT query must stay within 2x of the committed
## baseline (and results must match materialized execution exactly).
bench-stream:
	REPRO_BENCH_OBS=2000 $(PYTHON) benchmarks/check_regression.py --stream

## Refresh the committed streaming baseline after an intentional change.
bench-stream-baseline:
	REPRO_BENCH_OBS=2000 $(PYTHON) benchmarks/check_regression.py --stream --update

## Concurrency gate: 8 interactive readers + 1 bulk writer under a
## wall-clock budget; snapshot isolation must deliver >= 2x the
## aggregate read throughput of a serialized-lock control, with
## concurrent results identical to single-threaded execution.
bench-concurrency:
	REPRO_BENCH_OBS=2000 $(PYTHON) benchmarks/check_concurrency.py

## Resilience gate: healthy readers share the endpoint with injected
## hanging queries, a crashing bulk writer and an admission burst;
## every fault must surface as a typed governed error, healthy p99
## must stay within 3x of fault-free, crashed batches must roll back
## completely, and concurrent results must match single-threaded.
bench-resilience:
	REPRO_BENCH_OBS=2000 $(PYTHON) benchmarks/check_resilience.py

## Refresh the committed resilience reference numbers.
bench-resilience-baseline:
	REPRO_BENCH_OBS=2000 $(PYTHON) benchmarks/check_resilience.py --update

## Columnar-storage gate: compaction latency under its ceiling, and a
## 1M-observation bulk load + E3-shaped aggregation inside the
## governor's default deadline.  Throughput history lands in
## benchmarks/join_baseline.json.
bench-join:
	$(PYTHON) benchmarks/check_join.py

## Refresh the recorded join/compaction throughput history.
bench-join-baseline:
	$(PYTHON) benchmarks/check_join.py --update

## Columnar-OLAP gate: star ETL >= 5x the per-observation test oracle
## at 100k observations (byte-identical fact tables),
## shared-fact-snapshot cells identical to the serial native engine,
## zero leaked shared-memory segments after close.
bench-olap:
	REPRO_BENCH_OBS=100000 $(PYTHON) benchmarks/check_olap.py

## The contract benchmark (BENCHMARK.json), the A/B a perf claim is
## judged by: `make perf OUT=a.json [RUNS=10]` records one set of runs
## (every workload, RUNS fresh processes each) of the tree it runs in;
## `make perf-compare BASE=a.json CHANGE=b.json` reads two sets under
## the contract's bounds and the nine-of-ten-pairs rule.
RUNS ?= 10
perf:
	python3 benchmarks/perf/record.py --runs $(RUNS) --out $(OUT)

perf-compare:
	python3 benchmarks/perf/compare.py $(BASE) $(CHANGE)

## Where one round of a contract workload spends its time: set the
## workload up through benchmarks/perf/harness.py, one warm round (the
## verification), one round under cProfile, the cumulative table.
## `make profile WORKLOAD=rollup_20k [TOP=30] [WALL=dotted.name,...]
## [SETUP=1] [STEPS=1]`.  Finds candidates; WALL re-runs the round
## un-profiled and prints the named functions' wall-clock share — what
## to size a claim from; SETUP=1 puts harness.set_up (what `setup_s` is
## made of) in the round's place; STEPS=1 prints the round's join steps
## by shape instead, each timed as a range scan and as per-key probes;
## `make perf` / `make perf-compare` measure it.
TOP ?= 30
profile:
	python3 tools/profile_round.py --workload $(WORKLOAD) --top $(TOP) \
		$(if $(WALL),--wall $(WALL)) $(if $(SETUP),--setup) \
		$(if $(STEPS),--steps)
