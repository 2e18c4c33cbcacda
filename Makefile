PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint lint-baseline docs-check bench perf perf-compare profile

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

## The paper's experiments E1-E11 under pytest-benchmark (slow;
## REPRO_BENCH_OBS=80000 for the paper's complete demo subset).  Timing
## claims are judged by `make perf` / `make perf-compare` instead; the
## deterministic checks (plan shapes, entries read, typed errors,
## cross-engine cells) are tier-1 tests.
bench:
	$(PYTHON) -m pytest benchmarks/bench_e*.py -q

## The contract benchmark (BENCHMARK.json), the A/B a perf claim is
## judged by: `make perf OUT=a.json [RUNS=10]` records one set of runs
## (every workload, RUNS fresh processes each) of the tree it runs in;
## `make perf-compare BASE=a.json CHANGE=b.json` reads two sets under
## the contract's bounds and the nine-of-ten-pairs rule.  An
## off-contract 1M run: `python3 benchmarks/perf/run.py --workload
## rollup_20k --observations 1000000`.
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
